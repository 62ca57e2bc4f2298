package simprof

import (
	"io"
	"runtime"
	"time"

	"vdm/internal/overlay"
)

// Options configures a Recorder.
type Options struct {
	// W receives the JSONL stream. Required: a nil W disables profiling
	// (sim treats Profile with a nil writer as off).
	W io.Writer
	// EveryS is the flush interval in simulated seconds (default 10).
	EveryS float64
}

// topK bounds each record's hot-peer and hot-edge attribution lists.
const topK = 10

// RunInfo is the run shape the engine hands the recorder for the header
// record.
type RunInfo struct {
	Engine     string // "serial" | "sharded"
	Shards     int    // 0 for the serial engine
	Pool       int    // scenario host-slot pool size
	LookaheadS float64
	Protocol   string
	Nodes      int
	Seed       int64
	DurationS  float64
}

// ShardState is one event queue's cumulative state, read by the engine at
// a flush barrier. The serial engine passes a single entry.
type ShardState struct {
	Processed  uint64 // events fired so far
	Deliveries uint64 // of those, message deliveries the bus fired (the rest are timers)
	Queue      int    // pending events
	Free       int    // spare slots in the queue's array (eventq.FreeLen)
}

// Recorder accumulates engine and protocol telemetry between flush
// barriers and writes interval records. It is owned by the engine
// controller: every method except the probes' ObserveSend must be called
// single-threaded, with shard workers paused.
type Recorder struct {
	opts Options
	info RunInfo
	w    *Writer

	probes []*Probe

	// Cumulative per-queue readings at the previous flush.
	prevEvents []uint64
	prevDeliv  []uint64

	// Interval accumulators (reset at each flush). busyNS/waitNS cover
	// only the timing-sampled epochs (timedEpochs of epochs); Flush scales
	// them up to whole-interval estimates.
	busyNS      []int64
	waitNS      []int64
	epochs      uint64
	timedEpochs uint64
	xshard      uint64
	horizon     Dist

	// Merge buffers for probe draining.
	msgs  [overlay.NumTypes]uint64
	peers []uint64
	edges map[uint64]uint64

	lastT     float64
	nextFlush float64
	lastWall  time.Time
}

// NewRecorder builds a recorder for the given run and writes the header
// record. queues is the number of event queues (shards; 1 for serial).
func NewRecorder(opts Options, info RunInfo, queues int) *Recorder {
	if opts.EveryS <= 0 {
		opts.EveryS = 10
	}
	r := &Recorder{
		opts:       opts,
		info:       info,
		w:          NewWriter(opts.W),
		prevEvents: make([]uint64, queues),
		prevDeliv:  make([]uint64, queues),
		busyNS:     make([]int64, queues),
		waitNS:     make([]int64, queues),
		peers:      make([]uint64, info.Pool),
		edges:      make(map[uint64]uint64),
		nextFlush:  opts.EveryS,
		lastWall:   time.Now(),
	}
	for i := 0; i < queues; i++ {
		r.probes = append(r.probes, newProbe(info.Pool))
	}
	h := Header{
		Engine:    info.Engine,
		Shards:    info.Shards,
		Pool:      info.Pool,
		IntervalS: opts.EveryS,
		Protocol:  info.Protocol,
		Nodes:     info.Nodes,
		Seed:      info.Seed,
		DurationS: info.DurationS,
	}
	// Inf (S=1: unbounded lookahead) is not representable in JSON; omit.
	if la := info.LookaheadS; la > 0 && la < 1e18 {
		h.LookaheadS = la
	}
	r.w.WriteHeader(h)
	return r
}

// Probe returns queue i's send tap, to attach via SetSendProbe.
func (r *Recorder) Probe(i int) *Probe { return r.probes[i] }

// IntervalS reports the resolved flush interval.
func (r *Recorder) IntervalS() float64 { return r.opts.EveryS }

// NoteEpoch folds one sharded-engine epoch into the current interval:
// the horizon advance (simulated seconds the round covered), the
// cross-shard messages exchanged at its barrier — and, on timing-sampled
// rounds (epochWallNS >= 0), the round's wall time and each shard's busy
// wall time within it. Shards that had no work this round pass 0 busy and
// are accounted as waiting the whole round.
func (r *Recorder) NoteEpoch(advS float64, moved int, epochWallNS int64, busyDeltaNS []int64) {
	r.epochs++
	r.xshard += uint64(moved)
	if advS >= 0 && advS < 1e18 {
		r.horizon.add(advS * 1000)
	}
	if epochWallNS < 0 {
		return
	}
	r.timedEpochs++
	for i, busy := range busyDeltaNS {
		r.busyNS[i] += busy
		if wait := epochWallNS - busy; wait > 0 {
			r.waitNS[i] += wait
		}
	}
}

// Due reports whether simulated time t has crossed the next flush
// boundary.
func (r *Recorder) Due(t float64) bool { return t >= r.nextFlush }

// Flush cuts the interval record ending at simulated time t. states are
// the cumulative per-queue engine readings; protoFn, when non-nil, takes
// the protocol sample.
func (r *Recorder) Flush(t float64, states []ShardState, protoFn func() Proto) {
	now := time.Now()
	rec := Record{
		T:      t,
		DT:     t - r.lastT,
		WallMS: float64(now.Sub(r.lastWall)) / float64(time.Millisecond),
	}

	// Busy/wait were measured on timedEpochs of the interval's epochs;
	// scale them to whole-interval estimates.
	scale := 1.0
	if r.timedEpochs > 0 && r.timedEpochs < r.epochs {
		scale = float64(r.epochs) / float64(r.timedEpochs)
	}
	var rows []ShardRow
	for i, st := range states {
		ev := st.Processed - r.prevEvents[i]
		rec.Events += ev
		rec.Deliveries += st.Deliveries - r.prevDeliv[i]
		rec.Queue += st.Queue
		rec.Free += st.Free
		rows = append(rows, ShardRow{
			Events: ev,
			Queue:  st.Queue,
			Free:   st.Free,
			BusyMS: float64(r.busyNS[i]) * scale / 1e6,
			WaitMS: float64(r.waitNS[i]) * scale / 1e6,
		})
		r.prevEvents[i] = st.Processed
		r.prevDeliv[i] = st.Deliveries
		r.busyNS[i], r.waitNS[i] = 0, 0
	}
	rec.Timers = rec.Events - rec.Deliveries
	if wallS := float64(now.Sub(r.lastWall)) / float64(time.Second); wallS > 0 {
		rec.EventsPerSec = float64(rec.Events) / wallS
	}
	if r.info.Shards > 0 {
		rec.Shards = rows
		rec.Epochs = r.epochs
		rec.XShardMsgs = r.xshard
		if r.horizon.N > 0 {
			h := r.horizon
			h.finalize()
			rec.HorizonAdvMS = &h
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.HeapMB = float64(ms.HeapAlloc) / 1e6
	if protoFn != nil {
		p := protoFn()
		rec.Proto = &p
	}

	for _, p := range r.probes {
		p.drainInto(&r.msgs, r.peers, r.edges)
	}
	mix := make(map[string]uint64)
	for k, n := range r.msgs {
		if n != 0 {
			mix[overlay.MsgType(k).String()] = n
		}
		r.msgs[k] = 0
	}
	if len(mix) > 0 {
		rec.Msgs = mix
	}
	rec.TopPeers = topPeers(r.peers, topK)
	rec.TopEdges = topEdges(r.edges, topK)
	for i := range r.peers {
		r.peers[i] = 0
	}
	clear(r.edges)

	r.w.WriteRecord(rec)
	r.epochs, r.timedEpochs, r.xshard, r.horizon = 0, 0, 0, Dist{}
	r.lastT, r.lastWall = t, now
	for r.nextFlush <= t {
		r.nextFlush += r.opts.EveryS
	}
}

// Close flushes the underlying writer and reports the first write error.
func (r *Recorder) Close() error { return r.w.Flush() }

// topSel selects the K largest (msgs, then lowest id) entries from a
// stream without materialising or sorting the full candidate set: a
// bounded insertion list, O(n·K) with K small instead of O(n log n) over
// every peer/edge the interval touched. Flush-time cost matters — it runs
// single-threaded on the engine controller.
type topSel struct {
	ids  []uint64
	msgs []uint64
	k    int
}

func newTopSel(k int) *topSel {
	return &topSel{ids: make([]uint64, 0, k), msgs: make([]uint64, 0, k), k: k}
}

// offer considers one candidate. Ties on msgs keep the lower id, so the
// selection is deterministic regardless of offer order.
func (s *topSel) offer(id, msgs uint64) {
	if n := len(s.msgs); n == s.k {
		if last := s.msgs[n-1]; msgs < last || (msgs == last && id > s.ids[n-1]) {
			return
		}
		s.ids, s.msgs = s.ids[:n-1], s.msgs[:n-1]
	}
	i := len(s.msgs)
	for i > 0 && (msgs > s.msgs[i-1] || (msgs == s.msgs[i-1] && id < s.ids[i-1])) {
		i--
	}
	s.ids = append(s.ids, 0)
	s.msgs = append(s.msgs, 0)
	copy(s.ids[i+1:], s.ids[i:])
	copy(s.msgs[i+1:], s.msgs[i:])
	s.ids[i], s.msgs[i] = id, msgs
}

func topPeers(peers []uint64, k int) []PeerCount {
	sel := newTopSel(k)
	for id, n := range peers {
		if n != 0 {
			sel.offer(uint64(id), n)
		}
	}
	out := make([]PeerCount, len(sel.ids))
	for i, id := range sel.ids {
		out[i] = PeerCount{Peer: int(id), Msgs: sel.msgs[i]}
	}
	return out
}

func topEdges(edges map[uint64]uint64, k int) []EdgeCount {
	sel := newTopSel(k)
	for e, n := range edges {
		sel.offer(e, n)
	}
	out := make([]EdgeCount, len(sel.ids))
	for i, e := range sel.ids {
		from, to := edgeEndpoints(e)
		out[i] = EdgeCount{From: from, To: to, Msgs: sel.msgs[i]}
	}
	return out
}
