package sim

import (
	"math"
	"time"

	"vdm/internal/metrics"
	"vdm/internal/obs/simprof"
	"vdm/internal/overlay"
)

// ProgressInfo is one progress callback's payload.
type ProgressInfo struct {
	T            float64 // virtual time reached
	Events       uint64  // cumulative events fired
	Epochs       uint64  // cumulative epoch barriers (0 on the serial engine)
	EventsPerSec float64 // wall-clock event throughput since the previous callback
}

// progressReporter rate-limits Progress callbacks and computes the
// wall-clock event throughput between them. A nil reporter is inert.
type progressReporter struct {
	fn         func(ProgressInfo)
	everyS     float64
	lastT      float64
	lastWall   time.Time
	lastEvents uint64
}

func newProgressReporter(cfg Config) *progressReporter {
	if cfg.Progress == nil {
		return nil
	}
	return &progressReporter{
		fn:       cfg.Progress,
		everyS:   cfg.ProgressEveryS,
		lastT:    math.Inf(-1),
		lastWall: time.Now(),
	}
}

func (p *progressReporter) report(t float64, events, epochs uint64) {
	if p == nil || t-p.lastT < p.everyS {
		return
	}
	now := time.Now()
	var rate float64
	if d := now.Sub(p.lastWall).Seconds(); d > 0 {
		rate = float64(events-p.lastEvents) / d
	}
	p.fn(ProgressInfo{T: t, Events: events, Epochs: epochs, EventsPerSec: rate})
	p.lastT, p.lastWall, p.lastEvents = t, now, events
}

// newRecorder builds the session's flight recorder with one send probe
// attached per queue, or returns nil when profiling is off (no Profile
// options or no destination writer).
func (s *session) newRecorder(engine string, shards int, lookaheadS float64) *simprof.Recorder {
	cfg := s.cfg
	if cfg.Profile == nil || cfg.Profile.W == nil {
		return nil
	}
	rec := simprof.NewRecorder(*cfg.Profile, simprof.RunInfo{
		Engine:     engine,
		Shards:     shards,
		Pool:       s.scn.PoolSize,
		LookaheadS: lookaheadS,
		Protocol:   string(cfg.Protocol),
		Nodes:      cfg.Nodes,
		Seed:       cfg.Seed,
		DurationS:  cfg.DurationS,
	}, len(s.sims))
	for i, n := range s.nets {
		n.SetSendProbe(rec.Probe(i))
	}
	return rec
}

// flush cuts a flight-recorder record at virtual time t from the state of
// every queue (states is the caller's scratch, one entry per queue).
func (s *session) flush(rec *simprof.Recorder, t float64, states []simprof.ShardState) {
	for i, q := range s.sims {
		states[i] = simprof.ShardState{
			Processed:  q.Processed(),
			Deliveries: s.nets[i].Deliveries(),
			Queue:      q.Pending(),
			Free:       q.FreeLen(),
		}
	}
	rec.Flush(t, states, s.protoSample)
}

// protoSample takes the flight recorder's protocol-level sample: live
// population and attachment, session-cumulative orphan/reconnect counts,
// and a tree cost/depth pass over the reachable peers.
func (s *session) protoSample() simprof.Proto {
	var p simprof.Proto
	views := s.views()
	p.Alive = len(views)
	chains := metrics.ViewChains(views, 0)

	var depthSum, reachNonSrc int
	for i, v := range views {
		if v.IsSource() {
			p.Reachable++
			continue
		}
		if v.ParentID() == overlay.None {
			p.Unattached++
			continue
		}
		d := chains.Depth(i)
		if d < 0 {
			continue
		}
		p.Reachable++
		reachNonSrc++
		depthSum += d
		p.DepthMax = max(p.DepthMax, d)
		p.TreeCostMS += s.u.BaseRTT(int(v.ID()), int(v.ParentID()))
	}
	if reachNonSrc > 0 {
		p.DepthMean = float64(depthSum) / float64(reachNonSrc)
	}

	for _, peer := range s.all {
		if peer == nil {
			continue
		}
		st := peer.Stats()
		p.Orphans += st.OrphanCount
		p.Reconnects += len(st.Reconnects)
	}
	return p
}

// drive is the single-queue driver: it schedules the measurements on the
// queue and steps it to the session end through interval boundaries — one
// step without profiling or progress reporting. Stepping keeps the total
// event order (Run(t1); Run(t2) fires exactly the events one Run(t2)
// would, in the same sequence); at each boundary it cuts a
// flight-recorder record and/or a progress callback.
func (s *session) drive() error {
	cfg, q := s.cfg, s.sims[0]
	for _, mt := range s.scn.MeasureTimes {
		t := mt
		q.At(t, func() {
			if first := s.measure(t); first != nil {
				q.After(5, func() { s.recheck(t, first) })
			}
		})
	}

	rec := s.newRecorder("serial", 0, math.Inf(1))
	prog := newProgressReporter(cfg)
	step := cfg.DurationS
	if rec != nil {
		step = rec.IntervalS()
	}
	if prog != nil {
		if prog.everyS > 0 {
			if prog.everyS < step {
				step = prog.everyS
			}
		} else if step > 1 {
			step = 1
		}
	}

	states := make([]simprof.ShardState, 1)
	for t := step; ; t += step {
		if t > cfg.DurationS {
			t = cfg.DurationS
		}
		q.Run(t)
		if rec != nil && (rec.Due(t) || t == cfg.DurationS) {
			s.flush(rec, t, states)
		}
		prog.report(t, q.Processed(), 0)
		if t == cfg.DurationS {
			break
		}
	}
	if rec != nil {
		return rec.Close()
	}
	return nil
}

// epochSampleEvery is the flight recorder's epoch-timing sample rate:
// wall clocks are read on every Nth barrier round and the busy/wait
// totals scaled back up at flush. The engine runs hundreds of thousands
// of sub-millisecond epochs per session, so timing each one would cost
// more than everything it measures; at 1-in-8 the per-interval estimate
// still averages thousands of sampled rounds.
const epochSampleEvery = 8

// shardProf couples the flight recorder to the sharded controller: it
// tracks per-worker cumulative busy-time snapshots between barriers and
// cuts records at flush barriers. A nil *shardProf is inert, so the
// controller calls it unconditionally.
type shardProf struct {
	rec       *simprof.Recorder
	prevBusy  []int64
	busyDelta []int64
	states    []simprof.ShardState
	lastT     float64
	epochIdx  uint64
}

func newShardProf(rec *simprof.Recorder, shards int) *shardProf {
	if rec == nil {
		return nil
	}
	return &shardProf{
		rec:       rec,
		prevBusy:  make([]int64, shards),
		busyDelta: make([]int64, shards),
		states:    make([]simprof.ShardState, shards),
	}
}

// beginEpoch decides whether the coming barrier round is timing-sampled
// and publishes the decision to the workers (via ss.timeEpoch, ordered by
// the command-channel sends). Nil-safe: off means never sampled.
func (sp *shardProf) beginEpoch(ss *controller) bool {
	if sp == nil {
		return false
	}
	timed := sp.epochIdx%epochSampleEvery == 0
	sp.epochIdx++
	ss.timeEpoch = timed
	return timed
}

// epochWall converts a sampled round's start time into the wall-clock
// argument noteEpoch expects (negative = round not sampled).
func epochWall(timed bool, t0 time.Time) int64 {
	if !timed {
		return -1
	}
	return int64(time.Since(t0))
}

// noteEpoch folds one barrier round ending at virtual time t. Worker
// busy-time fields are read after the done-channel handshake, which orders
// the reads after the workers' writes.
func (sp *shardProf) noteEpoch(ss *controller, t float64, moved int, wallNS int64) {
	if sp == nil {
		return
	}
	busy := sp.busyDelta[:0:0]
	if wallNS >= 0 {
		for i, w := range ss.workers {
			sp.busyDelta[i] = w.busyNS - sp.prevBusy[i]
			sp.prevBusy[i] = w.busyNS
		}
		busy = sp.busyDelta
	}
	adv := t - sp.lastT
	if sp.lastT > t {
		adv = 0
	}
	sp.rec.NoteEpoch(adv, moved, wallNS, busy)
	sp.lastT = t
}

// maybeFlush cuts a record at virtual time t when one is due (or forced,
// at the session end).
func (sp *shardProf) maybeFlush(ss *controller, t float64, force bool) {
	if sp == nil || (!force && !sp.rec.Due(t)) {
		return
	}
	ss.flush(sp.rec, t, sp.states)
}

func (sp *shardProf) close() error {
	if sp == nil {
		return nil
	}
	return sp.rec.Close()
}
