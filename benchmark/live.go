package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"vdm/internal/core"
	"vdm/internal/flow"
	"vdm/internal/live"
	"vdm/internal/overlay"
	"vdm/internal/transport"
	"vdm/internal/wire"
)

// liveSize is the input shape of a live-* workload: a source and Joiners
// receivers on loopback UDP sockets, an open-loop stream of RateCPS chunks
// per second. Traffic crosses the host's loopback interface, never a real
// link.
type liveSize struct {
	Joiners  int     `json:"joiners"`
	Degree   int     `json:"max_degree"`
	PayloadB int     `json:"payload_bytes"`
	RateCPS  int     `json:"rate_chunks_per_s"`
	WarmupS  float64 `json:"warmup_s"`
	// LossPct is the seeded Bernoulli drop applied to stream-data frames
	// (DataChunk and Parity) on every link; control and acks pass.
	LossPct float64 `json:"loss_pct"`
	// Setups is how many times the cluster is booted and joined per
	// session; the first one carries the stream, setup_s is their median.
	Setups int `json:"setups"`
	// LimitP99MS is the latency limit: a stream whose hop_latency_p99_ms
	// exceeds it fails its output check. It is far above HEAD's figures
	// (2.6 ms clean, 15 ms lossy, 23 ms and 218 ms in a bad session), so it
	// catches a backlog growing under the open loop or a repair path that
	// stopped answering, not a small regression; the driver has no finer
	// gate on a live-only metric.
	LimitP99MS float64 `json:"limit_hop_latency_p99_ms"`
}

// liveRun is everything one live session measured.
type liveRun struct {
	setupS []float64
	joinS  float64

	receivers          int
	emitted            int64  // chunks emitted in the measured phase
	delivered, missing int64  // unique deliveries / absent (receiver, seq) pairs
	missingAt          string // which receivers miss how much, for the problem report
	dups, repaired     int64
	parentChanges      int
	streamWallS, emitS float64
	// cpuUSPerDelivery is process CPU per chunk delivery: the median over
	// one-second windows of the emit phase, so a burst of interference
	// from the host moves a few windows and not the figure.
	cpuUSPerDelivery, peakHeapMB float64
	hopP50MS, hopP99MS           float64
	latenessP99MS                float64
	depthMax, mailboxHW          int
	traceSamples                 int64
	rt                           rtSnap
	// counters are the transport and flow counters (see cluster.counters)
	// over the emit phase.
	counters map[string]float64
}

// receiver accumulates one joiner's deliveries. The chunk observer runs on
// that peer's mailbox goroutine, the only writer; the harness reads after
// a View() call on the same peer, which orders the two.
type receiver struct {
	count   []uint8 // deliveries per sequence number
	latNS   []int64 // arrival − due, per sequence number
	warm    int64   // sequence numbers below this belong to the warm-up
	highest int64
	late    int64 // measured deliveries below the highest sequence seen: repaired gaps
	stray   int64 // sequence numbers outside the emitted range
	traced  int64
	depth   int
	parent  overlay.NodeID
}

type cluster struct {
	epoch     time.Time
	src       *live.Peer
	trs       []*transport.UDP // [0] is the source's
	peers     []*live.Peer     // joiners
	recvs     []*receiver      // parallel to peers
	delivered atomic.Int64
	lastRecv  atomic.Int64 // ns since epoch of the latest delivery
	closers   []func()
}

func (cl *cluster) close() {
	for i := len(cl.closers) - 1; i >= 0; i-- {
		cl.closers[i]()
	}
}

// bootCluster opens the sockets, bootstraps every joiner through
// Hello/Welcome, starts the joins and waits until every joiner is
// connected. It returns the time from the first StartJoin to that point.
func bootCluster(sz liveSize, warm, n int, traceSample int) (*cluster, float64, error) {
	cl := &cluster{epoch: time.Now()}
	// Per-child pacing is left unbounded so the stream measures the
	// transport, not the pacer ceiling; window, pushback and repair run at
	// their defaults.
	flowCfg := &flow.Config{RateChunksPerS: -1}
	newNode := func(bus overlay.Bus, id overlay.NodeID) *core.Node {
		return core.New(bus, overlay.PeerConfig{
			ID: id, Source: 0, MaxDegree: sz.Degree, IsSource: id == 0, Flow: flowCfg,
		}, core.Config{}, nil)
	}
	fail := func(err error) (*cluster, float64, error) {
		cl.close()
		return nil, 0, err
	}

	srcTr, err := transport.NewUDP("127.0.0.1:0", transport.UDPConfig{})
	if err != nil {
		return fail(err)
	}
	cl.closers = append(cl.closers, func() { srcTr.Close() })
	cl.trs = append(cl.trs, srcTr)
	live.NewSourceSession(srcTr, cl.epoch)
	cl.src = live.NewPeer(srcTr, cl.epoch, func(bus overlay.Bus) overlay.Protocol {
		n := newNode(bus, 0)
		n.Base().SetTraceSampling(traceSample)
		return n
	})
	cl.closers = append(cl.closers, cl.src.Stop)

	var joinStart time.Time
	for i := 0; i < sz.Joiners; i++ {
		tr, err := transport.NewUDP("127.0.0.1:0", transport.UDPConfig{})
		if err != nil {
			return fail(err)
		}
		cl.closers = append(cl.closers, func() { tr.Close() })
		cl.trs = append(cl.trs, tr)
		sess, err := live.JoinSession(tr, srcTr.LocalAddr(), 10*time.Second)
		if err != nil {
			return fail(fmt.Errorf("joiner %d: %w", i, err))
		}
		id := sess.ID()
		rc := &receiver{count: make([]uint8, warm+n), latNS: make([]int64, warm+n), warm: int64(warm), highest: -1}
		cl.recvs = append(cl.recvs, rc)
		p := live.NewPeer(tr, cl.epoch, func(bus overlay.Bus) overlay.Protocol {
			n := newNode(bus, id)
			n.Base().SetChunkObserver(func(c overlay.DataChunk) {
				now := time.Since(cl.epoch)
				if c.Seq < 0 || c.Seq >= int64(len(rc.count)) || len(c.Payload) < 8 {
					rc.stray++
					return
				}
				if rc.count[c.Seq] < 255 {
					rc.count[c.Seq]++
				}
				rc.latNS[c.Seq] = int64(now) - int64(binary.BigEndian.Uint64(c.Payload))
				if c.Seq < rc.highest {
					if c.Seq >= rc.warm {
						rc.late++
					}
				} else {
					rc.highest = c.Seq
				}
				cl.delivered.Add(1)
				cl.lastRecv.Store(int64(now))
			})
			if traceSample > 0 {
				n.Base().SetChunkTraceObserver(func(overlay.ChunkTraceSample) { rc.traced++ })
			}
			return n
		})
		cl.closers = append(cl.closers, p.Stop)
		if i == 0 {
			joinStart = time.Now()
		}
		p.StartJoin()
		cl.peers = append(cl.peers, p)
	}

	deadline := time.Now().Add(30 * time.Second)
	for _, p := range cl.peers {
		for !p.Connected() {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("joiners did not all connect within 30 s"))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return cl, time.Since(joinStart).Seconds(), nil
}

// snapshotTree records every receiver's parent and depth.
func (cl *cluster) snapshotTree() (depthMax int) {
	parent := make(map[overlay.NodeID]overlay.NodeID, len(cl.peers))
	for i, p := range cl.peers {
		cl.recvs[i].parent = p.View().ParentID()
		parent[p.ID()] = cl.recvs[i].parent
	}
	for i, p := range cl.peers {
		d, cur := 1, p.ID()
		for parent[cur] != 0 && parent[cur] != overlay.None && d <= len(cl.peers) {
			cur = parent[cur]
			d++
		}
		cl.recvs[i].depth = d
		if d > depthMax {
			depthMax = d
		}
	}
	return depthMax
}

// splitmix64 is the stateless mixer behind the loss filter's draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// installLoss drops stream-data frames on every socket with probability
// pct/100. Each socket draws from its own counter-keyed stream under the
// workload seed, so the drop pattern is a function of the seed and of the
// order in which the socket sent its frames.
func (cl *cluster) installLoss(seed int64, pct float64) {
	threshold := uint64(pct / 100 * float64(1<<63) * 2)
	for i, tr := range cl.trs {
		var n atomic.Uint64
		key := splitmix64(uint64(seed)) ^ uint64(i)<<48
		tr.SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
			if f.Kind != wire.KindMsg || !overlay.IsStreamData(f.Msg) {
				return false
			}
			return splitmix64(key+n.Add(1)) < threshold
		})
	}
}

// emit runs the open loop: chunk i of the call is due at start + i/rate
// whatever happened to the chunks before it, and carries its due time so
// receivers time it from when it should have been sent. It returns how
// late each emission ran against the schedule.
func (cl *cluster) emit(sz liveSize, firstSeq, n int) (start time.Time, lateness []float64) {
	interval := time.Second / time.Duration(sz.RateCPS)
	lateness = make([]float64, 0, n)
	start = time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateness = append(lateness, float64(time.Since(due))/1e6)
		// A fresh payload per chunk: the retransmit cache keeps the slice.
		payload := make([]byte, sz.PayloadB)
		binary.BigEndian.PutUint64(payload, uint64(due.Sub(cl.epoch)))
		cl.src.EmitData(overlay.DataChunk{Seq: int64(firstSeq + i), Payload: payload})
	}
	return start, lateness
}

// cpuWindows samples process CPU time and the delivery count at a fixed
// period.
type cpuWindows struct {
	stop chan struct{}
	done chan []float64
}

func (cl *cluster) startCPUWindows(every time.Duration) *cpuWindows {
	w := &cpuWindows{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		var perDelivery []float64
		cpu0, n0 := cpuSeconds(), cl.delivered.Load()
		window := func() {
			cpu1, n1 := cpuSeconds(), cl.delivered.Load()
			if n1 > n0 {
				perDelivery = append(perDelivery, (cpu1-cpu0)*1e6/float64(n1-n0))
			}
			cpu0, n0 = cpu1, n1
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				window() // the partial last window: the only one of a stream shorter than the period
				w.done <- perDelivery
				return
			case <-tick.C:
				window()
			}
		}
	}()
	return w
}

// median stops the sampler and returns the median window.
func (w *cpuWindows) median() float64 {
	close(w.stop)
	return median(<-w.done)
}

// settle waits until no delivery has arrived for one quiet window, so
// chunks in flight or in repair are not counted as lost.
func (cl *cluster) settle(quiet, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if time.Since(cl.epoch)-time.Duration(cl.lastRecv.Load()) >= quiet {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// counters sums the data-plane and flow counters the layer metrics are
// built from, over every socket and every peer.
func (cl *cluster) counters() map[string]float64 {
	c := map[string]float64{}
	for _, tr := range cl.trs {
		d := tr.Dataplane()
		c["syscalls"] += float64(d.SendSyscalls + d.RecvSyscalls)
		c["frames"] += float64(d.SentFrames + d.RecvFrames)
		c["flushes"] += float64(d.Flushes)
		c["flushed_frames"] += float64(d.FlushedFrames)
		c["flush_wait_us"] += float64(d.FlushNanos) / 1e3
		c["queue_drops"] += float64(d.QueueDrops)
		c["fanout_encodes"] += float64(d.FanoutEncodes)
		c["fanout_frames"] += float64(d.FanoutFrames)
		c["ctrl_retransmits"] += float64(tr.Stats().Retransmits)
	}
	for _, p := range append([]*live.Peer{cl.src}, cl.peers...) {
		f := p.FlowStats()
		c["nacks"] += float64(f.NacksSent)
		c["retransmits_served"] += float64(f.RetransmitsServed)
		c["parity_sent"] += float64(f.ParitySent)
		c["fec_repairs"] += float64(f.FECRepairs)
		c["stall_pulls"] += float64(f.StallPulls)
		c["skipped_seqs"] += float64(f.SkippedSeqs)
		c["pace_drops"] += float64(f.PaceDrops)
		c["window_stalls"] += float64(f.WindowStalls)
	}
	return c
}

// runLive runs one session: set-up, a discarded warm-up, the measured
// open-loop stream of seconds length, a settle, the output checks, and
// then Setups-1 more set-ups for setup_s's median. traceSample > 0 turns on
// in-band chunk tracing at the source.
func runLive(sz liveSize, seed int64, seconds float64, traceSample int, spans *spanLog, run string) (*liveRun, error) {
	warm := int(sz.WarmupS * float64(sz.RateCPS))
	n := int(seconds * float64(sz.RateCPS))
	r := &liveRun{receivers: sz.Joiners, emitted: int64(n)}

	top, endTop := spans.begin(run, "live.session", 0)
	defer endTop()

	setup := func() (*cluster, error) {
		_, end := spans.begin(run, "live.setup", top)
		defer end()
		t0 := time.Now()
		c, joinS, err := bootCluster(sz, warm, n, traceSample)
		if err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if len(r.setupS) == 1 {
			r.joinS = joinS
		}
		return c, nil
	}
	cl, err := setup()
	if err != nil {
		return nil, err
	}
	if sz.LossPct > 0 {
		cl.installLoss(seed, sz.LossPct)
	}

	_, end := spans.begin(run, "live.warmup", top)
	cl.emit(sz, 0, warm)
	end()
	// The tree is read after the warm-up: a joiner that connected between a
	// parent and its child reports Connected() before the child has been
	// handed over, and that hand-over is part of set-up, not a parent change
	// during the stream.
	r.depthMax = cl.snapshotTree()

	_, end = spans.begin(run, "live.stream", top)
	before := cl.counters()
	runtime.GC() // the sample floor is this stream's live set, not set-up's garbage
	heap := startHeapSampler(50 * time.Millisecond)
	rt0 := takeRT()
	cpu := cl.startCPUWindows(time.Second)
	start, lateness := cl.emit(sz, warm, n)
	r.emitS = time.Since(start).Seconds()
	r.cpuUSPerDelivery = cpu.median()
	r.rt = takeRT().since(rt0)
	r.peakHeapMB = heap.peakMB()
	end()

	// Counters are read before the settle: once the stream stops, every
	// receiver's stall detector starts pulling, which is not repair work
	// the stream caused.
	r.counters = cl.counters()
	for name, v := range before {
		r.counters[name] -= v
	}

	_, end = spans.begin(run, "live.settle", top)
	cl.settle(600*time.Millisecond, 10*time.Second)
	end()
	r.streamWallS = (time.Duration(cl.lastRecv.Load()) - start.Sub(cl.epoch)).Seconds()

	// Output checks: every receiver handed every measured sequence number
	// to the application exactly once, and kept its parent throughout.
	hop := make([]float64, 0, n*sz.Joiners)
	r.mailboxHW = cl.src.MailboxHighWater()
	for i, p := range cl.peers {
		rc := cl.recvs[i]
		if p.View().ParentID() != rc.parent {
			r.parentChanges++
		}
		if hw := p.MailboxHighWater(); hw > r.mailboxHW {
			r.mailboxHW = hw
		}
		r.dups += rc.stray
		r.repaired += rc.late
		r.traceSamples += rc.traced
		missingBefore := r.missing
		for s := warm; s < warm+n; s++ {
			switch c := rc.count[s]; {
			case c == 0:
				r.missing++
			default:
				r.delivered++
				r.dups += int64(c - 1)
				hop = append(hop, float64(rc.latNS[s])/1e6/float64(rc.depth))
			}
		}
		if lost := r.missing - missingBefore; lost > 0 {
			r.missingAt += fmt.Sprintf(" node %d (depth %d, parent %d): %d;", p.ID(), rc.depth, rc.parent, lost)
		}
	}
	sort.Float64s(hop)
	r.hopP50MS, r.hopP99MS = quantile(hop, 0.50), quantile(hop, 0.99)
	sort.Float64s(lateness)
	r.latenessP99MS = quantile(lateness, 0.99)

	// The other set-ups run after the stream, so the clusters they tear
	// down leave nothing on the heap the stream was measured on.
	cl.close()
	for len(r.setupS) < sz.Setups {
		c, err := setup()
		if err != nil {
			return nil, err
		}
		c.close()
	}
	return r, nil
}
