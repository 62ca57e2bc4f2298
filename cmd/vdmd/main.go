// Command vdmd runs one live VDM peer over UDP: either the session source
// (rendezvous + stream origin) or a joining member. Peers discover each
// other through the source's Hello/Welcome directory and then speak the
// overlay protocol directly, peer to peer.
//
// Start a source streaming 2 chunks/s with the admin endpoint on :8080:
//
//	vdmd -listen 127.0.0.1:9000 -source -rate 2 -admin 127.0.0.1:8080
//
// Join from two more terminals:
//
//	vdmd -listen 127.0.0.1:9001 -join 127.0.0.1:9000
//	vdmd -listen 127.0.0.1:9002 -join 127.0.0.1:9000
//
// The admin endpoint serves /metrics (Prometheus text), /debug/vars
// (JSON snapshot of the tree view and counters) and /debug/pprof; on the
// source it additionally serves /tree (the live tree reconstructed from
// the peers' StatusReports, with per-peer health and online quality
// metrics), /edges (per-edge flow health attributed from both endpoints'
// telemetry) and /health (200 while every peer is fresh and attached, 503
// otherwise). -report tunes how often peers send those StatusReports;
// -trace writes the structured protocol event stream as JSONL, and
// -tracesample N makes the source tag every Nth chunk with an in-band
// trace so chunk_path events record per-edge latency and hop depth.
//
// Ctrl-C leaves the session gracefully (children are pointed at their
// grandparent before the process exits) and logs a final status and
// counters snapshot.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vdm/internal/core"
	"vdm/internal/flow"
	"vdm/internal/live"
	"vdm/internal/obs"
	"vdm/internal/obs/tree"
	"vdm/internal/overlay"
	"vdm/internal/rng"
	"vdm/internal/transport"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:9000", "UDP address to bind")
		source  = flag.Bool("source", false, "run as the session source")
		join    = flag.String("join", "", "source address to join (required unless -source)")
		degree  = flag.Int("degree", 4, "maximum child count")
		gamma   = flag.Float64("gamma", 0, "VDM collinearity threshold (0 = default)")
		foster  = flag.Bool("foster", false, "foster quick-start join")
		refine  = flag.Float64("refine", 0, "refinement period in seconds (0 = off)")
		rate    = flag.Float64("rate", 1, "source stream rate (chunks/s)")
		status  = flag.Duration("status", 5*time.Second, "status log interval (0 = quiet)")
		report  = flag.Duration("report", 5*time.Second, "tree-health StatusReport interval to the source (0 = off)")
		seed    = flag.Int64("seed", 1, "refinement-jitter seed")
		timeout = flag.Duration("timeout", 10*time.Second, "join handshake timeout")
		admin   = flag.String("admin", "", "admin HTTP address serving /metrics, /debug/vars, /debug/pprof (empty = off)")
		traceTo = flag.String("trace", "", "write protocol trace events as JSONL to this file (empty = off)")
		logFmt  = flag.String("log", "text", "log format: text | json")
		flowOn  = flag.Bool("flow", false, "enable the reliable data plane: paced flow control, ack-clocked windows, NACK/FEC repair")
		pace    = flag.Float64("pace", 0, "with -flow: per-child pacing rate in chunks/s (0 = default, negative = unpaced)")
		fec     = flag.Int("fec", 0, "with -flow: emit one XOR parity per this many chunks (0 = default, negative = off)")
		tsample = flag.Int("tracesample", 0, "on the source: attach an in-band trace tag to every Nth chunk (0 = off)")
	)
	flag.Parse()

	log, err := newLogger(*logFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdmd:", err)
		os.Exit(2)
	}

	if !*source && *join == "" {
		fmt.Fprintln(os.Stderr, "vdmd: need -source or -join <addr>")
		os.Exit(2)
	}

	tr, err := transport.NewUDP(*listen, transport.UDPConfig{})
	if err != nil {
		log.Error("bind failed", "err", err)
		os.Exit(1)
	}
	defer tr.Close()

	// Observability plumbing: one registry, one event sink. Protocol and
	// transport events feed the registry through the metrics sink; -trace
	// tees the same stream to a JSONL file.
	reg := obs.NewRegistry()
	sink := obs.NewMetricsSink(reg)
	var traceFile *os.File
	if *traceTo != "" {
		traceFile, err = os.Create(*traceTo)
		if err != nil {
			log.Error("trace file", "err", err)
			os.Exit(1)
		}
		defer traceFile.Close()
		sink = obs.TeeSink(sink, obs.NewJSONLSink(traceFile))
	}

	// The session epoch is the shared clock zero: the source mints it and
	// every Welcome carries it, so a joiner's trace timestamps — and the
	// in-band chunk-trace origins behind the per-edge latency numbers —
	// line up with the source's.
	epoch := time.Now()
	clock := func() float64 { return time.Since(epoch).Seconds() }

	var id overlay.NodeID
	if *source {
		sess := live.NewSourceSession(tr, epoch)
		id = sess.ID()
		log.Info("source up", "addr", tr.LocalAddr(), "node", int64(id))
	} else {
		sess, err := live.JoinSession(tr, *join, *timeout)
		if err != nil {
			log.Error("join failed", "err", err)
			os.Exit(1)
		}
		id = sess.ID()
		epoch = sess.Epoch()
		log.Info("joined session", "source", *join, "node", int64(id), "addr", tr.LocalAddr())
	}
	log = log.With("node", int64(id))
	tr.SetTracer(obs.NewTracer(sink, "vdm", id, clock))
	obs.RegisterCounters(reg, "vdm_transport", tr.Counters(), obs.NodeLabel(id))

	cfg := core.Config{
		Gamma:         *gamma,
		RefinePeriodS: *refine,
		FosterJoin:    *foster,
	}
	var rnd *rng.Stream
	if *refine > 0 {
		rnd = rng.New(*seed)
	}
	// The source aggregates every peer's StatusReports into the live tree
	// view served on /tree and /health.
	var agg *tree.Aggregator
	if *source && *report > 0 {
		agg = tree.New(tree.Config{
			Source:      0,
			StaleAfterS: 3 * report.Seconds(),
			Now:         clock,
		})
		agg.RegisterMetrics(reg)
	}
	// The reliable data plane is opt-in and session-wide: every member must
	// run the same -flow setting or paced senders will overrun plain ones.
	var flowCfg *flow.Config
	if *flowOn {
		flowCfg = &flow.Config{RateChunksPerS: *pace, FECGroup: *fec}
	}
	peer := live.NewPeer(tr, epoch, func(bus overlay.Bus) overlay.Protocol {
		n := core.New(bus, overlay.PeerConfig{
			ID:        id,
			Source:    0,
			MaxDegree: *degree,
			IsSource:  *source,
			Flow:      flowCfg,
		}, cfg, rnd)
		n.SetTracer(obs.NewTracer(sink, "vdm", id, bus.Now))
		if *report > 0 {
			if agg != nil {
				n.Base().SetStatusHandler(agg.Handler())
			}
			n.Base().EnableStatusReports(report.Seconds())
		}
		if *source {
			n.Base().SetTraceSampling(*tsample)
		}
		return n
	})
	peer.SetTracer(obs.NewTracer(sink, "vdm", id, clock))
	// The standard families' HELP text lives in internal/obs so every
	// binary exposing them documents them identically; the help-lint test
	// fails `make check` if a family is missing from those maps.
	obs.RegisterStandardHelp(reg)
	obs.RegisterDataplaneHelp(reg)
	obs.RegisterFlowHelp(reg)
	reg.RegisterCollector(func() []obs.Sample {
		s := tr.Stats()
		dp := tr.Dataplane()
		nl := obs.NodeLabel(id)
		return []obs.Sample{
			{Name: "vdm_udp_retransmits_sent_total", Labels: []obs.Label{nl}, Value: float64(s.Retransmits)},
			{Name: "vdm_udp_dedupe_dropped_total", Labels: []obs.Label{nl}, Value: float64(s.DedupeDrops)},
			{Name: "vdm_udp_acks_received_total", Labels: []obs.Label{nl}, Value: float64(s.AcksReceived)},
			{Name: "vdm_mailbox_highwater", Labels: []obs.Label{nl}, Value: float64(peer.MailboxHighWater())},
			{Name: "vdm_dataplane_send_syscalls_total", Labels: []obs.Label{nl}, Value: float64(dp.SendSyscalls)},
			{Name: "vdm_dataplane_recv_syscalls_total", Labels: []obs.Label{nl}, Value: float64(dp.RecvSyscalls)},
			{Name: "vdm_dataplane_sent_frames_total", Labels: []obs.Label{nl}, Value: float64(dp.SentFrames)},
			{Name: "vdm_dataplane_recv_frames_total", Labels: []obs.Label{nl}, Value: float64(dp.RecvFrames)},
			{Name: "vdm_dataplane_sent_datagrams_total", Labels: []obs.Label{nl}, Value: float64(dp.SentDatagrams)},
			{Name: "vdm_dataplane_recv_datagrams_total", Labels: []obs.Label{nl}, Value: float64(dp.RecvDatagrams)},
			{Name: "vdm_dataplane_flushes_total", Labels: []obs.Label{nl}, Value: float64(dp.Flushes)},
			{Name: "vdm_dataplane_flushed_frames_total", Labels: []obs.Label{nl}, Value: float64(dp.FlushedFrames)},
			{Name: "vdm_dataplane_flush_wait_seconds_total", Labels: []obs.Label{nl}, Value: float64(dp.FlushNanos) / 1e9},
			{Name: "vdm_dataplane_queue_drops_total", Labels: []obs.Label{nl}, Value: float64(dp.QueueDrops)},
			{Name: "vdm_dataplane_fanout_encodes_total", Labels: []obs.Label{nl}, Value: float64(dp.FanoutEncodes)},
			{Name: "vdm_dataplane_fanout_frames_total", Labels: []obs.Label{nl}, Value: float64(dp.FanoutFrames)},
			{Name: "vdm_dataplane_max_batch", Labels: []obs.Label{nl}, Value: float64(dp.MaxBatch)},
		}
	})
	if *flowOn {
		reg.RegisterCollector(func() []obs.Sample {
			fs := peer.FlowStats()
			nl := obs.NodeLabel(id)
			return []obs.Sample{
				{Name: "vdm_flow_acks_sent_total", Labels: []obs.Label{nl}, Value: float64(fs.AcksSent)},
				{Name: "vdm_flow_acks_recv_total", Labels: []obs.Label{nl}, Value: float64(fs.AcksRecv)},
				{Name: "vdm_flow_nacks_sent_total", Labels: []obs.Label{nl}, Value: float64(fs.NacksSent)},
				{Name: "vdm_flow_nacks_recv_total", Labels: []obs.Label{nl}, Value: float64(fs.NacksRecv)},
				{Name: "vdm_flow_retransmits_served_total", Labels: []obs.Label{nl}, Value: float64(fs.RetransmitsServed)},
				{Name: "vdm_flow_parity_sent_total", Labels: []obs.Label{nl}, Value: float64(fs.ParitySent)},
				{Name: "vdm_flow_parity_recv_total", Labels: []obs.Label{nl}, Value: float64(fs.ParityRecv)},
				{Name: "vdm_flow_fec_repairs_total", Labels: []obs.Label{nl}, Value: float64(fs.FECRepairs)},
				{Name: "vdm_flow_stall_pulls_total", Labels: []obs.Label{nl}, Value: float64(fs.StallPulls)},
				{Name: "vdm_flow_skipped_seqs_total", Labels: []obs.Label{nl}, Value: float64(fs.SkippedSeqs)},
				{Name: "vdm_flow_pushbacks_sent_total", Labels: []obs.Label{nl}, Value: float64(fs.PushbacksSent)},
				{Name: "vdm_flow_pushbacks_recv_total", Labels: []obs.Label{nl}, Value: float64(fs.PushbacksRecv)},
				{Name: "vdm_flow_pace_drops_total", Labels: []obs.Label{nl}, Value: float64(fs.PaceDrops)},
				{Name: "vdm_flow_window_stalls_total", Labels: []obs.Label{nl}, Value: float64(fs.WindowStalls)},
			}
		})
	}

	if *admin != "" {
		mux := obs.AdminMux(reg, func() map[string]any {
			v := peer.View()
			s := peer.Stats()
			return map[string]any{
				"node":      int64(id),
				"uptime_s":  clock(),
				"connected": v.Connected(),
				"parent":    int64(v.ParentID()),
				"children":  v.ChildIDs(),
				"received":  s.Received,
				"forwarded": s.Forwarded,
				"dups":      s.Dups,
				"orphaned":  s.OrphanCount,
			}
		})
		if agg != nil {
			agg.Register(mux)
		}
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Error("admin bind failed", "err", err)
			os.Exit(1)
		}
		log.Info("admin endpoint up", "addr", ln.Addr().String())
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				log.Error("admin server stopped", "err", err)
			}
		}()
	}

	if !*source {
		peer.StartJoin()
	}

	stop := make(chan struct{})
	if *source && *rate > 0 {
		go func() {
			tick := time.NewTicker(time.Duration(float64(time.Second) / *rate))
			defer tick.Stop()
			var seq int64
			for {
				select {
				case <-tick.C:
					peer.EmitChunk(seq)
					seq++
				case <-stop:
					return
				}
			}
		}()
	}
	if *status > 0 {
		go func() {
			tick := time.NewTicker(*status)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					logStatus(log, peer, tr)
				case <-stop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)
	// Final snapshot before the state is torn down, so an operator's last
	// log lines hold the session's closing numbers.
	logStatus(log, peer, tr)
	log.Info("leaving session")
	peer.Leave()
	// Give the Detach/LeaveNotify frames a moment to go out before the
	// socket closes.
	time.Sleep(200 * time.Millisecond)
	if traceFile != nil {
		if err := traceFile.Sync(); err != nil {
			log.Error("trace flush", "err", err)
		}
	}
}

func newLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("unknown -log %q (want text or json)", format)
	}
	return slog.New(h).With("component", "vdmd"), nil
}

// logStatus emits one structured status line: tree position, stream
// accounting, transport counters, reliability stats.
func logStatus(log *slog.Logger, p *live.Peer, tr *transport.UDP) {
	v := p.View()
	s := p.Stats()
	c := tr.Counters().Snapshot()
	u := tr.Stats()
	log.Info("status",
		"connected", v.Connected(),
		"parent", int64(v.ParentID()),
		"children", v.ChildIDs(),
		"recv", s.Received,
		"fwd", s.Forwarded,
		"dups", s.Dups,
		"orphaned", s.OrphanCount,
		"ctrl", c.Ctrl,
		"data", c.Data,
		"ctrl_drops", c.CtrlDrops,
		"retransmits", u.Retransmits,
		"dedupe_drops", u.DedupeDrops,
		"mailbox_hw", p.MailboxHighWater(),
	)
	if fs := p.FlowStats(); fs.Enabled {
		log.Info("flow",
			"acks_recv", fs.AcksRecv,
			"nacks_recv", fs.NacksRecv,
			"retrans_served", fs.RetransmitsServed,
			"fec_repairs", fs.FECRepairs,
			"stall_pulls", fs.StallPulls,
			"pushbacks_recv", fs.PushbacksRecv,
			"pace_drops", fs.PaceDrops,
			"repair_nbr", int64(fs.RepairNeighbor),
		)
	}
}
