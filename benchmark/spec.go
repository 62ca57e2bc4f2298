package main

// This file is the benchmark's contract in code: the five workloads, the
// twelve end-to-end metrics with their regression bounds, and the
// per-layer metric names. BENCHMARK.json at the repository root is the
// same contract as the driver reads it; smoke_test.go fails when the two
// drift.

// metricDef names one metric. An end-to-end metric has two regression
// bounds, each the share of the baseline median by which it may get worse
// (an absolute amount when Abs is set), and Sim and Live say which
// workloads report it.
//
// Bound is the issue's, and -compare applies it to two results of one
// machine and one seed: where a side's own spread exceeds it, the verdict
// is "unresolved", not a wider bound.
//
// Driver is the bound BENCHMARK.json fixes for the driver of this
// repository's PRs; 0 means the driver cannot gate the metric, which must be
// defined and never zero on all five workloads. The driver compares runs of
// different seeds made over an hour and refuses a benchmark whose
// inter-quartile spread exceeds the bound, so Driver cannot be smaller than
// what the reference box repeats to (README.md has the measurements), and
// 0.25 is the most the driver allows.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Abs    bool
	Sim    bool
	Live   bool
	Driver float64
}

// endToEnd lists what a user of either product sees. One unit of work —
// the "event" of events_per_s and the "delivery" of cpu_us_per_delivery —
// is a simulated event fired by the engine on sim-* and a chunk handed to
// a receiver's application on live-*. On live-* the open loop fixes wall_s
// and events_per_s: they move only when deliveries go missing.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15, Sim: true, Live: true, Driver: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10, Sim: true, Live: true, Driver: 0.25},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Sim: true, Live: true, Driver: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10, Sim: true, Live: true, Driver: 0.10},
	{Name: "cpu_us_per_delivery", Unit: "us", Better: "lower", Bound: 0.10, Sim: true, Live: true, Driver: 0.25},
	{Name: "tree_stress", Unit: "ratio", Better: "lower", Bound: 0.01, Sim: true},
	{Name: "tree_stretch", Unit: "ratio", Better: "lower", Bound: 0.01, Sim: true},
	{Name: "stream_loss_pct", Unit: "%", Better: "lower", Bound: 0.01, Sim: true},
	{Name: "goodput_mbps", Unit: "Mbit/s", Better: "higher", Bound: 0.02, Live: true},
	{Name: "hop_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Live: true},
	{Name: "hop_latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.10, Live: true},
	{Name: "failed_share", Unit: "fraction", Better: "lower", Bound: failedShareBound, Abs: true, Sim: true, Live: true},
}

// failedShareBound is failed_share's bound, and the share of a stream's
// deliveries that may be missing before its output check fails.
const failedShareBound = 0.001

// perLayer lists the layer metrics in the order the README explains them.
// A metric of a layer the workload does not run reads 0.
var perLayer = []metricDef{
	{Name: "eventq.events", Unit: "count", Better: "lower"},
	{Name: "eventq.timers", Unit: "count", Better: "lower"},
	{Name: "eventq.deliveries", Unit: "count", Better: "lower"},
	{Name: "eventq.depth_max", Unit: "count", Better: "lower"},
	{Name: "eventq.free_max", Unit: "count", Better: "lower"},
	{Name: "eventq.push_pop_ns", Unit: "ns", Better: "lower"},

	{Name: "overlay.msgs_total", Unit: "count", Better: "lower"},
	{Name: "overlay.msg_share.ping_pong", Unit: "ratio", Better: "lower"},
	{Name: "overlay.msg_share.info", Unit: "ratio", Better: "lower"},
	{Name: "overlay.msg_share.data", Unit: "ratio", Better: "higher"},
	{Name: "overlay.hot_peer_share", Unit: "ratio", Better: "lower"},

	{Name: "core.join_contacts_per_peer", Unit: "count", Better: "lower"},
	{Name: "core.startup_avg_s", Unit: "s", Better: "lower"},
	{Name: "core.reconnects", Unit: "count", Better: "lower"},
	{Name: "core.join_ns", Unit: "ns", Better: "lower"},

	{Name: "underlay.oneway_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "underlay.oneway_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "underlay.rtt_ns", Unit: "ns", Better: "lower"},

	{Name: "sim.join_wall_s", Unit: "s", Better: "lower"},
	{Name: "sim.steady_wall_s", Unit: "s", Better: "lower"},
	{Name: "sim.join_wall_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.epochs", Unit: "count", Better: "lower"},
	{Name: "sim.barrier_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.cross_shard_msgs_per_epoch", Unit: "count", Better: "lower"},
	{Name: "sim.horizon_mean_ms", Unit: "ms", Better: "higher"},
	{Name: "sim.s2_over_serial_wall", Unit: "ratio", Better: "lower"},

	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_peer", Unit: "B", Better: "lower"},

	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_roundtrip", Unit: "count", Better: "lower"},

	{Name: "transport.syscalls_per_packet", Unit: "ratio", Better: "lower"},
	{Name: "transport.frames_per_flush", Unit: "count", Better: "higher"},
	{Name: "transport.flush_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "transport.queue_drops", Unit: "count", Better: "lower"},
	{Name: "transport.ctrl_retransmits", Unit: "count", Better: "lower"},
	{Name: "transport.fanout_frames_per_encode", Unit: "ratio", Better: "higher"},

	{Name: "live.join_s", Unit: "s", Better: "lower"},
	{Name: "live.tree_depth_max", Unit: "count", Better: "lower"},
	{Name: "live.mailbox_highwater_max", Unit: "count", Better: "lower"},

	{Name: "flow.nacks_per_kchunk", Unit: "count", Better: "lower"},
	{Name: "flow.retransmits_served", Unit: "count", Better: "lower"},
	{Name: "flow.fec_repairs", Unit: "count", Better: "lower"},
	{Name: "flow.stall_pulls", Unit: "count", Better: "lower"},
	{Name: "flow.skipped_seqs", Unit: "count", Better: "lower"},
	{Name: "flow.pace_drops", Unit: "count", Better: "lower"},
	{Name: "flow.window_stalls", Unit: "count", Better: "lower"},
	{Name: "flow.repair_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "flow.window_add_ns", Unit: "ns", Better: "lower"},

	{Name: "loadgen.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

type plane int

const (
	planeSim plane = iota
	planeLive
)

// workload is one named set of inputs. Names are fixed; later issues cite
// them.
type workload struct {
	Name  string
	Why   string
	Plane plane
	Sim   simSize
	Live  liveSize
}

func (w workload) sizes() any {
	if w.Plane == planeSim {
		return w.Sim
	}
	return w.Live
}

// workloads returns the five workloads at full or toy (-smoke) size. With
// a 400 s churn interval the 300 s scale cell sees the join storm and no
// churn round, as the benchscale cell does.
//
// Both live streams run at 2000 chunks/s, so loss is the only difference
// between them, and the loss is 1%. The issue's inputs, 4000 chunks/s and 2%
// loss, are not used: there the repair path at HEAD stops a subtree
// receiving for the rest of the stream in about one run in eight, and at
// 2000 chunks/s and 2% still in about one in fifty (README.md). The
// driver's contract wants workloads on which no operation fails.
func workloads(smoke bool) []workload {
	cell := simSize{Peers: 20000, DurationS: 300, JoinPhaseS: 150, RateCPS: 0.2, ChurnPct: 5, IntervalS: 400, SettleS: 100}
	steady := simSize{Peers: 1000, DurationS: 900, JoinPhaseS: 100, RateCPS: 5, ChurnPct: 5, IntervalS: 400, SettleS: 100}
	clean := liveSize{Joiners: 12, Degree: 3, PayloadB: 256, RateCPS: 2000, WarmupS: 1, Setups: 15, LimitP99MS: 500}
	if smoke {
		cell.Peers, steady.Peers, steady.DurationS = 300, 200, 600
		clean.Joiners, clean.WarmupS, clean.Setups = 5, 0.2, 2
		clean.LimitP99MS = 5000 // a toy stream, possibly under the race detector
	}
	cellS2 := cell
	cellS2.Shards = 2
	lossy := clean
	lossy.LossPct = 1
	return []workload{
		{Name: "sim-scale-cell", Plane: planeSim, Sim: cell,
			Why: "serial engine; about 3/4 of wall is the source-rooted join storm: core join handlers, prober Ping/Pong, cold underlay SPT rows, deep eventq heap"},
		{Name: "sim-scale-cell-s2", Plane: planeSim, Sim: cellS2,
			Why: "the same cell on the sharded engine with 2 shards: epochs, barriers, cross-shard exchange; output must equal the serial cell's byte for byte"},
		{Name: "sim-steady-stream", Plane: planeSim, Sim: steady,
			Why: "join is about a tenth of wall; millions of data deliveries through overlay.Network, eventq push/pop and warm-cache underlay lookups; a join change must not move it"},
		{Name: "live-clean-stream", Plane: planeLive, Live: clean,
			Why: "loopback UDP fast path: wire encode-once, transport coalescer and sendmmsg/recvmmsg, live mailbox, flow ack clock; repair code idle"},
		{Name: "live-lossy-stream", Plane: planeLive, Live: lossy,
			Why: "the same stream with a seeded 1% drop of stream-data frames on every link: NACK, retransmit, FEC parity; the p99 chunk is a repaired chunk"},
	}
}
