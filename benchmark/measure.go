package main

import "fmt"

// harness holds what the repetitions of one process share.
type harness struct {
	seed  int64
	spans *spanLog
	nrun  int
	// serial remembers the serial-engine sessions already run, keyed by
	// their inputs: the reference a sharded run's output must equal and
	// the base of sim.s2_over_serial_wall.
	serial map[simSize]*serialRef
}

type serialRef struct {
	fingerprint string
	walls       []float64
}

func newHarness(seed int64) *harness {
	return &harness{seed: seed, spans: newSpanLog(), serial: map[simSize]*serialRef{}}
}

func (h *harness) runID(w workload, kind string) string {
	h.nrun++
	return fmt.Sprintf("%s/%s#%d", w.Name, kind, h.nrun)
}

// rep is one untraced repetition of a workload: its end-to-end metrics,
// the layer metrics that are times or allocations of the session itself
// (so must not come from a traced run), and the outcome of its output
// checks.
type rep struct {
	e2e               map[string]float64
	aux               map[string]float64
	attempted, failed int64
	problems          []string
	flags             []string
}

// failedRep is the repetition of a run that errored: every operation
// counts as failed.
func failedRep(attempted int64, err error) rep {
	return rep{e2e: map[string]float64{"failed_share": 1}, attempted: attempted, failed: attempted, problems: []string{err.Error()}}
}

func (h *harness) rep(w workload, seconds float64) rep {
	if w.Plane == planeSim {
		return h.simModeRep(w, modeTimed, "rep")
	}
	r, err := runLive(w.Live, h.seed, seconds, 0, h.spans, h.runID(w, "rep"))
	if err != nil {
		return failedRep(int64(seconds*float64(w.Live.RateCPS))*int64(w.Live.Joiners), err)
	}
	return liveRep(w, r)
}

// simModeRep runs one sim session in the given mode and checks its output.
func (h *harness) simModeRep(w workload, mode simMode, kind string) rep {
	r, err := runSim(w.Sim, h.seed, mode, h.spans, h.runID(w, kind))
	if err != nil {
		return failedRep(int64(w.Sim.Peers), err)
	}
	return h.simRep(w, r, mode)
}

// serialReference returns the serial-engine run of the same inputs,
// running it now if this process has not yet.
func (h *harness) serialReference(w workload) (*serialRef, error) {
	key := w.Sim
	key.Shards = 0
	if ref := h.serial[key]; ref != nil {
		return ref, nil
	}
	r, err := runSim(key, h.seed, modeTimed, h.spans, h.runID(w, "serial-reference"))
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	ref := &serialRef{fingerprint: fingerprint(r.res), walls: []float64{r.wallS}}
	h.serial[key] = ref
	return ref, nil
}

// simRep turns a session into a repetition: the times of a timed run, the
// memory of a heap pass (whose times the forced collections spoil), and the
// output checks of either.
func (h *harness) simRep(w workload, r *simRun, mode simMode) rep {
	res := r.res
	events := float64(res.EventsProcessed)
	alive, reachable := int64(res.FinalAlive), int64(res.FinalReachable)
	out := rep{
		e2e:       map[string]float64{"failed_share": ratio(float64(alive-reachable), float64(alive))},
		aux:       map[string]float64{},
		attempted: alive,
		failed:    alive - reachable,
	}
	if mode == modeHeap {
		out.e2e["peak_heap_mb"] = r.peakHeapMB
		out.aux["runtime.bytes_per_peer"] = r.peakHeapMB * 1e6 / float64(w.Sim.Peers)
	} else {
		out.e2e["setup_s"] = r.setupS
		out.e2e["wall_s"] = r.wallS
		out.e2e["events_per_s"] = events / r.wallS
		out.e2e["cpu_us_per_delivery"] = r.rt.cpuS * 1e6 / events
		out.e2e["tree_stress"] = res.Stress
		out.e2e["tree_stretch"] = res.Stretch
		out.e2e["stream_loss_pct"] = res.Loss * 100
		out.aux["sim.join_wall_s"] = r.joinWallS
		out.aux["sim.steady_wall_s"] = r.wallS - r.joinWallS
		out.aux["sim.join_wall_share"] = r.joinWallS / r.wallS
		out.aux["runtime.gc_cpu_share"] = ratio(r.rt.gcCPUS, r.rt.cpuS)
		out.aux["runtime.gc_pause_total_ms"] = r.rt.pauseMS
		out.aux["runtime.allocs_per_event"] = float64(r.rt.allocs) / events
	}
	if reachable != alive {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d alive peers unreachable at session end", alive-reachable, alive))
	}
	fp := fingerprint(res)
	if w.Sim.Shards == 0 {
		ref := h.serial[w.Sim]
		if ref == nil {
			ref = &serialRef{fingerprint: fp}
			h.serial[w.Sim] = ref
		}
		if mode != modeHeap {
			ref.walls = append(ref.walls, r.wallS)
		}
		if ref.fingerprint != fp {
			out.problems = append(out.problems, fmt.Sprintf("serial Result %s differs from an earlier run of the same inputs, %s", fp, ref.fingerprint))
			out.e2e["failed_share"], out.failed = 1, out.attempted
		}
		return out
	}
	ref, err := h.serialReference(w)
	switch {
	case err != nil:
		out.problems = append(out.problems, err.Error())
	case ref.fingerprint != fp:
		out.problems = append(out.problems, fmt.Sprintf("sharded Result %s differs from serial %s", fp, ref.fingerprint))
	default:
		return out
	}
	out.e2e["failed_share"], out.failed = 1, out.attempted
	return out
}

func liveRep(w workload, r *liveRun) rep {
	expected := r.emitted * int64(r.receivers)
	delivered := float64(r.delivered)
	out := rep{
		e2e: map[string]float64{
			"setup_s":             median(r.setupS),
			"wall_s":              r.streamWallS,
			"events_per_s":        delivered / r.streamWallS,
			"peak_heap_mb":        r.peakHeapMB,
			"cpu_us_per_delivery": r.cpuUSPerDelivery,
			"goodput_mbps":        delivered * float64(w.Live.PayloadB) * 8 / 1e6 / r.emitS,
			"hop_latency_p50_ms":  r.hopP50MS,
			"hop_latency_p99_ms":  r.hopP99MS,
			"failed_share":        float64(r.missing) / float64(expected),
		},
		aux: map[string]float64{
			"runtime.gc_cpu_share":      ratio(r.rt.gcCPUS, r.rt.cpuS),
			"runtime.gc_pause_total_ms": r.rt.pauseMS,
			"runtime.allocs_per_event":  float64(r.rt.allocs) / delivered,
			"runtime.bytes_per_peer":    r.peakHeapMB * 1e6 / float64(r.receivers+1),
		},
		attempted: expected,
		failed:    r.missing,
	}
	// The repair path is best effort: a chunk still missing after NackGiveUp
	// attempts is written off so the stream moves on. Deliveries lost that
	// way count as failed; only a share over failed_share's bound (a subtree
	// that stopped receiving) fails the output check.
	if r.missing > 0 {
		what := fmt.Sprintf("%d of %d chunk deliveries missing after the settle:%s skipped_seqs %.0f, stall_pulls %.0f, window_stalls %.0f", r.missing, expected, r.missingAt, r.counters["skipped_seqs"], r.counters["stall_pulls"], r.counters["window_stalls"])
		if out.e2e["failed_share"] > failedShareBound {
			out.problems = append(out.problems, what)
		} else {
			out.flags = append(out.flags, what)
		}
	}
	if r.dups > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d chunks handed to the application more than once or out of range", r.dups))
	}
	if r.parentChanges > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d joiners changed parent during the stream", r.parentChanges))
	}
	if r.hopP99MS > w.Live.LimitP99MS {
		out.problems = append(out.problems, fmt.Sprintf("hop_latency_p99_ms %.3f is over the workload's limit of %g ms", r.hopP99MS, w.Live.LimitP99MS))
	}
	if r.dups > 0 || r.parentChanges > 0 || r.hopP99MS > w.Live.LimitP99MS {
		out.e2e["failed_share"], out.failed = 1, expected
	}
	if r.latenessP99MS > 1 {
		out.flags = append(out.flags, "load generator ran over 1 ms late at p99 (loadgen.lateness_p99_ms): latencies include its lag")
	}
	return out
}

// values collects one metric across repetitions.
func values(reps []rep, pick func(rep) map[string]float64, name string) []float64 {
	var xs []float64
	for _, r := range reps {
		if v, ok := pick(r)[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func e2eOf(r rep) map[string]float64 { return r.e2e }
func auxOf(r rep) map[string]float64 { return r.aux }

// traced runs the workload once with tracing on and the layer probes
// after it, and returns every per-layer metric. base are the untraced
// repetitions of the same inputs: they supply the layer metrics that are
// times or allocations of the session, and the base of the overhead ratio.
func (h *harness) traced(w workload, seconds float64, base []rep) (map[string]float64, error) {
	layers := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		layers[m.Name] = 0
	}
	for _, b := range base {
		for name := range b.aux {
			layers[name] = median(values(base, auxOf, name))
		}
	}
	run := h.runID(w, "traced")
	probe := func(name string, fn func()) {
		_, end := h.spans.begin(run, "probe."+name, 0)
		fn()
		end()
	}
	probe("core.join", func() { layers["core.join_ns"] = probeJoin() })

	if w.Plane == planeLive {
		r, err := runLive(w.Live, h.seed, seconds, 50, h.spans, run)
		if err != nil {
			return nil, err
		}
		if r.traceSamples == 0 {
			return nil, fmt.Errorf("traced stream: no receiver saw a trace-tagged chunk")
		}
		liveLayers(layers, r)
		layers["trace.overhead_ratio"] = ratio(r.cpuUSPerDelivery, median(values(base, e2eOf, "cpu_us_per_delivery")))
		var err2 error
		probe("wire", func() {
			layers["wire.encode_ns"], layers["wire.decode_ns"], layers["wire.allocs_per_roundtrip"], err2 = probeWire(w.Live.PayloadB)
		})
		probe("flow.window", func() { layers["flow.window_add_ns"] = probeWindow(w.Live.LossPct) })
		return layers, err2
	}

	r, err := runSim(w.Sim, h.seed, modeTraced, h.spans, run)
	if err != nil {
		return nil, err
	}
	meanDepth := simLayers(layers, r)
	walls := values(base, e2eOf, "wall_s")
	layers["trace.overhead_ratio"] = ratio(r.wallS, median(walls))
	if w.Sim.Shards > 0 {
		ref, err := h.serialReference(w)
		if err != nil {
			return nil, err
		}
		layers["sim.s2_over_serial_wall"] = ratio(median(walls), median(ref.walls))
	}
	probe("eventq", func() { layers["eventq.push_pop_ns"] = probeEventq(meanDepth) })
	probe("underlay", func() {
		layers["underlay.oneway_hit_ns"], layers["underlay.oneway_miss_ns"], layers["underlay.rtt_ns"], err = probeUnderlay(h.seed, r.pool)
	})
	return layers, err
}

// simLayers reads the counts of a traced session off its flight recording
// and trace tap. It returns the mean event-queue depth over the
// recording's intervals, the depth the eventq probe then holds.
func simLayers(layers map[string]float64, r *simRun) (meanDepth int) {
	var timers, deliveries, epochs, xshard, depthSum uint64
	var busyMS, waitMS, horizonSum float64
	var horizonN uint64
	msgs := map[string]uint64{}
	var msgSum uint64
	depthMax, freeMax := 0, 0
	for _, rec := range r.prof.Records {
		timers += rec.Timers
		deliveries += rec.Deliveries
		epochs += rec.Epochs
		xshard += rec.XShardMsgs
		depthSum += uint64(rec.Queue)
		depthMax, freeMax = max(depthMax, rec.Queue), max(freeMax, rec.Free)
		for _, row := range rec.Shards {
			busyMS += row.BusyMS
			waitMS += row.WaitMS
		}
		if d := rec.HorizonAdvMS; d != nil {
			horizonSum += d.Mean * float64(d.N)
			horizonN += d.N
		}
		for kind, n := range rec.Msgs {
			msgs[kind] += n
			msgSum += n
		}
	}
	share := func(kinds ...string) float64 {
		var n uint64
		for _, k := range kinds {
			n += msgs[k]
		}
		return ratio(float64(n), float64(msgSum))
	}
	layers["eventq.events"] = float64(r.res.EventsProcessed)
	layers["eventq.timers"] = float64(timers)
	layers["eventq.deliveries"] = float64(deliveries)
	layers["eventq.depth_max"] = float64(depthMax)
	layers["eventq.free_max"] = float64(freeMax)
	layers["overlay.msgs_total"] = float64(r.msgsTotal)
	layers["overlay.msg_share.ping_pong"] = share("Ping", "Pong")
	layers["overlay.msg_share.info"] = share("InfoRequest", "InfoResponse")
	layers["overlay.msg_share.data"] = share("DataChunk")
	layers["overlay.hot_peer_share"] = ratio(float64(r.msgsSource), float64(r.msgsTotal))
	layers["core.join_contacts_per_peer"] = ratio(float64(msgs["InfoRequest"]), float64(r.joins))
	layers["core.startup_avg_s"] = r.res.StartupAvg
	layers["core.reconnects"] = float64(r.res.ReconnCount)
	layers["sim.epochs"] = float64(epochs)
	layers["sim.barrier_wait_share"] = ratio(waitMS, busyMS+waitMS)
	layers["sim.cross_shard_msgs_per_epoch"] = ratio(float64(xshard), float64(epochs))
	layers["sim.horizon_mean_ms"] = ratio(horizonSum, float64(horizonN))
	return int(ratio(float64(depthSum), float64(len(r.prof.Records))))
}

func liveLayers(layers map[string]float64, r *liveRun) {
	c := r.counters
	layers["transport.syscalls_per_packet"] = ratio(c["syscalls"], c["frames"])
	layers["transport.frames_per_flush"] = ratio(c["flushed_frames"], c["flushes"])
	layers["transport.flush_wait_us_mean"] = ratio(c["flush_wait_us"], c["flushes"])
	layers["transport.queue_drops"] = c["queue_drops"]
	layers["transport.ctrl_retransmits"] = c["ctrl_retransmits"]
	layers["transport.fanout_frames_per_encode"] = ratio(c["fanout_frames"], c["fanout_encodes"])
	layers["live.join_s"] = r.joinS
	layers["live.tree_depth_max"] = float64(r.depthMax)
	layers["live.mailbox_highwater_max"] = float64(r.mailboxHW)
	layers["flow.nacks_per_kchunk"] = ratio(c["nacks"], float64(r.emitted)/1000)
	for _, name := range []string{"retransmits_served", "fec_repairs", "stall_pulls", "skipped_seqs", "pace_drops", "window_stalls"} {
		layers["flow."+name] = c[name]
	}
	// A gap filled is a measured chunk that arrived below the highest
	// sequence number its receiver had already seen.
	layers["flow.repair_useful_ratio"] = ratio(float64(r.repaired), c["retransmits_served"]+c["parity_sent"])
	layers["loadgen.lateness_p99_ms"] = r.latenessP99MS
}
