// The epoch controller: the driver of the sharded engine, a conservative
// bounded-lookahead parallel discrete-event core that produces
// byte-identical results to the single-queue driver at every shard count.
// The session state it advances is the same one (sim.go); only the
// stepping of the queues and the place measurements fire differ.
//
// Peers are partitioned across S shards by the underlay
// (underlay.KeyedJitter.Partition: on a transit-stub graph, blocks of
// whole transit domains), each shard owning a private event queue and
// running on its own goroutine. Execution alternates between epochs and
// barriers:
//
//   - An epoch runs every shard forward to a shared horizon
//     min-next-event + lookahead, where lookahead is the least delay a
//     message between two shards can take under that partition. Any
//     cross-shard message an event at time τ sends lands at τ + delay ≥
//     τ + lookahead ≥ horizon, so nothing a shard does inside the epoch
//     can affect another shard within the same epoch — the classic
//     conservative-lookahead argument. Same-shard messages may be faster;
//     they never leave their queue.
//   - At the barrier, cross-shard messages buffered in per-destination
//     outboxes are exchanged into the destination queues in a
//     deterministic total order (deliver-time, sender, send-index). A
//     delivery timed before its destination's clock is an error, not a
//     silent reordering.
//
// Determinism does not come from the barriers alone: every random draw
// that used to consume a shared stream in global event order (chunk loss,
// control loss, delivery jitter, probe jitter) is keyed — a pure function
// of (seed, edge, per-edge send index) — so the values cannot depend on
// how events interleave across shards. The serial engine draws through
// the same keyed path, which is why Shards=0, Shards=1 and Shards=S all
// produce identical experiment output (guarded by
// TestShardedRunsAreByteIdentical).
//
// Measurements and validation follow-ups run on the controller at stop
// barriers, replicating the serial engine's equal-time event ordering
// (setup-band events, then measures, then follow-ups, then runtime
// events).
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"vdm/internal/eventq"
)

// runtimeSeqBase separates setup-scheduled events (tick starter, scenario
// script) from events created while the simulation runs. At a stop
// barrier the shards fire exactly the setup band of that instant
// (eventq.RunBand), the controller then measures, and runtime events at
// the same instant fire afterwards — the same equal-time order the serial
// engine gets from its monotone sequence numbers.
const runtimeSeqBase = uint64(1) << 40

// Epoch commands sent to shard workers.
const (
	cmdBefore    = iota // RunBefore(t): fire events strictly before t
	cmdBand             // RunBand(t, runtimeSeqBase): before t plus t's setup band
	cmdInclusive        // Run(t): everything up to and including t
)

type epochCmd struct {
	mode int
	t    float64
}

type shardWorker struct {
	sim  *eventq.Sim
	cmds chan epochCmd

	// timed turns on busy-time accounting for the flight recorder (set
	// before the worker goroutine starts). busyNS is cumulative wall time
	// spent executing epoch commands on sampled epochs (the controller
	// raises timeEpoch on every Nth epoch; clock reads on each of the
	// engine's very small epochs would dominate the recorder's overhead).
	// The worker writes busyNS before the done handshake and the
	// controller reads it after, so no atomics needed.
	timed  bool
	busyNS int64
}

type followupCheck struct {
	fireT float64 // measure time + 5 s, the serial re-check delay
	measT float64
	first map[string]bool
}

// controller drives a session's shard queues epoch by epoch.
type controller struct {
	*session
	workers []*shardWorker
	done    chan error

	// timeEpoch marks the current epoch as timing-sampled. The controller
	// writes it before dispatching the epoch's commands and workers read
	// it after receiving them, so the channel send orders the accesses.
	timeEpoch bool
}

// driveEpochs runs the session to its end under the epoch controller.
func (s *session) driveEpochs() error {
	S := len(s.sims)
	ss := &controller{session: s, done: make(chan error, S)}
	for _, q := range s.sims {
		// Everything scheduled so far is the setup band.
		q.SetSeqBase(runtimeSeqBase)
		ss.workers = append(ss.workers, &shardWorker{sim: q, cmds: make(chan epochCmd)})
	}

	// Flight recorder: per-shard send probes (lock-free; merged at
	// barriers) and busy-time accounting on the workers.
	prof := newShardProf(s.newRecorder("sharded", S, s.lookahead), S)
	if prof != nil {
		for _, w := range ss.workers {
			w.timed = true
		}
	}

	ss.startWorkers()
	defer ss.stopWorkers()
	if err := ss.controllerLoop(prof); err != nil {
		return err
	}
	return prof.close()
}

func (ss *controller) startWorkers() {
	for _, w := range ss.workers {
		go func(w *shardWorker) {
			for cmd := range w.cmds {
				var err error
				if w.timed && ss.timeEpoch {
					t0 := time.Now()
					err = runEpochCmd(w.sim, cmd)
					w.busyNS += int64(time.Since(t0))
				} else {
					err = runEpochCmd(w.sim, cmd)
				}
				ss.done <- err
			}
		}(w)
	}
}

func (ss *controller) stopWorkers() {
	for _, w := range ss.workers {
		close(w.cmds)
	}
}

func runEpochCmd(sim *eventq.Sim, cmd epochCmd) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: shard worker panic: %v\n%s", r, debug.Stack())
		}
	}()
	switch cmd.mode {
	case cmdBefore:
		sim.RunBefore(cmd.t)
	case cmdBand:
		sim.RunBand(cmd.t, runtimeSeqBase)
	case cmdInclusive:
		sim.Run(cmd.t)
	}
	return nil
}

// phase dispatches one epoch command to every shard that has work before
// the horizon and waits for all of them. Shards with nothing to do are
// skipped (their clock lags, which is harmless: every event they will
// ever receive is timestamped at or after the horizon).
func (ss *controller) phase(mode int, t float64) error {
	n := 0
	for _, w := range ss.workers {
		at, ok := w.sim.NextAt()
		if !ok || at > t || (mode == cmdBefore && at == t) {
			continue
		}
		w.cmds <- epochCmd{mode: mode, t: t}
		n++
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-ss.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// controllerLoop advances the shard fleet epoch by epoch, stopping at
// measurement instants, follow-up re-checks and the session end. prof,
// when non-nil, records engine telemetry at barriers (it never schedules
// events, so profiled and unprofiled runs fire the identical sequence).
func (ss *controller) controllerLoop(prof *shardProf) error {
	cfg := ss.cfg
	duration := cfg.DurationS

	// Measurement instants in firing order: the serial event queue fires
	// them by (time, schedule order).
	measures := make([]float64, 0, len(ss.scn.MeasureTimes))
	for _, t := range ss.scn.MeasureTimes {
		if t <= duration {
			measures = append(measures, t)
		}
	}
	sort.Stable(sort.Float64Slice(measures))
	mIdx := 0

	var followups []followupCheck

	prog := newProgressReporter(cfg)
	var epochs uint64
	progress := func(t float64) {
		prog.report(t, ss.eventsProcessed(), epochs)
	}

	for {
		nextStop := duration
		if mIdx < len(measures) && measures[mIdx] < nextStop {
			nextStop = measures[mIdx]
		}
		if len(followups) > 0 && followups[0].fireT < nextStop {
			nextStop = followups[0].fireT
		}

		tmin := math.Inf(1)
		for _, w := range ss.workers {
			if at, ok := w.sim.NextAt(); ok && at < tmin {
				tmin = at
			}
		}

		if horizon := tmin + ss.lookahead; horizon < nextStop {
			// Plain epoch: no measurement inside, just advance and
			// exchange. Every cross-shard delivery sent by an event at
			// τ ≥ tmin lands at τ + delay ≥ horizon, after the barrier.
			timedEpoch := prof.beginEpoch(ss)
			var t0 time.Time
			if timedEpoch {
				t0 = time.Now()
			}
			if err := ss.phase(cmdBefore, horizon); err != nil {
				return err
			}
			moved, err := ss.router.Exchange()
			if err != nil {
				return err
			}
			epochs++
			if prof != nil {
				prof.noteEpoch(ss, horizon, moved, epochWall(timedEpoch, t0))
				prof.maybeFlush(ss, horizon, false)
			}
			progress(horizon)
			continue
		}

		// Stop barrier at nextStop: fire everything before it plus its
		// setup band, then run the controller work for this instant.
		t := nextStop
		timedEpoch := prof.beginEpoch(ss)
		var t0 time.Time
		if timedEpoch {
			t0 = time.Now()
		}
		if err := ss.phase(cmdBand, t); err != nil {
			return err
		}
		moved, err := ss.router.Exchange()
		if err != nil {
			return err
		}
		epochs++
		if prof != nil {
			prof.noteEpoch(ss, t, moved, epochWall(timedEpoch, t0))
		}

		for mIdx < len(measures) && measures[mIdx] == t {
			ss.ctrlEvents++
			// Same grace the single-queue driver gives (re-check 5 s
			// later); re-checks past the session end never fire.
			if first := ss.measure(t); first != nil && t+5 <= duration {
				followups = append(followups, followupCheck{fireT: t + 5, measT: t, first: first})
			}
			mIdx++
		}
		for len(followups) > 0 && followups[0].fireT == t {
			ss.ctrlEvents++
			ss.recheck(followups[0].measT, followups[0].first)
			followups = followups[1:]
		}

		if prof != nil && t < duration {
			prof.maybeFlush(ss, t, false)
		}
		progress(t)

		if t == duration {
			// The serial Run(duration) is inclusive: runtime events at
			// exactly the end instant still fire (their sends schedule
			// deliveries that never run — discard the sharded analogue).
			timedEpoch = prof.beginEpoch(ss)
			if timedEpoch {
				t0 = time.Now()
			}
			if err := ss.phase(cmdInclusive, duration); err != nil {
				return err
			}
			ss.router.DiscardOutboxes()
			epochs++
			if prof != nil {
				prof.noteEpoch(ss, duration, 0, epochWall(timedEpoch, t0))
				prof.maybeFlush(ss, duration, true)
			}
			progress(duration)
			return nil
		}
	}
}
