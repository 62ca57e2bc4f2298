// Checkpoint/resume for the sharded engine.
//
// Because a sharded run is deterministic, a checkpoint does not need to
// serialize protocol state, queue contents or RNG positions: it records
// only the measurement samples collected so far plus a state fingerprint.
// Resuming replays the run from t=0 — deterministically reproducing every
// event — but skips the measurement bodies up to the checkpointed barrier
// (the expensive O(peers²) metric collection, which is what dominates
// large sessions), then verifies the fingerprint before continuing live.
// A fingerprint mismatch means the config, code or scenario drifted since
// the checkpoint was written, and the run fails loudly rather than emit
// samples from two different histories.
package sim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
)

const checkpointVersion = 1

type checkpointFile struct {
	Version    int      `json:"version"`
	Identity   uint64   `json:"identity"`
	T          float64  `json:"t"`
	MeasureIdx int      `json:"measure_idx"`
	CtrlEvents uint64   `json:"ctrl_events"`
	StateHash  uint64   `json:"state_hash"`
	Samples    []Sample `json:"samples"`
}

type checkpointer struct {
	path     string
	identity uint64
}

// loadCheckpoint resolves the session's checkpoint setup: the writer (nil
// when checkpointing is off) and, when a compatible checkpoint already
// exists at the path, the resume state. An absent, unreadable or
// incompatible file just means a fresh run — it will be overwritten.
func (ss *session) loadCheckpoint() (*checkpointer, *checkpointFile, error) {
	if ss.cfg.CheckpointPath == "" {
		return nil, nil, nil
	}
	cp := &checkpointer{path: ss.cfg.CheckpointPath, identity: ss.identity()}
	data, err := os.ReadFile(cp.path)
	if err != nil {
		return cp, nil, nil
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return cp, nil, nil
	}
	if f.Version != checkpointVersion || f.Identity != cp.identity {
		return cp, nil, nil
	}
	if len(f.Samples) != f.MeasureIdx || f.T > ss.cfg.DurationS {
		return cp, nil, nil
	}
	ss.samples = f.Samples
	return cp, &f, nil
}

// identity fingerprints everything that determines the event history:
// the seed and workload knobs plus the resolved scenario script. The
// shard count is deliberately excluded — runs are byte-identical at every
// S, so a checkpoint written at one shard count resumes at another.
func (ss *session) identity() uint64 {
	h := fnv.New64a()
	cfg := ss.cfg
	fmt.Fprintf(h, "v%d|seed=%d|proto=%s|metric=%s|underlay=%s|nodes=%d|",
		checkpointVersion, cfg.Seed, cfg.Protocol, cfg.Metric, cfg.Underlay, cfg.Nodes)
	fmt.Fprintf(h, "dur=%x|rate=%x|ctrl=%x|lloss=%x|jit=%x|rmin=%d|gamma=%x|deg=%d,%d,%x|",
		math.Float64bits(cfg.DurationS), math.Float64bits(cfg.DataRate),
		math.Float64bits(cfg.CtrlLossProb), math.Float64bits(cfg.LinkLossMax),
		math.Float64bits(cfg.RouterJitterSigma), cfg.RouterMin,
		math.Float64bits(cfg.Gamma), cfg.DegreeMin, cfg.DegreeMax, math.Float64bits(cfg.AvgDegree))
	fmt.Fprintf(h, "pool=%d|", ss.scn.PoolSize)
	for _, ev := range ss.scn.Events {
		fmt.Fprintf(h, "e%x,%t,%d|", math.Float64bits(ev.T), ev.Join, ev.Slot)
	}
	for _, t := range ss.scn.MeasureTimes {
		fmt.Fprintf(h, "m%x|", math.Float64bits(t))
	}
	return h.Sum64()
}

// stateHash fingerprints the simulation state at a stop barrier using
// only shard-count-independent quantities: total fired and pending
// events, the traffic counters, and each live peer's tree position and
// receive count. Per-shard clocks and queue splits are excluded so a
// checkpoint resumes across different shard counts.
func (ss *session) stateHash() uint64 {
	h := fnv.New64a()
	var processed uint64
	var pending int
	for _, q := range ss.sims {
		processed += q.Processed()
		pending += q.Pending()
	}
	fmt.Fprintf(h, "ev=%d|pend=%d|ctrl=%d|", processed, pending, ss.ctrlEvents)
	c := ss.nets[0].Counters().Snapshot()
	fmt.Fprintf(h, "c=%d,%d,%d,%d,%d|", c.Ctrl, c.Data, c.DataDrops, c.CtrlDrops, c.Undeliver)
	for slot, p := range ss.insts {
		if p == nil {
			continue
		}
		st := p.Base().Stats()
		fmt.Fprintf(h, "p%d:%d,%d,%x|", slot, int(p.ParentID()), st.Received, math.Float64bits(st.MemberSince))
	}
	return h.Sum64()
}

// verifyResume checks, at the checkpointed barrier, that the replay
// reproduced the recorded history exactly.
func (ss *session) verifyResume(f *checkpointFile, t float64, mIdx int) error {
	if t != f.T {
		return fmt.Errorf("sim: checkpoint resume expected a barrier at t=%v but reached t=%v (scenario drift?)", f.T, t)
	}
	if mIdx != f.MeasureIdx || ss.ctrlEvents != f.CtrlEvents {
		return fmt.Errorf("sim: checkpoint replay diverged at t=%v: %d measures / %d controller events, checkpoint recorded %d / %d",
			t, mIdx, ss.ctrlEvents, f.MeasureIdx, f.CtrlEvents)
	}
	if h := ss.stateHash(); h != f.StateHash {
		return fmt.Errorf("sim: checkpoint state hash mismatch at t=%v: replay %x, checkpoint %x (config or code changed since it was written)",
			t, h, f.StateHash)
	}
	return nil
}

// write atomically replaces the checkpoint file.
func (cp *checkpointer) write(ss *session, t float64, mIdx int) error {
	f := checkpointFile{
		Version:    checkpointVersion,
		Identity:   cp.identity,
		T:          t,
		MeasureIdx: mIdx,
		CtrlEvents: ss.ctrlEvents,
		StateHash:  ss.stateHash(),
		Samples:    ss.samples,
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	tmp := cp.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, cp.path); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	return nil
}
