package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointGoldenFingerprint pins the checkpoint identity and final
// state hash of one fixed sharded session to golden values. The parity
// tests prove serial and sharded engines agree with each other; this
// test proves the whole stack agrees with its own history — any change
// that perturbs the event sequence (an RNG draw added or reordered, a
// timer scheduled differently, a metric computed in another order) moves
// the state hash and fails here, even if it moves serial and sharded in
// lockstep. The memory-layout work (slab-allocated timer and scenario
// records, compacted underlay caches, narrowed flow windows) was landed
// against these exact values.
//
// If this fails because the event history changed ON PURPOSE, re-pin:
//
//	go test ./internal/sim -run TestCheckpointGoldenFingerprint -v
//
// and copy the printed values — but say so in the commit message, since
// existing on-disk checkpoints stop resuming across that commit.
func TestCheckpointGoldenFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("several-second full session")
	}
	const (
		goldenIdentity  = uint64(8017969634256029170)
		goldenStateHash = uint64(18383255440439279947)
		goldenEvents    = uint64(80476)
	)
	path := filepath.Join(t.TempDir(), "cp.json")
	cfg := Config{
		Seed:             7,
		Protocol:         VDM,
		Nodes:            300,
		ChurnPct:         5,
		DurationS:        400,
		JoinPhaseS:       200,
		DataRate:         0.5,
		RouterMin:        120,
		Underlay:         Router,
		Shards:           2,
		CheckpointPath:   path,
		CheckpointEveryS: 200,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	var f struct {
		Identity  uint64 `json:"identity"`
		StateHash uint64 `json:"state_hash"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	t.Logf("identity=%d state_hash=%d events=%d reach=%d loss=%v stress=%v",
		f.Identity, f.StateHash, res.EventsProcessed, res.FinalReachable, res.Loss, res.Stress)
	if f.Identity != goldenIdentity {
		t.Errorf("checkpoint identity = %d, golden %d (config fingerprinting changed)", f.Identity, goldenIdentity)
	}
	if f.StateHash != goldenStateHash {
		t.Errorf("state hash = %d, golden %d (event history drifted)", f.StateHash, goldenStateHash)
	}
	if res.EventsProcessed != goldenEvents {
		t.Errorf("events processed = %d, golden %d", res.EventsProcessed, goldenEvents)
	}
	if res.FinalReachable != cfg.Nodes || res.Loss != 0 {
		t.Errorf("session degenerate: reachable=%d loss=%v", res.FinalReachable, res.Loss)
	}
}

// resultFingerprint hashes everything a session reports except its Config
// (which carries the engine selection and func-typed fields), the way
// benchmark/sim.go:fingerprint does: two runs produced the same output
// exactly when their fingerprints match.
func resultFingerprint(res *Result) string {
	c := *res
	c.Config = Config{}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(sum[:8])
}

// TestSerialGoldenFingerprints pins the single-queue engine's output by
// value. The parity suite compares the sharded engine against the serial
// one, so a change that moves both in lockstep — or that edits the serial
// driver itself — is only caught by values recorded before the change.
// These were recorded at the commit before the two engines were folded
// onto one bus and one session state.
//
// If one fails because the event history changed ON PURPOSE, re-pin from
// the printed value and say so in the commit message.
func TestSerialGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("several full sessions")
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"vdm-router-churn", Config{
			Seed: 11, Protocol: VDM, Nodes: 60, RouterMin: 120, ChurnPct: 15,
			JoinPhaseS: 200, IntervalS: 100, SettleS: 40, DurationS: 700,
			DataRate: 2, LinkLossMax: 0.02, ComputeMST: true,
		}, "a8bb26097b5806c7"},
		{"vdm-geo", Config{
			Seed: 3, Protocol: VDM, Nodes: 40, DegreeMin: 4, DegreeMax: 4, ChurnPct: 10,
			JoinPhaseS: 300, IntervalS: 100, SettleS: 40, DurationS: 800,
			DataRate: 5, Underlay: Geo, GeoUSOnly: true, VDMRefinePeriodS: 120,
		}, "8d38a49fffc9599b"},
		{"hmtp-batch", Config{
			Seed: 7, Protocol: HMTP, Metric: "loss", Nodes: 48, BatchSize: 12,
			RouterMin: 100, IntervalS: 100, SettleS: 40, LinkLossMax: 0.05,
		}, "5ef6582099178c0b"},
		{"validate-ctrl-loss", Config{
			Seed: 42, Protocol: VDM, Nodes: 40, RouterMin: 100, ChurnPct: 20,
			JoinPhaseS: 200, IntervalS: 100, SettleS: 50, DurationS: 600,
			CtrlLossProb: 0.05, Validate: true, StatusPeriodS: 30,
		}, "f7e408ebc3894c64"},
		{"loss-est", Config{
			Seed: 31, Protocol: VDM, Metric: "loss-est", Nodes: 50, RouterMin: 100,
			JoinPhaseS: 200, IntervalS: 100, SettleS: 40, DurationS: 500,
			DataRate: 2, LinkLossMax: 0.03,
		}, "fbfd594e240eb9fa"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.EventsProcessed == 0 || len(res.Samples) == 0 || res.FinalReachable == 0 {
				t.Fatalf("degenerate session: %d events, %d samples, %d reachable",
					res.EventsProcessed, len(res.Samples), res.FinalReachable)
			}
			if got := resultFingerprint(res); got != tc.want {
				t.Errorf("fingerprint = %s, golden %s (events=%d reach=%d loss=%v stress=%v)",
					got, tc.want, res.EventsProcessed, res.FinalReachable, res.Loss, res.Stress)
			}
		})
	}
}
