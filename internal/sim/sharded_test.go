package sim

import (
	"fmt"
	"strings"
	"testing"
)

// renderResult serializes everything a Result reports into a canonical
// text form. Byte-comparing these strings is the determinism contract:
// %v prints each float64 with the shortest exactly-round-tripping
// representation, so two renderings are equal iff every number is
// bit-identical. (Result cannot go through encoding/json: Config carries
// func-typed fields.)
func renderResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "loss=%v overhead=%v\n", r.Loss, r.Overhead)
	fmt.Fprintf(&b, "stress=%v max=%v\n", r.Stress, r.MaxStress)
	fmt.Fprintf(&b, "stretch=%v min=%v max=%v leaf=%v\n", r.Stretch, r.MinStretch, r.MaxStretch, r.LeafStretch)
	fmt.Fprintf(&b, "hop=%v leaf=%v max=%v\n", r.Hopcount, r.LeafHopcount, r.MaxHopcount)
	fmt.Fprintf(&b, "usage=%v norm=%v\n", r.UsageMS, r.UsageNorm)
	fmt.Fprintf(&b, "startup=%v/%v reconn=%v/%v n=%d\n", r.StartupAvg, r.StartupMax, r.ReconnAvg, r.ReconnMax, r.ReconnCount)
	fmt.Fprintf(&b, "mst=%v dcmst=%v\n", r.MSTRatio, r.DCMSTRatio)
	fmt.Fprintf(&b, "events=%d alive=%d reachable=%d\n", r.EventsProcessed, r.FinalAlive, r.FinalReachable)
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "sample t=%v tree=%+v loss=%v overhead=%v\n", s.T, s.Tree, s.Loss, s.Overhead)
	}
	for _, e := range r.FinalTree {
		fmt.Fprintf(&b, "edge %+v\n", e)
	}
	for _, e := range r.InvariantErrors {
		fmt.Fprintf(&b, "invariant %s\n", e)
	}
	return b.String()
}

// parityConfigs are the workload styles the chapter experiments use: a
// chapter-3 churn session (VDM, delay metric, control-loss injection), a
// chapter-4 batch-growth session (HMTP, loss metric over lossy links) and
// a chapter-5 session on the synthetic PlanetLab, whose partition splits
// by region instead of transit domain. Small enough to sweep five shard
// counts in a test run.
func parityConfigs() map[string]Config {
	return map[string]Config{
		"ch3-churn": {
			Seed:         42,
			Protocol:     VDM,
			Nodes:        32,
			RouterMin:    100,
			ChurnPct:     20,
			JoinPhaseS:   200,
			IntervalS:    100,
			SettleS:      50,
			DurationS:    600,
			CtrlLossProb: 0.01,
			Validate:     true,
			ComputeMST:   true,
		},
		"ch4-batch": {
			Seed:        7,
			Protocol:    HMTP,
			Metric:      "loss",
			Nodes:       32,
			BatchSize:   8,
			RouterMin:   100,
			IntervalS:   100,
			SettleS:     40,
			LinkLossMax: 0.05,
			ComputeMST:  true,
		},
		"ch5-geo": {
			Seed:       3,
			Protocol:   VDM,
			Nodes:      24,
			ChurnPct:   10,
			JoinPhaseS: 200,
			IntervalS:  100,
			SettleS:    40,
			DurationS:  500,
			DataRate:   2,
			Underlay:   Geo,
			Validate:   true,
		},
	}
}

// TestShardedRunsAreByteIdentical is the engine's determinism contract:
// the sharded engine at every shard count produces byte-identical
// experiment output to the serial engine.
func TestShardedRunsAreByteIdentical(t *testing.T) {
	for name, cfg := range parityConfigs() {
		t.Run(name, func(t *testing.T) {
			serial, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := renderResult(serial)
			if serial.EventsProcessed == 0 || len(serial.Samples) == 0 {
				t.Fatalf("serial run is degenerate: %d events, %d samples", serial.EventsProcessed, len(serial.Samples))
			}
			// 3 divides neither the four transit domains nor the eight
			// geo regions.
			for _, shards := range []int{1, 2, 3, 4, 8} {
				scfg := cfg
				scfg.Shards = shards
				res, err := Run(scfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got := renderResult(res); got != want {
					t.Fatalf("shards=%d diverged from serial:\n%s", shards, firstDiff(want, got))
				}
			}
		})
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\nserial:  %s\nsharded: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length: serial %d lines, sharded %d lines", len(wl), len(gl))
}

// TestShardedRejectsOrderSensitiveMetric pins the one configuration the
// sharded engine refuses: the estimated-loss metric draws from a shared
// stream in query order, which cannot be sharded deterministically.
func TestShardedRejectsOrderSensitiveMetric(t *testing.T) {
	cfg := parityConfigs()["ch3-churn"]
	cfg.Metric = "loss-est"
	cfg.Shards = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an error for Shards>0 with metric loss-est")
	}
}

// TestShardedDeliveryHammer drives a denser cross-shard workload for the
// race detector: every peer talks across shard boundaries constantly.
// Run with -race, this is the memory-model check on the epoch barriers.
func TestShardedDeliveryHammer(t *testing.T) {
	cfg := Config{
		Seed:       99,
		Protocol:   VDM,
		Nodes:      48,
		RouterMin:  100,
		BatchSize:  12,
		IntervalS:  60,
		SettleS:    30,
		Shards:     8,
		DataRate:   4,
		Validate:   true,
		ComputeMST: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalReachable == 0 {
		t.Fatal("no peers reachable after hammer run")
	}
}
