package sim

import (
	"fmt"
	"strings"
	"testing"

	"vdm/internal/scenario"
)

// smokeConfig is a small, fast session used by several tests.
func smokeConfig(p ProtocolKind) Config {
	return Config{
		Seed:       7,
		Protocol:   p,
		Nodes:      40,
		ChurnPct:   10,
		JoinPhaseS: 300,
		IntervalS:  100,
		SettleS:    40,
		DurationS:  900,
		DataRate:   1,
		RouterMin:  200,
		Validate:   true,
	}
}

func TestRunVDMSmoke(t *testing.T) {
	res, err := Run(smokeConfig(VDM))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InvariantErrors) > 0 {
		t.Fatalf("invariant violations: %v", res.InvariantErrors[:min(5, len(res.InvariantErrors))])
	}
	if res.FinalReachable < 30 {
		t.Fatalf("only %d of ~40 peers reachable at session end (alive %d)", res.FinalReachable, res.FinalAlive)
	}
	if res.Stress < 1 {
		t.Errorf("stress %v < 1", res.Stress)
	}
	if res.Stretch < 1 {
		t.Errorf("stretch %v < 1 on jitter-free underlay", res.Stretch)
	}
	if res.Loss < 0 || res.Loss > 0.3 {
		t.Errorf("loss %v outside sane range", res.Loss)
	}
	if res.StartupAvg <= 0 {
		t.Errorf("startup avg %v not positive", res.StartupAvg)
	}
	if res.ReconnCount == 0 {
		t.Errorf("expected reconnections under churn")
	}
	t.Logf("VDM: stress=%.2f stretch=%.2f hop=%.2f loss=%.4f overhead=%.4f startup=%.3fs reconn=%.3fs(%d)",
		res.Stress, res.Stretch, res.Hopcount, res.Loss, res.Overhead, res.StartupAvg, res.ReconnAvg, res.ReconnCount)
}

func TestRunAllProtocolsSmoke(t *testing.T) {
	for _, p := range []ProtocolKind{VDM, HMTP, BTP, NICE, Random} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res, err := Run(smokeConfig(p))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.InvariantErrors) > 0 {
				t.Fatalf("invariant violations: %v", res.InvariantErrors[:min(5, len(res.InvariantErrors))])
			}
			if res.FinalReachable < 28 {
				t.Fatalf("only %d peers reachable", res.FinalReachable)
			}
			t.Logf("%s: stress=%.2f stretch=%.2f hop=%.2f loss=%.4f overhead=%.4f",
				p, res.Stress, res.Stretch, res.Hopcount, res.Loss, res.Overhead)
		})
	}
}

// TestRunRejectsUnknownNames: a misspelt protocol or metric is an error,
// not a silent run of VDM over delay distances.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		protocol ProtocolKind
		metric   string
	}{
		{"hmpt", "delay"},
		{VDM, "los"},
	} {
		cfg := smokeConfig(tc.protocol)
		cfg.Metric = tc.metric
		if _, err := Run(cfg); err == nil {
			t.Errorf("protocol %q metric %q: no error", tc.protocol, tc.metric)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(smokeConfig(VDM))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smokeConfig(VDM))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a.Samples) != fmt.Sprintf("%+v", b.Samples) {
		t.Fatal("same seed produced different sample series")
	}
	if a.EventsProcessed != b.EventsProcessed {
		t.Fatalf("event counts differ: %d vs %d", a.EventsProcessed, b.EventsProcessed)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRunRejectsUnreplayableScripts hands Run scripts that scenario.Read
// would refuse: each must stop with an error before the session starts,
// on the serial and the sharded engine alike.
func TestRunRejectsUnreplayableScripts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []scenario.Event
		want   string
	}{
		{"leave of a slot that never joined", []scenario.Event{{T: 10, Join: true, Slot: 1}, {T: 20, Slot: 2}},
			"event 1: slot 2 leaves at 20 while not alive"},
		{"double join", []scenario.Event{{T: 10, Join: true, Slot: 1}, {T: 20, Join: true, Slot: 1}},
			"event 1: slot 1 joins at 20 while alive"},
		{"slot outside the pool", []scenario.Event{{T: 10, Join: true, Slot: 7}},
			"event 0: slot 7 is outside the pool's peer slots [1, 5)"},
		{"events out of time order", []scenario.Event{{T: 20, Join: true, Slot: 1}, {T: 10, Join: true, Slot: 2}},
			"event 1: event at 10 is listed after one at 20"},
	} {
		for _, shards := range []int{0, 2} {
			cfg := smokeConfig(VDM)
			cfg.Shards = shards
			cfg.Scenario = &scenario.Scenario{PoolSize: 5, Events: tc.events, DurationS: 100}
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %d shards: Run = %v, want an error with %q", tc.name, shards, err, tc.want)
			}
		}
	}
}
