package obs_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
	"time"

	"vdm/internal/live"
	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/sim"
)

// decodeEvents round-trips events through the JSONL sink, returning each
// line as a raw key→value map — exactly what an external consumer of a
// trace file sees.
func decodeEvents(t *testing.T, events []obs.Event) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	var out []map[string]any
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("decode event: %v", err)
		}
		out = append(out, m)
	}
	return out
}

// fieldSet returns the sorted JSON key set of a decoded event.
func fieldSet(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func typeSet(events []map[string]any) map[string]bool {
	out := map[string]bool{}
	for _, e := range events {
		out[e["type"].(string)] = true
	}
	return out
}

// TestSimAndLiveEmitIdenticalEventSchema is the acceptance check of the
// observability layer: a virtual-time simulator session and a real-clock
// loopback cluster must emit join-trace JSONL whose field sets are
// identical, event for event, so one toolchain consumes both.
func TestSimAndLiveEmitIdenticalEventSchema(t *testing.T) {
	// Simulated session.
	var simSink obs.MemSink
	_, err := sim.Run(sim.Config{
		Seed:       1,
		Nodes:      8,
		JoinPhaseS: 40,
		IntervalS:  20,
		SettleS:    10,
		DurationS:  120,
		EventSink:  &simSink,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Live loopback cluster.
	var liveSink obs.MemSink
	c, err := live.NewCluster(live.ClusterConfig{N: 6, Sink: func(overlay.NodeID) obs.Sink { return &liveSink }})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConnected(15 * time.Second); err != nil {
		c.Close()
		t.Fatal(err)
	}
	c.Close()

	simEvents := decodeEvents(t, simSink.Events())
	liveEvents := decodeEvents(t, liveSink.Events())
	if len(simEvents) == 0 || len(liveEvents) == 0 {
		t.Fatalf("no events: sim=%d live=%d", len(simEvents), len(liveEvents))
	}

	// Every decoded event — whatever its source and type — carries the
	// same field set.
	want := fieldSet(simEvents[0])
	for _, evs := range [][]map[string]any{simEvents, liveEvents} {
		for _, e := range evs {
			got := fieldSet(e)
			if len(got) != len(want) {
				t.Fatalf("field set drift: %v vs %v (event %v)", got, want, e)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("field set drift: %v vs %v (event %v)", got, want, e)
				}
			}
		}
	}

	// Both worlds walked the same protocol: the join lifecycle events
	// must appear on each side.
	simTypes, liveTypes := typeSet(simEvents), typeSet(liveEvents)
	for _, typ := range []string{obs.EvJoinStart, obs.EvJoinStep, obs.EvJoinDecide, obs.EvJoinConnect, obs.EvJoinDone} {
		if !simTypes[typ] {
			t.Errorf("sim emitted no %s (types: %v)", typ, simTypes)
		}
		if !liveTypes[typ] {
			t.Errorf("live emitted no %s (types: %v)", typ, liveTypes)
		}
	}

	// join_done events carry a sane duration and the vdm proto tag in
	// both worlds.
	for name, evs := range map[string][]map[string]any{"sim": simEvents, "live": liveEvents} {
		for _, e := range evs {
			if e["type"] != obs.EvJoinDone {
				continue
			}
			if e["proto"] != "vdm" {
				t.Fatalf("%s join_done proto = %v", name, e["proto"])
			}
			if d := e["value"].(float64); d < 0 {
				t.Fatalf("%s join_done duration = %v", name, d)
			}
		}
	}
}
