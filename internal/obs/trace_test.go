package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(EvJoinStart, Event{Target: 1}) // must not panic
	tr = NewTracer(nil, "vdm", 1, func() float64 { return 0 })
	tr.Emit(EvJoinDone, Event{})
}

func TestTracerStampsEvents(t *testing.T) {
	var sink MemSink
	now := 3.25
	tr := NewTracer(&sink, "vdm", 7, func() float64 { return now })
	tr.Emit(EvJoinStart, Event{Target: 0, Detail: "join"})
	now = 4.5
	tr.Emit(EvJoinDone, Event{Target: 2, Value: 1.25, Step: 3, Detail: "join"})

	evs := sink.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].T != 3.25 || evs[0].Proto != "vdm" || evs[0].Node != 7 || evs[0].Type != EvJoinStart {
		t.Fatalf("bad stamp: %+v", evs[0])
	}
	if evs[1].T != 4.5 || evs[1].Value != 1.25 || evs[1].Step != 3 {
		t.Fatalf("caller fields lost: %+v", evs[1])
	}
}

func TestJSONLSinkWritesDecodableLinesWithFullSchema(t *testing.T) {
	var b strings.Builder
	sink := NewJSONLSink(&b)
	tr := NewTracer(sink, "vdm", 1, func() float64 { return 1 })
	tr.Emit(EvJoinStart, Event{Target: 0, Detail: "join"})
	tr.Emit(EvUDPAck, Event{Target: 4, Value: 0.7})

	sc := bufio.NewScanner(strings.NewReader(b.String()))
	lines := 0
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		// The schema contract: every field present on every event.
		for _, k := range []string{"t", "proto", "node", "type", "target", "case", "step", "value", "detail", "join_id"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("line %d missing field %q: %s", lines, k, sc.Text())
			}
		}
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

func TestTeeSink(t *testing.T) {
	var a, b MemSink
	tee := TeeSink(&a, nil, &b)
	tee.Emit(Event{Type: EvJoinStart})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("tee did not fan out")
	}
}

func TestMetricsSinkFeedsRegistry(t *testing.T) {
	reg := NewRegistry()
	sink := NewMetricsSink(reg)
	tr := NewTracer(sink, "vdm", 3, func() float64 { return 0 })

	tr.Emit(EvJoinDecide, Event{Case: "III"})
	tr.Emit(EvJoinDecide, Event{Case: "III"})
	tr.Emit(EvJoinDecide, Event{Case: "I"})
	tr.Emit(EvJoinDone, Event{Value: 0.2, Step: 3, Detail: "join"})
	tr.Emit(EvUDPRetransmit, Event{Target: 5, Step: 1})
	tr.Emit(EvMailboxDepth, Event{Value: 9})
	tr.Emit(EvMailboxDepth, Event{Value: 4})

	pl := L("proto", "vdm")
	if got := reg.Counter("vdm_join_cases_total", pl, L("case", "III")).Value(); got != 2 {
		t.Fatalf("case III count = %d", got)
	}
	if got := reg.Counter("vdm_events_total", pl, L("type", EvJoinDecide)).Value(); got != 3 {
		t.Fatalf("events_total{join_decide} = %d", got)
	}
	h := reg.Histogram("vdm_join_duration_seconds", DurationBuckets, pl, L("purpose", "join"))
	if s := h.Snapshot(); s.Count != 1 || s.Sum != 0.2 {
		t.Fatalf("join duration histogram = %+v", s)
	}
	// Retransmits and mailbox depth are counted by type only: the UDP
	// transport and the mailbox export their own counters.
	if got := reg.Counter("vdm_events_total", pl, L("type", EvUDPRetransmit)).Value(); got != 1 {
		t.Fatalf("events_total{udp_retransmit} = %d", got)
	}
	if got := reg.Counter("vdm_events_total", pl, L("type", EvMailboxDepth)).Value(); got != 2 {
		t.Fatalf("events_total{mailbox_depth} = %d", got)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, family := range []string{"vdm_udp_retransmits_total", "vdm_mailbox_depth_highwater"} {
		if strings.Contains(sb.String(), family) {
			t.Fatalf("exposition derives %s from trace events", family)
		}
	}
}
