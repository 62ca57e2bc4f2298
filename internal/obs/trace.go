package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"vdm/internal/overlay"
)

// Event is one structured protocol trace record. Every field is always
// marshalled (no omitempty), so a simulated session and a live deployment
// produce byte-compatible JSONL schemas — the property the sim/live
// parity test asserts. Unused fields hold their zero value; Target uses
// −1 (overlay.None) for "no peer involved".
type Event struct {
	// T is the bus clock in seconds: virtual time in the simulator,
	// seconds since the session epoch in the live runtime.
	T float64 `json:"t"`
	// Proto names the protocol emitting the event (e.g. "vdm").
	Proto string `json:"proto"`
	// Node is the emitting peer's id.
	Node int64 `json:"node"`
	// Type is one of the Ev* constants.
	Type string `json:"type"`
	// Target is the other peer the event concerns (queried node, new
	// parent, retransmit destination); −1 when none.
	Target int64 `json:"target"`
	// Case carries a classification: the join decision ("I"/"II"/"III"),
	// a connection kind ("child"/"splice"), or "" when not applicable.
	Case string `json:"case"`
	// Step is an ordinal: join iteration number, retransmit attempt,
	// adopted-child count — whatever the event type documents.
	Step int `json:"step"`
	// Seq is a data-plane sequence number (the traced chunk's stream
	// sequence for chunk_path events); 0 when the event has none. Join
	// procedure counters live in JoinID, not here.
	Seq int64 `json:"seq"`
	// Value is the event's measurement: a duration in seconds, a latency
	// in milliseconds, a distance, a queue depth.
	Value float64 `json:"value"`
	// Detail is free-form context (join purpose, restart reason).
	Detail string `json:"detail"`
	// JoinID correlates all events of one join procedure across every
	// peer it touched ("node:seq", the joiner's id and its procedure
	// counter); "" when the event has no join context.
	JoinID string `json:"join_id"`
}

// The trace event types.
const (
	// EvJoinStart: a join/reconnect/refine procedure began. Detail is the
	// purpose ("join", "reconnect", "refine"); Target is the first
	// queried node.
	EvJoinStart = "join_start"
	// EvJoinStep: one Contact(S) iteration — an InfoRequest went to
	// Target; Step counts the nodes visited so far in this attempt.
	EvJoinStep = "join_step"
	// EvJoinDecide: the directionality test over Target's children chose
	// a route. Case is "III" (descend into Target), "II" (splice,
	// Step = adoptees) or "I" (attach to Target); Value is the virtual
	// distance to the queried node.
	EvJoinDecide = "join_decide"
	// EvJoinConnect: a ConnRequest went to Target; Case is the connection
	// kind ("child", "splice", "foster"), Step the adoptee count.
	EvJoinConnect = "join_connect"
	// EvJoinDone: the procedure completed. Value is its duration in
	// seconds, Step the number of nodes visited, Detail the purpose,
	// Target the resulting parent.
	EvJoinDone = "join_done"
	// EvJoinTimeout: the queried or contacted Target never answered.
	EvJoinTimeout = "join_timeout"
	// EvJoinRestart: the procedure restarted from the source; Step is the
	// attempt count so far, Detail the reason.
	EvJoinRestart = "join_restart"
	// EvOrphaned: the parent (Target) announced its departure; Detail
	// carries the grandparent hint the reconnection starts at.
	EvOrphaned = "orphaned"
	// EvRefineSwitch: refinement moved the peer under a better parent
	// (Target); Value is the new parent distance.
	EvRefineSwitch = "refine_switch"
	// EvInfoServed: this peer answered Target's InfoRequest; JoinID is
	// the requester's join correlation id. Together with EvConnServed it
	// lets merged traces reconstruct a join's descent path from the
	// serving side.
	EvInfoServed = "info_served"
	// EvConnServed: this peer answered Target's ConnRequest; Case is
	// "accept" or "reject", JoinID the requester's correlation id.
	EvConnServed = "conn_served"

	// EvUDPRetransmit: a control frame to Target was retransmitted; Step
	// is the attempt number (1 = first retry).
	EvUDPRetransmit = "udp_retransmit"
	// EvUDPDedupeDrop: a duplicate control frame from Target was
	// suppressed by the receive-side dedupe window.
	EvUDPDedupeDrop = "udp_dedupe_drop"
	// EvUDPAck: the ack for a control frame to Target arrived; Value is
	// the ack latency in milliseconds, Step the transmissions it took.
	EvUDPAck = "udp_ack"
	// EvMailboxDepth: a live peer's mailbox reached a new high-water
	// depth (Value).
	EvMailboxDepth = "mailbox_depth"

	// EvChunkPath: a trace-tagged chunk arrived at this peer. Target is
	// the upstream sender it came over, Seq the chunk's stream sequence,
	// Step the peer's hop depth below the source, Value the one-way
	// source→here latency in milliseconds. Merging every peer's trace and
	// grouping by Seq reconstructs the chunk's full dissemination path —
	// the data-plane analogue of the join-serve correlation events.
	EvChunkPath = "chunk_path"
)

// Sink consumes trace events. Implementations must be safe for concurrent
// Emit calls: live peers trace from independent goroutines.
type Sink interface {
	Emit(Event)
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Event)

// Emit calls the function.
func (f FuncSink) Emit(e Event) { f(e) }

// JSONLSink writes one JSON object per line. Safe for concurrent use.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink wraps w in a line-delimited JSON event sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes e as one JSON line; encode errors are dropped (tracing must
// never take the protocol down).
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(e)
}

// MemSink buffers events in memory — the test harness sink.
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends e.
func (s *MemSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

// Events copies the buffered events.
func (s *MemSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// TeeSink fans one event out to several sinks in order.
func TeeSink(sinks ...Sink) Sink {
	return FuncSink(func(e Event) {
		for _, s := range sinks {
			if s != nil {
				s.Emit(e)
			}
		}
	})
}

// Tracer stamps events with a peer identity and clock and forwards them to
// a sink. A nil *Tracer is valid and drops everything, so instrumented
// code never needs a nil check beyond the method's own.
type Tracer struct {
	sink  Sink
	proto string
	node  int64
	now   func() float64
}

// NewTracer builds a tracer for one peer. now supplies the bus clock in
// seconds (overlay.Bus.Now, or seconds-since-epoch in transports that sit
// below the bus).
func NewTracer(sink Sink, proto string, node overlay.NodeID, now func() float64) *Tracer {
	return &Tracer{sink: sink, proto: proto, node: int64(node), now: now}
}

// Emit stamps and forwards one event. The caller fills the event-specific
// fields (Target, Case, Step, Value, Detail); T, Proto, Node and Type are
// overwritten here. No-op on a nil tracer.
func (t *Tracer) Emit(typ string, e Event) {
	if t == nil || t.sink == nil {
		return
	}
	e.T = t.now()
	e.Proto = t.proto
	e.Node = t.node
	e.Type = typ
	t.sink.Emit(e)
}

// NewMetricsSink bridges the event stream into a registry: every event
// increments vdm_events_total{proto,type}, and the latency-bearing types
// feed histograms (join durations by purpose, UDP ack latency, chunk-path
// edge latency/jitter/depth) plus the Case I/II/III decision-mix counters
// the paper's evaluation reports.
func NewMetricsSink(reg *Registry) Sink {
	// Jitter needs the previous latency observation per edge; the state
	// lives in the closure so independent sinks don't share it.
	var jmu sync.Mutex
	prevLat := make(map[[2]int64]float64)
	return FuncSink(func(e Event) {
		pl := L("proto", e.Proto)
		reg.Counter("vdm_events_total", pl, L("type", e.Type)).Inc()
		switch e.Type {
		case EvJoinDecide:
			reg.Counter("vdm_join_cases_total", pl, L("case", e.Case)).Inc()
		case EvJoinDone:
			reg.Histogram("vdm_join_duration_seconds", DurationBuckets, pl, L("purpose", e.Detail)).Observe(e.Value)
			reg.Histogram("vdm_join_steps", []float64{1, 2, 3, 5, 8, 13, 21}, pl).Observe(float64(e.Step))
		case EvUDPAck:
			reg.Histogram("vdm_udp_ack_latency_ms", LatencyBucketsMS, pl).Observe(e.Value)
		case EvChunkPath:
			el := []Label{pl, L("node", fmt.Sprint(e.Node)), L("from", fmt.Sprint(e.Target))}
			reg.Histogram("vdm_chunk_path_latency_ms", LatencyBucketsMS, el...).Observe(e.Value)
			reg.Histogram("vdm_chunk_hop_depth", []float64{1, 2, 3, 4, 6, 8, 12, 16}, pl).Observe(float64(e.Step))
			key := [2]int64{e.Node, e.Target}
			jmu.Lock()
			prev, ok := prevLat[key]
			prevLat[key] = e.Value
			jmu.Unlock()
			if ok {
				d := e.Value - prev
				if d < 0 {
					d = -d
				}
				reg.Histogram("vdm_chunk_path_jitter_ms", LatencyBucketsMS, el...).Observe(d)
			}
		}
	})
}

// RegisterCounters absorbs an overlay.Counters into the registry: a
// collector exports its five counters plus the derived overhead ratio
// under the given prefix, read fresh at every scrape.
func RegisterCounters(r *Registry, prefix string, c *overlay.Counters, labels ...Label) {
	r.RegisterCollector(func() []Sample {
		s := c.Snapshot()
		return []Sample{
			{Name: prefix + "_ctrl_msgs_total", Labels: labels, Value: float64(s.Ctrl)},
			{Name: prefix + "_data_chunks_total", Labels: labels, Value: float64(s.Data)},
			{Name: prefix + "_data_drops_total", Labels: labels, Value: float64(s.DataDrops)},
			{Name: prefix + "_ctrl_drops_total", Labels: labels, Value: float64(s.CtrlDrops)},
			{Name: prefix + "_undeliverable_total", Labels: labels, Value: float64(s.Undeliver)},
			{Name: prefix + "_overhead_ratio", Labels: labels, Value: c.Overhead()},
		}
	})
}

// NodeLabel renders a node id as a metric label.
func NodeLabel(id overlay.NodeID) Label { return L("node", fmt.Sprint(int64(id))) }
