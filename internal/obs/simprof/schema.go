// Package simprof is the simulation flight recorder: time-resolved
// engine and protocol telemetry for the discrete-event core, recorded as
// a versioned JSONL stream strictly separate from a session's Result.
//
// A recording is one header record followed by interval records. The
// serial engine flushes one record per fixed span of simulated time; the
// sharded engine accumulates per-epoch statistics (horizon advance,
// per-shard busy and barrier-wait time, cross-shard message volume) and
// flushes on the first barrier past each interval boundary. Everything in
// a record is observational — counter deltas, queue depths, sampled heap,
// message mix, top-K hot-peer/hot-edge attribution — so enabling the
// recorder never changes a session's event history: profiled and
// unprofiled runs produce byte-identical Results (pinned by
// TestProfiledRunsAreByteIdentical in internal/sim).
//
// The record schema is versioned (Version) and pinned by a golden test,
// mirroring the protocol tracer's JSONL conventions: field order, names
// and zero-value rendering are a contract with cmd/vdmprof and external
// pipelines, and any change must show up in review as a golden diff.
package simprof

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Version is the recording schema version, stamped on every record.
const Version = 1

// Record kinds.
const (
	KindHeader   = "header"
	KindInterval = "interval"
)

// Header is the first record of a recording: the run's shape, needed to
// interpret the interval records that follow.
type Header struct {
	V    int    `json:"v"`
	Kind string `json:"kind"` // "header"
	// Engine is "serial" or "sharded".
	Engine string `json:"engine"`
	// Shards is the shard count (0 for the serial engine).
	Shards int `json:"shards"`
	// Pool is the scenario's host-slot pool size (peer ids are < Pool).
	Pool int `json:"pool"`
	// IntervalS is the configured flush interval in simulated seconds.
	IntervalS float64 `json:"interval_s"`
	// LookaheadS is the sharded engine's conservative lookahead window
	// (omitted for the serial engine and for S=1, where it is unbounded).
	LookaheadS float64 `json:"lookahead_s,omitempty"`
	Protocol   string  `json:"protocol,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	DurationS  float64 `json:"duration_s,omitempty"`
}

// Dist summarises a set of samples accumulated inside one interval.
type Dist struct {
	N    uint64  `json:"n"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// add folds one sample into the distribution (mean is finalized lazily as
// a running sum until render time; see finalize).
func (d *Dist) add(v float64) {
	if d.N == 0 || v < d.Min {
		d.Min = v
	}
	if d.N == 0 || v > d.Max {
		d.Max = v
	}
	d.Mean += v // running sum; divided by N when the record is cut
	d.N++
}

func (d *Dist) finalize() {
	if d.N > 0 {
		d.Mean /= float64(d.N)
	}
}

// ShardRow is one shard's share of an interval.
type ShardRow struct {
	// Events fired on this shard's queue during the interval.
	Events uint64 `json:"events"`
	// Queue and Free are the shard queue's depth and its array's spare
	// capacity at the flush instant.
	Queue int `json:"queue"`
	Free  int `json:"free"`
	// BusyMS is wall-clock time the shard worker spent executing epoch
	// commands; WaitMS is wall-clock time it sat idle while other shards
	// finished their epochs (the barrier-wait share of imbalance). Both
	// are whole-interval estimates scaled up from the timing-sampled
	// epochs (the engine times every Nth barrier round, not all of them).
	BusyMS float64 `json:"busy_ms"`
	WaitMS float64 `json:"wait_ms"`
}

// PeerCount attributes interval messages to one peer (sends plus
// receives), the unit of event-storm attribution.
type PeerCount struct {
	Peer int    `json:"peer"`
	Msgs uint64 `json:"msgs"`
}

// EdgeCount attributes interval messages to one directed overlay edge.
type EdgeCount struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Msgs uint64 `json:"msgs"`
}

// Proto is the protocol-level time-series sample taken at a flush
// barrier: population, joins in flight, cumulative orphan/reconnect
// counts (rates fall out as deltas between records) and a light tree
// cost/depth sample.
type Proto struct {
	// Alive is the number of live protocol instances (source included);
	// Reachable the subset with an unbroken parent chain to the source.
	Alive     int `json:"alive"`
	Reachable int `json:"reachable"`
	// Unattached counts live non-source peers currently without a parent
	// — peers whose join or reconnection is in flight.
	Unattached int `json:"unattached"`
	// Orphans and Reconnects are session-cumulative: parent-departure
	// events suffered and reconnections completed, summed over every
	// membership.
	Orphans    int `json:"orphans"`
	Reconnects int `json:"reconnects"`
	// TreeCostMS is the sum of child→parent underlay RTTs over attached
	// reachable peers; DepthMean/DepthMax summarise their tree depths.
	TreeCostMS float64 `json:"tree_cost_ms"`
	DepthMean  float64 `json:"depth_mean"`
	DepthMax   int     `json:"depth_max"`
}

// Record is one interval of the recording. Cumulative engine counters are
// reported as deltas over the interval; depth-style gauges are sampled at
// the flush instant.
type Record struct {
	V    int    `json:"v"`
	Kind string `json:"kind"` // "interval"
	// T is the simulated time at the end of the interval; DT the
	// simulated span it covers.
	T  float64 `json:"t"`
	DT float64 `json:"dt"`
	// WallMS is the wall-clock time the interval took to simulate.
	WallMS float64 `json:"wall_ms"`
	// Events fired during the interval, split into deliveries (arg-form
	// events: message arrivals) and timers (closure-form events).
	Events       uint64  `json:"events"`
	Deliveries   uint64  `json:"deliveries"`
	Timers       uint64  `json:"timers"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Queue and Free are summed over shards at the flush instant.
	Queue int `json:"queue"`
	Free  int `json:"free"`
	// HeapMB is the sampled Go heap in MB (0 when heap sampling is off
	// for this record).
	HeapMB float64 `json:"heap_mb,omitempty"`
	// Sharded-engine fields: epochs completed, messages exchanged across
	// shard boundaries, and the distribution of per-epoch horizon
	// advances (how much simulated time each barrier round covered).
	Epochs       uint64     `json:"epochs,omitempty"`
	XShardMsgs   uint64     `json:"xshard_msgs,omitempty"`
	HorizonAdvMS *Dist      `json:"horizon_adv_ms,omitempty"`
	Shards       []ShardRow `json:"shards,omitempty"`
	// Msgs is the interval's message mix by wire-message type name.
	Msgs map[string]uint64 `json:"msgs,omitempty"`
	// Proto is the protocol sample (omitted when the engine takes none).
	Proto *Proto `json:"proto,omitempty"`
	// TopPeers and TopEdges attribute the interval's message volume:
	// the K busiest peers (sends+receives) and directed edges.
	TopPeers []PeerCount `json:"top_peers,omitempty"`
	TopEdges []EdgeCount `json:"top_edges,omitempty"`
}

// Writer emits recording records as JSONL. It buffers; call Flush (or
// Close on the Recorder that owns it) before reading the destination.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewWriter wraps w for record emission.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

func (w *Writer) write(v any) {
	if w.err == nil {
		w.err = w.enc.Encode(v)
	}
}

// WriteHeader emits the header record.
func (w *Writer) WriteHeader(h Header) {
	h.V, h.Kind = Version, KindHeader
	w.write(h)
}

// WriteRecord emits one interval record.
func (w *Writer) WriteRecord(r Record) {
	r.V, r.Kind = Version, KindInterval
	w.write(r)
}

// Flush drains the buffer and reports the first error seen.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Recording is a parsed flight-recorder stream.
type Recording struct {
	Header  Header
	Records []Record
}

// Read parses a recording, tolerating a missing header (raw interval
// streams concatenated by tooling) but rejecting unknown versions.
func Read(r io.Reader) (*Recording, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	rec := &Recording{}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			V    int    `json:"v"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("simprof: line %d: %w", line, err)
		}
		if probe.V > Version {
			return nil, fmt.Errorf("simprof: line %d: schema v%d is newer than this reader (v%d)", line, probe.V, Version)
		}
		switch probe.Kind {
		case KindHeader:
			if err := json.Unmarshal(raw, &rec.Header); err != nil {
				return nil, fmt.Errorf("simprof: line %d: %w", line, err)
			}
		case KindInterval:
			var ir Record
			if err := json.Unmarshal(raw, &ir); err != nil {
				return nil, fmt.Errorf("simprof: line %d: %w", line, err)
			}
			rec.Records = append(rec.Records, ir)
		default:
			return nil, fmt.Errorf("simprof: line %d: unknown record kind %q", line, probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}
