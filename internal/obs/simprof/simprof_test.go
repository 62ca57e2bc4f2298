package simprof

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"vdm/internal/golden"
	"vdm/internal/overlay"
)

// TestRecordSchemaGolden pins the JSONL wire form of the recording: field
// names, order, omitempty behaviour and the version stamp. The schema is
// a contract with cmd/vdmprof and external pipelines — any change must
// surface here as a golden diff (and, if incompatible, bump Version);
// `make goldens` re-records it.
func TestRecordSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHeader(Header{
		Engine:     "sharded",
		Shards:     4,
		Pool:       321,
		IntervalS:  10,
		LookaheadS: 0.0105,
		Protocol:   "vdm",
		Nodes:      300,
		Seed:       42,
		DurationS:  600,
	})
	// A serial-style minimal record: every sharded/optional field omitted.
	w.WriteRecord(Record{
		T: 10, DT: 10, WallMS: 12.5,
		Events: 1000, Deliveries: 800, Timers: 200, EventsPerSec: 80000,
		Queue: 42, Free: 7,
	})
	// A fully-populated sharded record.
	w.WriteRecord(Record{
		T: 20, DT: 10, WallMS: 31.25,
		Events: 2000, Deliveries: 1500, Timers: 500, EventsPerSec: 64000,
		Queue: 84, Free: 14, HeapMB: 96.5,
		Epochs: 1200, XShardMsgs: 345,
		HorizonAdvMS: &Dist{N: 1200, Min: 1.5, Max: 22, Mean: 8.25},
		Shards: []ShardRow{
			{Events: 1100, Queue: 40, Free: 6, BusyMS: 20, WaitMS: 11},
			{Events: 900, Queue: 44, Free: 8, BusyMS: 16, WaitMS: 15},
		},
		Msgs:  map[string]uint64{"DataChunk": 1400, "Ping": 100},
		Proto: &Proto{Alive: 300, Reachable: 298, Unattached: 2, Orphans: 9, Reconnects: 7, TreeCostMS: 12345.5, DepthMean: 4.75, DepthMax: 11},
		TopPeers: []PeerCount{
			{Peer: 17, Msgs: 250},
			{Peer: 3, Msgs: 180},
		},
		TopEdges: []EdgeCount{
			{From: 17, To: 3, Msgs: 120},
		},
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	golden.Check(t, filepath.Join("testdata", "record_schema.golden"), buf.Bytes())

	// The stream must round-trip through the reader.
	rec, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Header.Engine != "sharded" || rec.Header.Shards != 4 || rec.Header.V != Version {
		t.Fatalf("header did not round-trip: %+v", rec.Header)
	}
	if len(rec.Records) != 2 || rec.Records[1].Epochs != 1200 || rec.Records[1].Proto == nil {
		t.Fatalf("records did not round-trip: %+v", rec.Records)
	}
}

// TestReadRejectsNewerVersion pins forward-compatibility behaviour: a
// stream stamped with a future schema version must error, not misparse.
func TestReadRejectsNewerVersion(t *testing.T) {
	in := strings.NewReader(`{"v":99,"kind":"interval","t":1}` + "\n")
	if _, err := Read(in); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("want version error, got %v", err)
	}
}

// TestRecorderFlushAndMetrics drives a recorder end to end: probes
// observe traffic, epochs accumulate, and a flush must cut a correct
// interval record of the engine and protocol metrics.
func TestRecorderFlushAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(Options{W: &buf, EveryS: 10},
		RunInfo{Engine: "sharded", Shards: 2, Pool: 8, Protocol: "vdm", Nodes: 8, Seed: 1, DurationS: 100}, 2)

	rec.Probe(0).ObserveSend(1, 2, overlay.DataChunk{})
	rec.Probe(0).ObserveSend(1, 2, overlay.DataChunk{})
	rec.Probe(1).ObserveSend(3, 1, overlay.Ping{})
	rec.NoteEpoch(0.004, 5, 2_000_000, []int64{1_500_000, 500_000})
	rec.NoteEpoch(0.006, 3, 1_000_000, []int64{400_000, 900_000})

	if rec.Due(9.9) {
		t.Fatal("flush due before the interval boundary")
	}
	if !rec.Due(10) {
		t.Fatal("flush not due at the interval boundary")
	}
	rec.Flush(10, []ShardState{
		{Processed: 60, Deliveries: 40, Queue: 3, Free: 1},
		{Processed: 40, Deliveries: 30, Queue: 2, Free: 4},
	}, func() Proto { return Proto{Alive: 8, Reachable: 8} })
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	parsed, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Records) != 1 {
		t.Fatalf("want 1 record, got %d", len(parsed.Records))
	}
	r := parsed.Records[0]
	if r.Events != 100 || r.Deliveries != 70 || r.Timers != 30 {
		t.Fatalf("events=%d deliveries=%d timers=%d, want 100/70/30", r.Events, r.Deliveries, r.Timers)
	}
	if r.Queue != 5 || r.Free != 5 {
		t.Fatalf("queue=%d free=%d, want 5/5", r.Queue, r.Free)
	}
	if r.Epochs != 2 || r.XShardMsgs != 8 {
		t.Fatalf("epochs=%d xshard=%d, want 2/8", r.Epochs, r.XShardMsgs)
	}
	if d := r.HorizonAdvMS; d == nil || d.N != 2 || d.Min != 4 || d.Max != 6 || d.Mean != 5 {
		t.Fatalf("horizon dist %+v, want n=2 min=4 max=6 mean=5", r.HorizonAdvMS)
	}
	if len(r.Shards) != 2 {
		t.Fatalf("want 2 shard rows, got %d", len(r.Shards))
	}
	// Shard 0: busy 1.5+0.4=1.9ms, wait (2-1.5)+(1-0.4)=1.1ms.
	if r.Shards[0].BusyMS != 1.9 || r.Shards[0].WaitMS != 1.1 {
		t.Fatalf("shard 0 busy=%v wait=%v, want 1.9/1.1", r.Shards[0].BusyMS, r.Shards[0].WaitMS)
	}
	if r.Msgs["DataChunk"] != 2 || r.Msgs["Ping"] != 1 {
		t.Fatalf("message mix %v, want DataChunk=2 Ping=1", r.Msgs)
	}
	// Peer 1 took part in all three messages (2 sends + 1 receive).
	if len(r.TopPeers) == 0 || r.TopPeers[0].Peer != 1 || r.TopPeers[0].Msgs != 3 {
		t.Fatalf("top peers %+v, want peer 1 with 3 msgs first", r.TopPeers)
	}
	if len(r.TopEdges) == 0 || r.TopEdges[0] != (EdgeCount{From: 1, To: 2, Msgs: 2}) {
		t.Fatalf("top edges %+v, want 1->2 with 2 msgs first", r.TopEdges)
	}
	if r.Proto == nil || r.Proto.Alive != 8 {
		t.Fatalf("proto sample %+v, want alive=8", r.Proto)
	}

	// A second flush reports deltas, not cumulative readings.
	var buf2 bytes.Buffer
	rec.w = NewWriter(&buf2)
	rec.Flush(20, []ShardState{
		{Processed: 70, Deliveries: 45, Queue: 1, Free: 2},
		{Processed: 45, Deliveries: 32, Queue: 1, Free: 1},
	}, nil)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	parsed2, err := Read(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r2 := parsed2.Records[0]
	if r2.Events != 15 || r2.Deliveries != 7 || r2.DT != 10 {
		t.Fatalf("second record events=%d deliveries=%d dt=%v, want 15/7/10", r2.Events, r2.Deliveries, r2.DT)
	}
	if r2.Epochs != 0 || r2.HorizonAdvMS != nil || r2.Msgs != nil {
		t.Fatalf("second record did not reset accumulators: %+v", r2)
	}
}
