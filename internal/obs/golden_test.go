package obs

import (
	"path/filepath"
	"strings"
	"testing"

	"vdm/internal/golden"
)

// TestJSONLGoldenSchema pins the exact serialized form of the trace event
// — field order, field names, zero-value rendering — against a committed
// golden file. Downstream consumers (the vdmtop merger, external log
// pipelines) parse this schema; any change to it must be deliberate and
// show up in review as a golden diff. `make goldens` re-records it.
func TestJSONLGoldenSchema(t *testing.T) {
	var sb strings.Builder
	sink := NewJSONLSink(&sb)
	tr := NewTracer(sink, "vdm", 7, func() float64 { return 12.5 })

	// One fully populated event and one zero-heavy event: together they
	// pin both the field order and the always-marshalled contract. The
	// chunk_path event pins the seq field wire v5's tracing added.
	tr.Emit(EvJoinDecide, Event{
		Target: 3,
		Case:   "III",
		Step:   2,
		Value:  41.25,
		Detail: "join",
		JoinID: "7:1",
	})
	tr.Emit(EvMailboxDepth, Event{Target: -1, Value: 9})
	tr.Emit(EvChunkPath, Event{Target: 4, Step: 3, Seq: 4200, Value: 18.75})

	golden.Check(t, filepath.Join("testdata", "event_schema.golden"), []byte(sb.String()))
}
