package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"vdm/internal/golden"
)

// TestFiguresGolden pins every figure of the paper's evaluation at reduced
// scale, byte for byte, in the text cmd/experiments prints for
//
//	go run ./cmd/experiments -all -reps 2 -timescale 0.06 -ratescale 0.3 -seed 1
//
// Any change to simulated event history moves it. If one moves ON PURPOSE,
// `make goldens` re-records testdata/figures_reduced.txt; say so in the
// commit message. Skipped under -race: its only concurrency is the
// parallel pool, which TestParallelRunsAreByteIdentical race-tests, and
// check.sh runs it without the race detector.
func TestFiguresGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("over a minute under -race; check.sh runs it without")
	}
	// BenchmarkFigures (root bench_test.go) runs every group at these
	// options too, so its seed-1 numbers are this file's.
	o := Options{Seed: 1, Reps: 2, TimeScale: 0.06, RateScale: 0.3}
	var got bytes.Buffer
	for _, g := range Groups() {
		tables, err := Run(g, o)
		if err != nil {
			t.Fatalf("group %s: %v", g, err)
		}
		for _, tb := range tables {
			got.WriteString(tb.Format())
			got.WriteByte('\n')
		}
	}
	golden.Check(t, filepath.Join("testdata", "figures_reduced.txt"), got.Bytes())
}
