package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFiguresGolden pins every figure of the paper's evaluation at reduced
// scale, byte for byte, in the text cmd/experiments prints for
//
//	go run ./cmd/experiments -all -reps 2 -timescale 0.06 -ratescale 0.3 -seed 1
//
// Any change to simulated event history moves it. If one moves ON PURPOSE,
// regenerate testdata/figures_reduced.txt with that command and say so in
// the commit message. Skipped under -race: its only concurrency is the
// parallel pool, which TestParallelRunsAreByteIdentical race-tests, and
// check.sh runs it without the race detector.
func TestFiguresGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("over a minute under -race; check.sh runs it without")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "figures_reduced.txt"))
	if err != nil {
		t.Fatal(err)
	}
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
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("figures differ from testdata/figures_reduced.txt at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("figures differ from testdata/figures_reduced.txt in length: %d lines, want %d", len(gl), len(wl))
}
