package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []Benchmark
	}{
		{
			name: "benchmem with meta lines",
			in: `goos: linux
goarch: amd64
pkg: vdm/internal/wire
cpu: Some CPU @ 2.00GHz
BenchmarkWireRoundTrip-2   	 3145214	       365.6 ns/op	     208 B/op	       4 allocs/op
BenchmarkWireDataChunk-2   	 9274750	       110.6 ns/op	      48 B/op	       1 allocs/op
PASS
ok  	vdm/internal/wire	3.1s
`,
			want: []Benchmark{
				{Name: "BenchmarkWireRoundTrip", Procs: 2, Runs: 3145214, NsPerOp: 365.6, BytesPerOp: 208, AllocsPerOp: 4},
				{Name: "BenchmarkWireDataChunk", Procs: 2, Runs: 9274750, NsPerOp: 110.6, BytesPerOp: 48, AllocsPerOp: 1},
			},
		},
		{
			name: "without benchmem",
			in:   "BenchmarkEventQ-8   \t 1000000\t      1042 ns/op\n",
			want: []Benchmark{{Name: "BenchmarkEventQ", Procs: 8, Runs: 1000000, NsPerOp: 1042}},
		},
		{
			name: "sub-benchmarks keep their own dashes",
			in: "BenchmarkJoin/peers-100-2 \t 500\t 2400000 ns/op\t 1024 B/op\t 12 allocs/op\n" +
				"BenchmarkJoin/peers-100-8 \t 900\t 1300000 ns/op\t 1024 B/op\t 12 allocs/op\n",
			want: []Benchmark{
				{Name: "BenchmarkJoin/peers-100", Procs: 2, Runs: 500, NsPerOp: 2400000, BytesPerOp: 1024, AllocsPerOp: 12},
				{Name: "BenchmarkJoin/peers-100", Procs: 8, Runs: 900, NsPerOp: 1300000, BytesPerOp: 1024, AllocsPerOp: 12},
			},
		},
		{
			name: "GOMAXPROCS=1 prints no suffix",
			in:   "BenchmarkEventQ \t 10\t 5 ns/op\n",
			want: []Benchmark{{Name: "BenchmarkEventQ", Procs: 1, Runs: 10, NsPerOp: 5}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parse(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Benchmarks, tc.want) {
				t.Errorf("benchmarks = %+v\nwant %+v", got.Benchmarks, tc.want)
			}
		})
	}

	got, _ := parse(strings.NewReader(cases[0].in))
	if got.GoOS != "linux" || got.GoArch != "amd64" || !reflect.DeepEqual(got.Packages, []string{"vdm/internal/wire"}) {
		t.Errorf("meta = %q %q %v", got.GoOS, got.GoArch, got.Packages)
	}
}

func TestCompare(t *testing.T) {
	base := Summary{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Procs: 2, NsPerOp: 100, AllocsPerOp: 4},
		{Name: "BenchmarkB", Procs: 2, NsPerOp: 1000, AllocsPerOp: 0},
	}}
	cases := []struct {
		name        string
		cur         []Benchmark
		regressions int
		matched     int
		lines       []string // one verdict prefix per output line, in order
	}{
		{
			name:    "within tolerance on another core count",
			cur:     []Benchmark{{Name: "BenchmarkA", Procs: 8, NsPerOp: 109, AllocsPerOp: 4}, {Name: "BenchmarkB", Procs: 8, NsPerOp: 900}},
			matched: 2,
			lines:   []string{"ok ", "ok "},
		},
		{
			name:        "time regression",
			cur:         []Benchmark{{Name: "BenchmarkA", NsPerOp: 120, AllocsPerOp: 4}, {Name: "BenchmarkB", NsPerOp: 1000}},
			regressions: 1,
			matched:     2,
			lines:       []string{"REGRESSION(time) ", "ok "},
		},
		{
			name:        "one more alloc at equal time",
			cur:         []Benchmark{{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 4}, {Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 1}},
			regressions: 1,
			matched:     2,
			lines:       []string{"ok ", "REGRESSION(allocs) "},
		},
		{
			name:    "new and gone do not fail",
			cur:     []Benchmark{{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 4}, {Name: "BenchmarkC", NsPerOp: 1}},
			matched: 1,
			lines:   []string{"ok ", "NEW ", "GONE  BenchmarkB"},
		},
		{
			name:    "nothing matched",
			cur:     []Benchmark{{Name: "BenchmarkC", NsPerOp: 1}},
			matched: 0,
			lines:   []string{"NEW ", "GONE  BenchmarkA", "GONE  BenchmarkB"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			regressions, matched := compare(&out, base, Summary{Benchmarks: tc.cur}, 0.10)
			if regressions != tc.regressions || matched != tc.matched {
				t.Errorf("regressions, matched = %d, %d; want %d, %d", regressions, matched, tc.regressions, tc.matched)
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if len(lines) != len(tc.lines) {
				t.Fatalf("output:\n%s\nwant %d lines", out.String(), len(tc.lines))
			}
			for i, want := range tc.lines {
				if !strings.HasPrefix(lines[i], want) {
					t.Errorf("line %d = %q, want prefix %q", i, lines[i], want)
				}
			}
		})
	}
}

// TestLoadSummaryOldBaseline checks that a baseline written before names
// were split (suffix inside the name, no procs field) still matches a run
// from a machine with a different core count.
func TestLoadSummaryOldBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	const oldFormat = `{"benchmarks": [{"name": "BenchmarkEventQ-2", "runs": 10, "ns_per_op": 100}]}`
	if err := os.WriteFile(path, []byte(oldFormat), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := loadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := old.Benchmarks[0]; got.Name != "BenchmarkEventQ" || got.Procs != 2 {
		t.Fatalf("baseline entry not split: %+v", got)
	}
	cur, _ := parse(strings.NewReader("BenchmarkEventQ-8 \t 10\t 101 ns/op\n"))
	if _, matched := compare(new(strings.Builder), old, cur, 0.10); matched != 1 {
		t.Fatalf("a -8 run matched %d baseline entries, want 1", matched)
	}
}
