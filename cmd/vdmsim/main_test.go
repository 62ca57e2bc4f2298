package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vdm/internal/golden"
)

// TestGoldenOutput pins the command's stdout byte for byte. The files in
// testdata were recorded before the chapter-5 session and the topology
// and scenario dumps were folded into this command, each by the command
// that used to own it, with the same flags less -underlay and -dump. If
// output changes ON PURPOSE, `make goldens` re-records them.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		args   string
	}{
		{"router", "-nodes 60 -duration 800 -join 300 -shards 0"},
		{"geo_reps2_tree", "-underlay geo -nodes 30 -duration 800 -join 300 -reps 2 -tree"},
		{"dump_topology", "-dump topology -routers 120"},
		{"dump_scenario", "-dump scenario -nodes 40"},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), &out); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", tc.golden+".golden"), out.Bytes())
		})
	}
}

// TestRejectedScenarios replays three malformed -scenario scripts that
// once panicked inside the session (a slot beyond the pool, an event
// before time 0, a negative pool): each must fail with the script's line
// and print nothing.
func TestRejectedScenarios(t *testing.T) {
	for name, tc := range map[string]struct{ script, want string }{
		"slot-beyond-pool": {"pool 5\nduration 100\n10 join 99\n", "scenario line 3"},
		"negative-time":    {"pool 5\nduration 100\n-3 join 1\n", "scenario line 3"},
		"negative-pool":    {"pool -2\nduration 100\n", "scenario line 1"},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "scenario.txt")
			if err := os.WriteFile(path, []byte(tc.script), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err := run([]string{"-scenario", path}, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one naming %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("printed %q before failing", out.String())
			}
		})
	}
}

// TestRejectedFlags pins the command lines that are errors rather than
// silently ignored flags.
func TestRejectedFlags(t *testing.T) {
	for _, args := range []string{
		"-underlay geo -linkloss 0.02",
		"-underlay geo -routers 300",
		"-underlay geo -dump topology",
		"-us=false",
		"-underlay geo -degmin 2 -degmax 5",
		"-reps 2 -progress 100",
		"-reps 2 -profileout prof.jsonl",
		"-profile 5",
		"-underlay mesh",
		"-protocol hmpt",
		"-metric los",
		"-dump graph",
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(args), &out); err == nil {
			t.Errorf("vdmsim %s: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("vdmsim %s: printed %q before failing", args, out.String())
		}
	}
}
