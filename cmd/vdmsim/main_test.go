package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput pins the command's stdout byte for byte. The files in
// testdata were recorded before the chapter-5 session and the topology
// and scenario dumps were folded into this command, each by the command
// that used to own it, with the same flags less -underlay and -dump. If
// output changes ON PURPOSE, regenerate a file with
//
//	go run ./cmd/vdmsim <args> > cmd/vdmsim/testdata/<name>.golden
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
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("vdmsim %s:\n got:\n%s\nwant:\n%s", tc.args, out.Bytes(), want)
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
