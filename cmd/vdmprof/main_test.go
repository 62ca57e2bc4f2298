package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vdm/internal/golden"
)

// TestGoldenOutput pins the summary and the -timeline text for two
// committed recordings of the same 60-peer session, one on the serial
// engine and one on 2 shards. The recordings were written with
//
//	go run ./cmd/vdmsim -nodes 60 -routers 120 -duration 300 -join 150 \
//	    -rate 0.2 -profile 50 [-shards 2] -profileout cmd/vdmprof/testdata/<name>.jsonl
//
// and are inputs, not outputs: their wall-clock fields never regenerate
// the same. If the rendering changes ON PURPOSE, `make goldens`
// re-records the four goldens (the recordings stay as they are).
func TestGoldenOutput(t *testing.T) {
	for _, rec := range []string{"serial", "shards2"} {
		for _, view := range []string{"summary", "timeline"} {
			t.Run(rec+"/"+view, func(t *testing.T) {
				args := []string{filepath.Join("testdata", rec+".jsonl")}
				if view == "timeline" {
					args = append([]string{"-timeline"}, args...)
				}
				var out bytes.Buffer
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				golden.Check(t, filepath.Join("testdata", rec+"."+view+".golden"), out.Bytes())
			})
		}
	}
}

// TestRejectedRecordings pins the inputs that are errors: nothing to
// render, not a recording at all, or a -top that would rank nothing.
func TestRejectedRecordings(t *testing.T) {
	for name, tc := range map[string]struct {
		flags []string
		body  string
	}{
		"empty":        {body: ""},
		"header-only":  {body: `{"v":1,"kind":"header","engine":"serial","pool":71,"interval_s":50}` + "\n"},
		"garbled":      {body: "{\"v\":1,\"kind\":\"interval\",\"t\":\n"},
		"unknown":      {body: `{"v":1,"kind":"epoch"}` + "\n"},
		"top-zero":     {flags: []string{"-top", "0"}},
		"top-negative": {flags: []string{"-top", "-1"}},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "serial.jsonl")
			if tc.flags == nil {
				path = filepath.Join(t.TempDir(), "rec.jsonl")
				if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out bytes.Buffer
			if err := run(append(tc.flags, path), &out); err == nil {
				t.Error("no error")
			}
			if out.Len() != 0 {
				t.Errorf("printed %q before failing", out.String())
			}
		})
	}
}
