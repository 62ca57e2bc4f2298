package simprof

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSimprofRead feeds Read arbitrary bytes, seeded with the recordings
// cmd/vdmprof's tests read: it must fail, or return a recording whose
// header and records pass Read's own checks — a schema version no newer
// than Version, a header that is absent or of kind "header", and
// interval records only — and it must never panic.
func FuzzSimprofRead(f *testing.F) {
	seeds, err := filepath.Glob("../../../cmd/vdmprof/testdata/*.jsonl")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed recordings: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"v":2,"kind":"interval"}`))
	f.Add([]byte("{\"v\":1,\"kind\":\"interval\",\"t\":5}\n\n{\"v\":0,\"kind\":\"header\",\"pool\":3}\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		rec, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		if h := rec.Header; h.V > Version || h.Kind != "" && h.Kind != KindHeader || h.Kind == "" && h != (Header{}) {
			t.Fatalf("accepted header %+v", h)
		}
		for i, r := range rec.Records {
			if r.V > Version || r.Kind != KindInterval {
				t.Fatalf("accepted record %d: v%d kind %q", i, r.V, r.Kind)
			}
		}
	})
}
