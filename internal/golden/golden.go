// Package golden compares the bytes a test produced with a committed
// golden file. Every golden test in the module calls Check, so one
// command re-records them all:
//
//	make goldens
//
// which runs the golden tests with VDM_UPDATE_GOLDENS=1. Without that
// switch Check only reads.
package golden

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// updateEnv is the environment variable that, set to 1, makes Check
// rewrite each golden file with the bytes the test produced.
const updateEnv = "VDM_UPDATE_GOLDENS"

// Check fails t unless got equals the contents of the file at path, and
// names the first line that differs. With updateEnv=1 it writes got to
// path instead (creating its directory) and passes.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv(updateEnv) == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (make goldens records it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("output differs from %s at line %d (make goldens re-records it if the change is deliberate):\n got: %s\nwant: %s",
				path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output differs from %s in length: %d lines, want %d (make goldens re-records it if the change is deliberate)",
		path, len(gl), len(wl))
}
