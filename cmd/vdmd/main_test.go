package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"testing"
	"time"
)

// runMainEnv makes the test binary run vdmd's main instead of the tests,
// so the tests can start real vdmd processes without building a binary.
const runMainEnv = "VDMD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// vdmd returns a command that runs vdmd with args, killed when ctx ends.
func vdmd(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"neither source nor join", []string{"-listen", "127.0.0.1:0"}, 2},
		{"unknown log format", []string{"-listen", "127.0.0.1:0", "-source", "-log", "bogus"}, 2},
		{"malformed listen address", []string{"-listen", "not an address", "-source"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := vdmd(ctx, tc.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
				t.Fatalf("vdmd %v: err %v, want exit %d\n%s", tc.args, err, tc.code, out)
			}
		})
	}
}

// daemon is a running vdmd whose JSON log records arrive on logs.
type daemon struct {
	cmd  *exec.Cmd
	logs chan map[string]any
}

func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := vdmd(context.Background(), append(args, "-log", "json")...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The buffer holds far more records than a test run logs, so the
	// reader never stalls the daemon's stderr while the test is not
	// receiving.
	d := &daemon{cmd: cmd, logs: make(chan map[string]any, 1024)}
	go func() {
		defer close(d.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) == nil {
				d.logs <- rec
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return d
}

// await returns the first log record for which match holds, failing the
// test if none arrives within ten seconds.
func (d *daemon) await(t *testing.T, what string, match func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case rec, ok := <-d.logs:
			if !ok {
				t.Fatalf("vdmd exited before logging %s", what)
			}
			if match(rec) {
				return rec
			}
		case <-deadline:
			t.Fatalf("no %s logged within 10 s", what)
		}
	}
}

// exit waits for the daemon to close its log and exit cleanly.
func (d *daemon) exit(t *testing.T) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-d.logs:
			if ok {
				continue
			}
			if err := d.cmd.Wait(); err != nil {
				t.Fatalf("vdmd exit: %v", err)
			}
			return
		case <-deadline:
			t.Fatal("vdmd did not exit within 10 s")
		}
	}
}

func msg(text string) func(map[string]any) bool {
	return func(rec map[string]any) bool { return rec["msg"] == text }
}

// TestLoopbackSession runs a source and one joiner as separate processes
// on loopback: the joiner must join through Hello/Welcome, attach to the
// tree and receive stream chunks, and on SIGINT both must leave the
// session and exit cleanly.
func TestLoopbackSession(t *testing.T) {
	src := start(t, "-listen", "127.0.0.1:0", "-source", "-rate", "20", "-status", "0")
	addr, _ := src.await(t, "source up", msg("source up"))["addr"].(string)
	if addr == "" {
		t.Fatal("source logged no address")
	}

	member := start(t, "-listen", "127.0.0.1:0", "-join", addr, "-status", "100ms", "-timeout", "5s")
	member.await(t, "joined session", msg("joined session"))
	member.await(t, "a status line with chunks received", func(rec map[string]any) bool {
		recv, _ := rec["recv"].(float64)
		return rec["msg"] == "status" && rec["connected"] == true && recv > 0
	})

	for _, d := range []*daemon{member, src} {
		if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		d.await(t, "leaving session", msg("leaving session"))
		d.exit(t)
	}
}
