package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefaults(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		out, err := Map(100, workers, func(i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // scramble completion order
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, 4, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(0) = %v, %v", out, err)
	}
}

func TestMapSerialIsInline(t *testing.T) {
	// workers == 1 must run on the calling goroutine, in index order.
	var order []int
	_, err := Map(10, 1, func(i int) (int, error) {
		order = append(order, i) // safe only because no goroutines exist
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestMapErrorStopsDispatch(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := Map(1000, 4, func(i int) (int, error) {
		calls.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Fatalf("error did not stop dispatch: %d calls", n)
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	// Serial mode: the first failing index's error must be returned.
	_, err := Map(10, 1, func(i int) (int, error) {
		if i >= 2 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("err = %v, want fail-2", err)
	}
}
