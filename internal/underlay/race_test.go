package underlay

import (
	"sync"
	"sync/atomic"
	"testing"

	"vdm/internal/rng"
	"vdm/internal/topology"
)

// TestRouterUnderlayConcurrent hammers one RouterUnderlay from many
// goroutines: readers query delay and loss between hosts whose
// shortest-path rows are warm — the lock-free hit path — while other
// goroutines keep forcing cold rows through the miss path. Every value
// must equal what a single-threaded twin computes; -race checks the
// atomic row slots and the path-loss lock.
func TestRouterUnderlayConcurrent(t *testing.T) {
	ts, err := topology.GenerateTransitStub(topology.DefaultTransitStub(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ts.AssignLinkLoss(0.02, rng.New(8))
	const hosts, warm = 128, 32
	attach := ts.AttachHosts(hosts, rng.New(9))
	u := NewRouter(ts.Graph, attach).WithKeyedJitter(11, 0.1)

	// Reference answers, computed single-threaded on a fresh twin.
	ref := NewRouter(ts.Graph, attach).WithKeyedJitter(11, 0.1)
	wantDelay := make([]float64, hosts)
	wantLoss := make([]float64, hosts)
	for h := 0; h < hosts; h++ {
		wantDelay[h] = ref.OneWayDelayMSKeyed(h, (h+1)%hosts, uint64(h))
		wantLoss[h] = ref.LossRate(h, (h+1)%hosts)
	}
	check := func(who string, h int) bool {
		a, b := h, (h+1)%hosts
		if got := u.OneWayDelayMSKeyed(a, b, uint64(h)); got != wantDelay[h] {
			t.Errorf("%s: OneWayDelayMSKeyed(%d,%d) = %v, want %v", who, a, b, got, wantDelay[h])
			return false
		}
		if got := u.LossRate(a, b); got != wantLoss[h] {
			t.Errorf("%s: LossRate(%d,%d) = %v, want %v", who, a, b, got, wantLoss[h])
			return false
		}
		return true
	}
	for h := 0; h < warm; h++ {
		check("warm-up", h)
	}

	const readers, colders = 4, 2
	var cold sync.WaitGroup
	var coldDone atomic.Bool
	cold.Add(colders)
	for w := 0; w < colders; w++ {
		go func(w int) {
			defer cold.Done()
			// Each takes its own stride of cold source hosts, and all of
			// them race on the last few.
			for h := warm + w; h < hosts; h += colders {
				if !check("cold", h) {
					return
				}
			}
			for h := hosts - 8; h < hosts; h++ {
				_ = u.PathLinks(h, 0)
				if !check("cold", h) {
					return
				}
			}
		}(w)
	}
	var read sync.WaitGroup
	read.Add(readers)
	for w := 0; w < readers; w++ {
		go func() {
			defer read.Done()
			for pass := 0; pass < 4 || !coldDone.Load(); pass++ {
				for h := 0; h < warm; h++ {
					if !check("reader", h) {
						return
					}
				}
			}
		}()
	}
	cold.Wait()
	coldDone.Store(true)
	read.Wait()
}

// TestWarmDelayLookupAllocatesNothing pins the hit path: with the source
// router's row resident, a keyed delay lookup is an atomic load, an index
// and the jitter arithmetic.
func TestWarmDelayLookupAllocatesNothing(t *testing.T) {
	ts, err := topology.GenerateTransitStub(topology.DefaultTransitStub(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	u := NewRouter(ts.Graph, ts.AttachHosts(16, rng.New(4))).WithKeyedJitter(5, 0.1)
	for _, r := range u.attach {
		u.spt(r)
	}
	var draw uint64
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		draw++
		sink += u.OneWayDelayMSKeyed(int(draw%16), int((draw+5)%16), draw)
	})
	if allocs != 0 {
		t.Fatalf("warm OneWayDelayMSKeyed allocated %v objects per call, want 0", allocs)
	}
	if sink <= 0 {
		t.Fatal("delays summed to nothing")
	}
}
