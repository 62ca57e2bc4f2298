package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// quantile reads the q-quantile from sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// ratio is a/b, and 0 when the base is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const (
	rmHeapLive = "/gc/heap/live:bytes"
	rmAllocs   = "/gc/heap/allocs:objects"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
)

// heapSampler tracks the peak live heap of a live-* stream: the bytes the
// latest GC cycle found reachable. Unlike HeapAlloc it does not count
// garbage awaiting the next cycle; at GOGC 50 HeapAlloc peaks at up to 1.5
// times it. A stream allocates a payload per chunk, so cycles are frequent
// and the peak repeats to under 1%; a sim session's cycles are few, and
// runSim's heapPass forces them instead. Read through runtime/metrics,
// sampling never stops the world.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func heapLive() uint64 {
	s := []metrics.Sample{{Name: rmHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		peak := heapLive()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				if b := heapLive(); b > peak {
					peak = b
				}
				h.done <- peak
				return
			case <-tick.C:
				if b := heapLive(); b > peak {
					peak = b
				}
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB (1e6 bytes).
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	return float64(<-h.done) / 1e6
}

// rtSnap is a reading of the runtime counters the runtime.* layer metrics
// are deltas of.
type rtSnap struct {
	cpuS, gcCPUS, pauseMS float64
	allocs                uint64
}

func takeRT() rtSnap {
	s := []metrics.Sample{{Name: rmAllocs}, {Name: rmGCCPU}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		cpuS:    cpuSeconds(),
		gcCPUS:  s[1].Value.Float64(),
		pauseMS: float64(ms.PauseTotalNs) / 1e6,
		allocs:  s[0].Value.Uint64(),
	}
}

func (a rtSnap) since(b rtSnap) rtSnap {
	return rtSnap{cpuS: a.cpuS - b.cpuS, gcCPUS: a.gcCPUS - b.gcCPUS, pauseMS: a.pauseMS - b.pauseMS, allocs: a.allocs - b.allocs}
}
