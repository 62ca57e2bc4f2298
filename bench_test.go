// Benchmarks: BenchmarkFigures runs every figure and ablation group of
// internal/experiments at reduced scale and reports the series each figure
// plots through b.ReportMetric, so `go test -run '^$' -bench Figures .`
// prints a quick-look version of every figure; full-scale series come
// from cmd/experiments. The others time the engine, the benchmark's
// simulated sessions and the live plane's stream, the sessions the
// `make profile-*` targets profile.
package vdm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"testing"
	"time"

	"vdm/internal/experiments"
	"vdm/internal/flow"
	"vdm/internal/live"
	"vdm/internal/overlay"
	"vdm/internal/rng"
	"vdm/internal/scenario"
	"vdm/internal/sim"
)

func mustRun(b *testing.B, cfg sim.Config) *sim.Result {
	b.Helper()
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigures runs each experiment group, one sub-benchmark per
// group, at the options TestFiguresGolden pins (seed 1, 2 repetitions,
// time scale 0.06, rate scale 0.3). For every table it reports each
// column's mean at the first and the last x value, as
// <figure>/<column>@<x>: the numbers
// internal/experiments/testdata/figures_reduced.txt prints.
func BenchmarkFigures(b *testing.B) {
	o := experiments.Options{Seed: 1, Reps: 2, TimeScale: 0.06, RateScale: 0.3}
	for _, g := range experiments.Groups() {
		b.Run(g, func(b *testing.B) {
			var tables []*experiments.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tables, err = experiments.Run(g, o); err != nil {
					b.Fatal(err)
				}
			}
			for _, t := range tables {
				for _, p := range []experiments.Point{t.Points[0], t.Points[len(t.Points)-1]} {
					for _, c := range t.Columns {
						if s, ok := p.Series[c]; ok {
							b.ReportMetric(s.Mean, fmt.Sprintf("%s/%s@%.4g", t.ID, c, p.X))
						}
					}
				}
			}
		})
	}
}

// BenchmarkEngineThroughput measures raw engine speed: events per second
// on a mid-size churning session, 80 VDM peers on the router underlay
// for 1 700 s with 10 % churn every 400 s.
func BenchmarkEngineThroughput(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, sim.Config{
			Seed: int64(i) + 1, Nodes: 80, DegreeMin: 2, DegreeMax: 5, ChurnPct: 10,
			JoinPhaseS: 400, IntervalS: 400, SettleS: 100, SpreadS: 50, DurationS: 1700,
			DataRate: 1, Underlay: sim.Router, RouterMin: 300, HMTPRefinePeriodS: 300,
		})
		events += res.EventsProcessed
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// scaleCell is the 20 000-peer serial cell of the benchmark's
// sim-scale-cell workload (300 s simulated, 150 s join phase, 0.2
// chunks/s, no churn round before the end) with seed 7.
func scaleCell() sim.Config {
	return sim.Config{
		Seed:       7,
		Protocol:   sim.VDM,
		Nodes:      20_000,
		ChurnPct:   5,
		DurationS:  300,
		JoinPhaseS: 150,
		DataRate:   0.2,
		RouterMin:  784,
		Underlay:   sim.Router,
	}
}

// BenchmarkScaleCell runs the scale cell: the session `make profile-cell`
// profiles.
func BenchmarkScaleCell(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, scaleCell())
		events += res.EventsProcessed
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// steadyStream is the benchmark's sim-steady-stream session with seed 1:
// 1 000 peers on the router underlay with per-send jitter, a 100 s join
// phase, then 5 chunks/s for 900 s under 5 % churn every 400 s (100 s
// settle) — millions of chunk deliveries, join about a tenth of wall.
func steadyStream() sim.Config {
	const seed = 1
	return sim.Config{
		Seed: seed,
		Scenario: scenario.Churn(scenario.ChurnConfig{
			Nodes:      1000,
			ChurnPct:   5,
			JoinPhaseS: 100,
			IntervalS:  400,
			SettleS:    100,
			DurationS:  900,
		}, rng.Derive(seed, "scenario")),
		Protocol:          sim.VDM,
		Nodes:             1000,
		ChurnPct:          5,
		DurationS:         900,
		JoinPhaseS:        100,
		DataRate:          5,
		Underlay:          sim.Router,
		RouterMin:         784,
		RouterJitterSigma: 0.1,
	}
}

// BenchmarkSteadyStream runs the steady-stream session: the one `make
// profile-steady` profiles, the chunk path's CPU budget.
func BenchmarkSteadyStream(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, steadyStream())
		events += res.EventsProcessed
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

var peakHeapProfile = flag.String("peakheapprofile", "",
	"BenchmarkScaleCellPeakHeap writes the in-use heap profile at the scale cell's peak live heap to this file, "+
		"BenchmarkLiveClusterPeakHeap the one at the end of its stream")

// BenchmarkScaleCellPeakHeap runs the scale cell with a forced collection
// every 10 simulated seconds and reports the largest live heap found, in
// MB and in bytes per peer: the runtime only learns the live heap when a
// cycle ends, so without the forced cycles the peak depends on where the
// collector's own cycles happen to land. With -peakheapprofile it writes
// the in-use heap profile taken at that peak, the one `make profile-heap`
// prints.
func BenchmarkScaleCellPeakHeap(b *testing.B) {
	var peak uint64
	var prof bytes.Buffer
	if *peakHeapProfile != "" {
		// One sample per 64 KiB allocated instead of 512: the profile's
		// smaller items would otherwise read as 0 or 512 KiB.
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 64 << 10
	}
	for i := 0; i < b.N; i++ {
		cfg := scaleCell()
		cfg.ProgressEveryS = 10
		cfg.Progress = func(sim.ProgressInfo) {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc <= peak {
				return
			}
			peak = ms.HeapAlloc
			if *peakHeapProfile != "" {
				prof.Reset()
				if err := pprof.Lookup("heap").WriteTo(&prof, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		mustRun(b, cfg)
	}
	if *peakHeapProfile != "" {
		if err := os.WriteFile(*peakHeapProfile, prof.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(peak)/1e6, "peak_MB")
	b.ReportMetric(float64(peak)/float64(scaleCell().Nodes), "B/peer")
}

// The live stream BenchmarkLiveClusterPeakHeap measures: the shape of the
// benchmark's live-clean-stream workload (a source and 12 joiners on
// loopback sockets, degree 3, flow control with unbounded pacing, 256-byte
// chunks at 2 000 chunks/s), streamed for a few seconds.
const (
	liveHeapPeers   = 13
	liveHeapDegree  = 3
	liveHeapPayload = 256
	liveHeapRate    = 2000
	liveHeapSeconds = 4
)

// bootLiveStream boots the cluster the live stream runs through and waits
// until every joiner is connected.
func bootLiveStream(b *testing.B) *live.Cluster {
	b.Helper()
	c, err := live.NewCluster(live.ClusterConfig{
		N: liveHeapPeers, MaxDegree: liveHeapDegree, Flow: &flow.Config{RateChunksPerS: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.WaitConnected(10 * time.Second); err != nil {
		c.Close()
		b.Fatal(err)
	}
	return c
}

// streamLive emits the live stream from c's source, open loop: chunk n is
// due at start + n/rate, however late the previous one went out.
func streamLive(c *live.Cluster) {
	start := time.Now()
	for n := 0; n < liveHeapRate*liveHeapSeconds; n++ {
		time.Sleep(time.Until(start.Add(time.Duration(n) * time.Second / liveHeapRate)))
		c.Source().EmitData(overlay.DataChunk{Seq: int64(n), Payload: make([]byte, liveHeapPayload)})
	}
}

// BenchmarkLiveClusterPeakHeap boots a live.Cluster, streams through it
// and reports the stream's peak live heap in MB: the bytes the latest
// collection found reachable, sampled every 50 ms as the benchmark's live
// workloads sample it. With -peakheapprofile it writes the in-use heap
// profile after a collection at the end of the stream, the one `make
// profile-heap-live` prints.
func BenchmarkLiveClusterPeakHeap(b *testing.B) {
	var peak uint64
	var prof bytes.Buffer
	if *peakHeapProfile != "" {
		// One sample per 4 KiB allocated: every 61 KB receive slot is
		// sampled, so the receive rings read exactly, not within ±8 %.
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 4 << 10
	}
	heapLive := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	for i := 0; i < b.N; i++ {
		c := bootLiveStream(b)
		runtime.GC() // the floor is the stream's live set, not set-up's garbage
		stop, done := make(chan struct{}), make(chan uint64)
		go func() {
			max := heapLive()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					done <- max
					return
				case <-tick.C:
					if h := heapLive(); h > max {
						max = h
					}
				}
			}
		}()
		streamLive(c)
		close(stop)
		if h := <-done; h > peak {
			peak = h
		}
		if *peakHeapProfile != "" {
			runtime.GC()
			prof.Reset()
			if err := pprof.Lookup("heap").WriteTo(&prof, 0); err != nil {
				b.Fatal(err)
			}
		}
		c.Close()
	}
	if *peakHeapProfile != "" {
		if err := os.WriteFile(*peakHeapProfile, prof.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(peak)/1e6, "peak_MB")
}

// BenchmarkLiveClusterStream runs BenchmarkLiveClusterPeakHeap's stream
// with nothing sampling it: the one `make profile-live` profiles, the live
// plane's CPU budget. It reports the data plane's datagrams per frame and
// syscalls per frame over every socket, sent and received.
func BenchmarkLiveClusterStream(b *testing.B) {
	var frames, datagrams, syscalls int64
	for i := 0; i < b.N; i++ {
		c := bootLiveStream(b)
		streamLive(c)
		c.Close()
		for _, tr := range c.Trs {
			d := tr.Dataplane()
			frames += d.SentFrames + d.RecvFrames
			datagrams += d.SentDatagrams + d.RecvDatagrams
			syscalls += d.SendSyscalls + d.RecvSyscalls
		}
	}
	b.ReportMetric(float64(datagrams)/float64(frames), "datagrams/frame")
	b.ReportMetric(float64(syscalls)/float64(frames), "syscalls/frame")
}
