// Benchmarks: one per figure of the paper's evaluation chapters, plus the
// ablations DESIGN.md calls out. Each bench runs a scaled-down version of
// its figure's workload (fewer nodes, shorter sessions, single repetition)
// and reports the figure's key series through b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates a quick-look version of every
// figure. Full-scale series come from `cmd/experiments`.
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

	"vdm/internal/flow"
	"vdm/internal/live"
	"vdm/internal/overlay"
	"vdm/internal/rng"
	"vdm/internal/scenario"
	"vdm/internal/sim"
)

// benchCh3 is the scaled chapter-3 setup (router underlay).
func benchCh3(seed int64) sim.Config {
	return sim.Config{
		Seed:              seed,
		Nodes:             80,
		DegreeMin:         2,
		DegreeMax:         5,
		JoinPhaseS:        400,
		IntervalS:         400,
		SettleS:           100,
		SpreadS:           50,
		DurationS:         1700,
		DataRate:          1,
		Underlay:          sim.Router,
		RouterMin:         300,
		HMTPRefinePeriodS: 300,
	}
}

// benchCh5 is the scaled chapter-5 setup (synthetic PlanetLab).
func benchCh5(seed int64) sim.Config {
	return sim.Config{
		Seed:              seed,
		Nodes:             60,
		DegreeMin:         4,
		DegreeMax:         4,
		JoinPhaseS:        400,
		IntervalS:         400,
		SettleS:           100,
		SpreadS:           50,
		DurationS:         1700,
		DataRate:          5,
		Underlay:          sim.Geo,
		GeoUSOnly:         true,
		HMTPRefinePeriodS: 30,
	}
}

func mustRun(b *testing.B, cfg sim.Config) *sim.Result {
	b.Helper()
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchVsHMTP runs VDM and HMTP on the same scenario and reports one
// metric for each — the head-to-head figures.
func benchVsHMTP(b *testing.B, base func(int64) sim.Config, churn float64, metric string, get func(*sim.Result) float64) {
	for i := 0; i < b.N; i++ {
		cfg := base(int64(i) + 1)
		cfg.ChurnPct = churn
		cfg.Protocol = sim.VDM
		v := mustRun(b, cfg)
		cfg.Protocol = sim.HMTP
		h := mustRun(b, cfg)
		b.ReportMetric(get(v), "vdm_"+metric)
		b.ReportMetric(get(h), "hmtp_"+metric)
	}
}

// benchSweep runs VDM at two sweep points and reports the metric at both —
// the single-protocol sweep figures.
func benchSweep(b *testing.B, base func(int64) sim.Config, metric string,
	xs []float64, apply func(*sim.Config, float64), get func(*sim.Result) float64) {
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			cfg := base(int64(i) + 1)
			cfg.Protocol = sim.VDM
			apply(&cfg, x)
			res := mustRun(b, cfg)
			b.ReportMetric(get(res), fmt.Sprintf("%s_at_%g", metric, x))
		}
	}
}

// --- Chapter 3: VDM vs HMTP vs churn (figures 3.25–3.28) ---

func BenchmarkFig3_25_StressVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh3, 5, "stress", func(r *sim.Result) float64 { return r.Stress })
}

func BenchmarkFig3_26_StretchVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh3, 5, "stretch", func(r *sim.Result) float64 { return r.Stretch })
}

func BenchmarkFig3_27_LossVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh3, 10, "loss_pct", func(r *sim.Result) float64 { return r.Loss * 100 })
}

func BenchmarkFig3_28_OverheadVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh3, 10, "overhead_pct", func(r *sim.Result) float64 { return r.Overhead * 100 })
}

// --- Chapter 3: VDM vs number of nodes (figures 3.29–3.32) ---

var ch3NodeXs = []float64{50, 150}

func applyNodes(cfg *sim.Config, x float64) {
	cfg.Nodes = int(x)
	cfg.ChurnPct = 5
}

func BenchmarkFig3_29_StressVsNodes(b *testing.B) {
	benchSweep(b, benchCh3, "stress", ch3NodeXs, applyNodes, func(r *sim.Result) float64 { return r.Stress })
}

func BenchmarkFig3_30_StretchVsNodes(b *testing.B) {
	benchSweep(b, benchCh3, "stretch", ch3NodeXs, applyNodes, func(r *sim.Result) float64 { return r.Stretch })
}

func BenchmarkFig3_31_LossVsNodes(b *testing.B) {
	benchSweep(b, benchCh3, "loss_pct", ch3NodeXs, applyNodes, func(r *sim.Result) float64 { return r.Loss * 100 })
}

func BenchmarkFig3_32_OverheadVsNodes(b *testing.B) {
	benchSweep(b, benchCh3, "overhead_pct", ch3NodeXs, applyNodes, func(r *sim.Result) float64 { return r.Overhead * 100 })
}

// --- Chapter 3: VDM vs node degree (figures 3.33–3.36) ---

var ch3DegreeXs = []float64{1.5, 5}

func applyDegree(cfg *sim.Config, x float64) {
	cfg.AvgDegree = x
	cfg.ChurnPct = 5
}

func BenchmarkFig3_33_StressVsDegree(b *testing.B) {
	benchSweep(b, benchCh3, "stress", ch3DegreeXs, applyDegree, func(r *sim.Result) float64 { return r.Stress })
}

func BenchmarkFig3_34_StretchVsDegree(b *testing.B) {
	benchSweep(b, benchCh3, "stretch", ch3DegreeXs, applyDegree, func(r *sim.Result) float64 { return r.Stretch })
}

func BenchmarkFig3_35_LossVsDegree(b *testing.B) {
	benchSweep(b, benchCh3, "loss_pct", ch3DegreeXs, applyDegree, func(r *sim.Result) float64 { return r.Loss * 100 })
}

func BenchmarkFig3_36_OverheadVsDegree(b *testing.B) {
	benchSweep(b, benchCh3, "overhead_pct", ch3DegreeXs, applyDegree, func(r *sim.Result) float64 { return r.Overhead * 100 })
}

// --- Chapter 4: VDM-D vs VDM-L over time (figures 4.6–4.9) ---

func benchCh4(b *testing.B, metric string, get func(*sim.Result) float64, unit string) {
	for i := 0; i < b.N; i++ {
		for _, vd := range []string{"delay", "loss"} {
			cfg := sim.Config{
				Seed:        int64(i) + 1,
				Protocol:    sim.VDM,
				Metric:      vd,
				Nodes:       120,
				BatchSize:   30,
				IntervalS:   200,
				SettleS:     40,
				SpreadS:     60,
				DegreeMin:   2,
				DegreeMax:   5,
				DataRate:    1,
				Underlay:    sim.Router,
				RouterMin:   300,
				LinkLossMax: 0.02,
			}
			res := mustRun(b, cfg)
			label := "vdmD_" + unit
			if vd == "loss" {
				label = "vdmL_" + unit
			}
			b.ReportMetric(get(res), label)
		}
	}
	_ = metric
}

func BenchmarkFig4_6_StressVsTime(b *testing.B) {
	benchCh4(b, "stress", func(r *sim.Result) float64 { return r.Stress }, "stress")
}

func BenchmarkFig4_7_StretchVsTime(b *testing.B) {
	benchCh4(b, "stretch", func(r *sim.Result) float64 { return r.Stretch }, "stretch")
}

func BenchmarkFig4_8_LossVsTime(b *testing.B) {
	benchCh4(b, "loss", func(r *sim.Result) float64 { return r.Loss * 100 }, "loss_pct")
}

func BenchmarkFig4_9_OverheadVsTime(b *testing.B) {
	benchCh4(b, "overhead", func(r *sim.Result) float64 { return r.Overhead * 100 }, "overhead_pct")
}

// --- Chapter 5: VDM vs HMTP vs churn (figures 5.7–5.13) ---

func BenchmarkFig5_7_StartupVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh5, 6, "startup_s", func(r *sim.Result) float64 { return r.StartupAvg })
}

func BenchmarkFig5_8_ReconnectVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh5, 6, "reconn_s", func(r *sim.Result) float64 { return r.ReconnAvg })
}

func BenchmarkFig5_9_StretchVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh5, 6, "stretch", func(r *sim.Result) float64 { return r.Stretch })
}

func BenchmarkFig5_10_HopcountVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh5, 6, "hopcount", func(r *sim.Result) float64 { return r.Hopcount })
}

func BenchmarkFig5_11_UsageVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh5, 6, "usage", func(r *sim.Result) float64 { return r.UsageNorm })
}

func BenchmarkFig5_12_LossVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh5, 6, "loss_pct", func(r *sim.Result) float64 { return r.Loss * 100 })
}

func BenchmarkFig5_13_OverheadVsChurn(b *testing.B) {
	benchVsHMTP(b, benchCh5, 6, "overhead", func(r *sim.Result) float64 { return r.Overhead })
}

// --- Chapter 5: VDM vs number of nodes (figures 5.14–5.20) ---

var ch5NodeXs = []float64{30, 60}

func applyCh5Nodes(cfg *sim.Config, x float64) {
	cfg.Nodes = int(x)
	cfg.ChurnPct = 10
}

func BenchmarkFig5_14_StartupVsNodes(b *testing.B) {
	benchSweep(b, benchCh5, "startup_s", ch5NodeXs, applyCh5Nodes, func(r *sim.Result) float64 { return r.StartupAvg })
}

func BenchmarkFig5_15_ReconnectVsNodes(b *testing.B) {
	benchSweep(b, benchCh5, "reconn_s", ch5NodeXs, applyCh5Nodes, func(r *sim.Result) float64 { return r.ReconnAvg })
}

func BenchmarkFig5_16_StretchVsNodes(b *testing.B) {
	benchSweep(b, benchCh5, "stretch", ch5NodeXs, applyCh5Nodes, func(r *sim.Result) float64 { return r.Stretch })
}

func BenchmarkFig5_17_HopcountVsNodes(b *testing.B) {
	benchSweep(b, benchCh5, "hopcount", ch5NodeXs, applyCh5Nodes, func(r *sim.Result) float64 { return r.Hopcount })
}

func BenchmarkFig5_18_UsageVsNodes(b *testing.B) {
	benchSweep(b, benchCh5, "usage", ch5NodeXs, applyCh5Nodes, func(r *sim.Result) float64 { return r.UsageNorm })
}

func BenchmarkFig5_19_LossVsNodes(b *testing.B) {
	benchSweep(b, benchCh5, "loss_pct", ch5NodeXs, applyCh5Nodes, func(r *sim.Result) float64 { return r.Loss * 100 })
}

func BenchmarkFig5_20_OverheadVsNodes(b *testing.B) {
	benchSweep(b, benchCh5, "overhead", ch5NodeXs, applyCh5Nodes, func(r *sim.Result) float64 { return r.Overhead })
}

// --- Chapter 5: VDM vs node degree (figures 5.21–5.27) ---

var ch5DegreeXs = []float64{2, 5}

func applyCh5Degree(cfg *sim.Config, x float64) {
	cfg.DegreeMin = int(x)
	cfg.DegreeMax = int(x)
	cfg.ChurnPct = 10
}

func BenchmarkFig5_21_StartupVsDegree(b *testing.B) {
	benchSweep(b, benchCh5, "startup_s", ch5DegreeXs, applyCh5Degree, func(r *sim.Result) float64 { return r.StartupAvg })
}

func BenchmarkFig5_22_ReconnectVsDegree(b *testing.B) {
	benchSweep(b, benchCh5, "reconn_s", ch5DegreeXs, applyCh5Degree, func(r *sim.Result) float64 { return r.ReconnAvg })
}

func BenchmarkFig5_23_StretchVsDegree(b *testing.B) {
	benchSweep(b, benchCh5, "stretch", ch5DegreeXs, applyCh5Degree, func(r *sim.Result) float64 { return r.Stretch })
}

func BenchmarkFig5_24_HopcountVsDegree(b *testing.B) {
	benchSweep(b, benchCh5, "hopcount", ch5DegreeXs, applyCh5Degree, func(r *sim.Result) float64 { return r.Hopcount })
}

func BenchmarkFig5_25_UsageVsDegree(b *testing.B) {
	benchSweep(b, benchCh5, "usage", ch5DegreeXs, applyCh5Degree, func(r *sim.Result) float64 { return r.UsageNorm })
}

func BenchmarkFig5_26_LossVsDegree(b *testing.B) {
	benchSweep(b, benchCh5, "loss_pct", ch5DegreeXs, applyCh5Degree, func(r *sim.Result) float64 { return r.Loss * 100 })
}

func BenchmarkFig5_27_OverheadVsDegree(b *testing.B) {
	benchSweep(b, benchCh5, "overhead", ch5DegreeXs, applyCh5Degree, func(r *sim.Result) float64 { return r.Overhead })
}

// --- Chapter 5: refinement component (figures 5.28–5.30) ---

func benchRefine(b *testing.B, metric string, get func(*sim.Result) float64) {
	for i := 0; i < b.N; i++ {
		cfg := benchCh5(int64(i) + 1)
		cfg.Nodes = 40
		cfg.ChurnPct = 10
		cfg.Protocol = sim.VDM
		plain := mustRun(b, cfg)
		cfg.VDMRefinePeriodS = 300
		refined := mustRun(b, cfg)
		b.ReportMetric(get(plain), "vdm_"+metric)
		b.ReportMetric(get(refined), "vdmR_"+metric)
	}
}

func BenchmarkFig5_28_RefineStretch(b *testing.B) {
	benchRefine(b, "stretch", func(r *sim.Result) float64 { return r.Stretch })
}

func BenchmarkFig5_29_RefineHopcount(b *testing.B) {
	benchRefine(b, "hopcount", func(r *sim.Result) float64 { return r.Hopcount })
}

func BenchmarkFig5_30_RefineOverhead(b *testing.B) {
	benchRefine(b, "overhead", func(r *sim.Result) float64 { return r.Overhead })
}

// --- Chapter 5: MST comparison (figure 5.31) ---

func BenchmarkFig5_31_MSTRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{20, 40} {
			cfg := benchCh5(int64(i) + 1)
			cfg.Nodes = n
			cfg.ChurnPct = 0
			cfg.DegreeMin = 64
			cfg.DegreeMax = 64
			cfg.Protocol = sim.VDM
			cfg.ComputeMST = true
			res := mustRun(b, cfg)
			b.ReportMetric(res.MSTRatio, fmt.Sprintf("mst_ratio_at_%d", n))
		}
	}
}

// --- Ablations ---

// BenchmarkAblationCollinearity sweeps the γ threshold of the
// directionality test.
func BenchmarkAblationCollinearity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, g := range []float64{0.7, 0.85, 0.95} {
			cfg := benchCh3(int64(i) + 1)
			cfg.Protocol = sim.VDM
			cfg.ChurnPct = 5
			cfg.Gamma = g
			res := mustRun(b, cfg)
			b.ReportMetric(res.Stretch, fmt.Sprintf("stretch_g%.2f", g))
		}
	}
}

// BenchmarkAblationRefinePeriod sweeps VDM's refinement period.
func BenchmarkAblationRefinePeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []float64{60, 300} {
			cfg := benchCh5(int64(i) + 1)
			cfg.Nodes = 40
			cfg.ChurnPct = 10
			cfg.Protocol = sim.VDM
			cfg.VDMRefinePeriodS = p
			res := mustRun(b, cfg)
			b.ReportMetric(res.Overhead, fmt.Sprintf("overhead_p%g", p))
			b.ReportMetric(res.Stretch, fmt.Sprintf("stretch_p%g", p))
		}
	}
}

// BenchmarkAblationReconnectStart compares grandparent-first recovery with
// source-only recovery.
func BenchmarkAblationReconnectStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCh5(int64(i) + 1)
		cfg.ChurnPct = 10
		cfg.Protocol = sim.VDM
		gp := mustRun(b, cfg)
		cfg.VDMReconnectAtSrc = true
		src := mustRun(b, cfg)
		b.ReportMetric(gp.ReconnAvg, "reconn_s_grandparent")
		b.ReportMetric(src.ReconnAvg, "reconn_s_source")
	}
}

// BenchmarkAblationBaselines places VDM on the protocol spectrum.
func BenchmarkAblationBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []sim.ProtocolKind{sim.VDM, sim.HMTP, sim.BTP, sim.NICE, sim.Random} {
			cfg := benchCh3(int64(i) + 1)
			cfg.ChurnPct = 5
			cfg.Protocol = p
			res := mustRun(b, cfg)
			b.ReportMetric(res.Stretch, string(p)+"_stretch")
		}
	}
}

// BenchmarkAblationFosterJoin measures the quick-start: foster startup
// should be a small fraction of the regular join's.
func BenchmarkAblationFosterJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCh5(int64(i) + 1)
		cfg.ChurnPct = 6
		cfg.Protocol = sim.VDM
		plain := mustRun(b, cfg)
		cfg.VDMFosterJoin = true
		foster := mustRun(b, cfg)
		b.ReportMetric(plain.StartupAvg, "startup_s_regular")
		b.ReportMetric(foster.StartupAvg, "startup_s_foster")
		b.ReportMetric(foster.Stretch, "stretch_foster")
	}
}

// BenchmarkAblationBandwidthDegrees compares uniform degree draws with
// the future-work bandwidth-derived assignment.
func BenchmarkAblationBandwidthDegrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCh3(int64(i) + 1)
		cfg.ChurnPct = 5
		uniform := mustRun(b, cfg)
		cfg.DegreeFromBandwidth = true
		bw := mustRun(b, cfg)
		b.ReportMetric(uniform.Stretch, "stretch_uniform")
		b.ReportMetric(bw.Stretch, "stretch_bandwidth")
		b.ReportMetric(bw.MaxHopcount, "maxhop_bandwidth")
	}
}

// BenchmarkEngineThroughput measures raw engine speed: events per second
// on a mid-size churning session.
func BenchmarkEngineThroughput(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := benchCh3(int64(i) + 1)
		cfg.ChurnPct = 10
		res := mustRun(b, cfg)
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
