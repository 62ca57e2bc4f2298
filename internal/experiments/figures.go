package experiments

import "vdm/internal/sim"

// specs are the experiment groups, in the order -all runs them: the
// ablations, then the figures of chapters 3, 4 and 5.
var specs = []*spec{
	// γ, the collinearity threshold of the directionality test, is the one
	// free parameter the dissertation leaves implicit. Small γ declares
	// almost every triple directional (aggressive descent, deeper trees);
	// γ→1 degenerates toward "connect to the source's vicinity".
	{
		group: "ablation-gamma", xlabel: "gamma",
		figs: []figure{{id: "A.1", title: "VDM metrics vs. collinearity threshold γ",
			cols: []col{{"stress", stress}, {"stretch", stretch}, {"hopcount", hopcount}, {"overhead", overheadPct}}}},
		xs:       []float64{0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99},
		base:     ch3Base,
		at:       func(c *sim.Config, x float64) { c.ChurnPct, c.Gamma = 5, x },
		variants: vdmOnly,
		cell:     func(xi, _ int) int { return 600 + xi },
	},
	// VDM's optional refinement period: the stretch/overhead trade-off
	// behind the paper's "frequency of refinement should be chosen
	// carefully" remark.
	{
		group: "ablation-refine", xlabel: "period (s)",
		figs: []figure{{id: "A.2", title: "VDM-R trade-off vs. refinement period (s)",
			cols: []col{{"stretch", stretch}, {"hopcount", hopcount}, {"overhead", overhead}}}},
		xs:       []float64{60, 120, 300, 600},
		base:     ch5Base,
		at:       func(c *sim.Config, x float64) { c.Nodes, c.ChurnPct, c.VDMRefinePeriodS = 50, 10, x },
		variants: vdmOnly,
		cell:     func(xi, _ int) int { return 620 + xi },
	},
	// Grandparent-first recovery (the paper's rule) against restarting
	// every reconnection at the source.
	{
		group: "ablation-reconnect", xlabel: "churn (%)",
		figs: []figure{
			{id: "A.3", title: "Reconnection time (s): grandparent-first vs source-only", y: reconnect},
			{id: "A.3b", title: "Loss rate (%): grandparent-first vs source-only", y: lossPct},
		},
		xs:   []float64{5, 10},
		base: ch5Base,
		at:   func(c *sim.Config, x float64) { c.ChurnPct = x },
		variants: []variant{
			{"grandparent", nil},
			{"source", func(c *sim.Config) { c.VDMReconnectAtSrc = true }},
		},
		cell: func(xi, _ int) int { return 640 + xi },
	},
	// VDM on the baseline spectrum: HMTP (closest-child descent), BTP (root
	// attach + sibling switch), NICE, and an uninformed random join, all
	// on the same scenarios.
	{
		group: "ablation-baselines", xlabel: "protocol",
		figs: []figure{{id: "A.4", title: "Protocol spectrum at 5% churn (x = protocol index: 1 VDM, 2 HMTP, 3 BTP, 4 NICE, 5 Random)",
			cols: []col{{"stress", stress}, {"stretch", stretch}, {"hopcount", hopcount}, {"loss%", lossPct}, {"overhead%", overheadPct}}}},
		xs:   []float64{1, 2, 3, 4, 5},
		base: ch3Base,
		at: func(c *sim.Config, x float64) {
			c.ChurnPct = 5
			c.Protocol = []sim.ProtocolKind{sim.VDM, sim.HMTP, sim.BTP, sim.NICE, sim.Random}[int(x)-1]
		},
		variants: []variant{{}},
		cell:     func(int, int) int { return 660 },
	},
	// The foster-join quick-start: startup time should collapse to roughly
	// one round trip while tree quality stays unchanged (the directional
	// search still runs, as a refinement).
	{
		group: "ablation-foster", xlabel: "churn (%)",
		figs: []figure{
			{id: "A.5", title: "Startup time (s): regular vs foster join", y: startup},
			{id: "A.5b", title: "Stretch: regular vs foster join", y: stretch},
			{id: "A.5c", title: "Loss (%): regular vs foster join", y: lossPct},
		},
		xs:   []float64{2, 10},
		base: ch5Base,
		at:   func(c *sim.Config, x float64) { c.ChurnPct = x },
		variants: []variant{
			{"VDM", nil},
			{"VDM-foster", func(c *sim.Config) { c.VDMFosterJoin = true }},
		},
		cell: func(xi, _ int) int { return 680 + xi },
	},
	// The paper's uniform degree draw against the future-work bandwidth-
	// derived degrees: heterogeneous capacities (some degree-1 stragglers,
	// some degree-8 hubs) versus the uniform [2,5] mix.
	{
		group: "ablation-bwdegree", xlabel: "variant (1=uniform, 2=bandwidth)",
		figs: []figure{{id: "A.6", title: "Degree assignment: uniform vs bandwidth-derived",
			cols: []col{{"stretch", stretch}, {"hopcount", hopcount}, {"loss%", lossPct}, {"maxhop", func(r *sim.Result) float64 { return r.MaxHopcount }}}}},
		xs:       []float64{1, 2},
		base:     ch3Base,
		at:       func(c *sim.Config, x float64) { c.ChurnPct, c.DegreeFromBandwidth = 5, x == 2 },
		variants: vdmOnly,
		cell:     func(int, int) int { return 700 },
	},
	// Figure 5.31 against the fairer yardstick: a degree-limited overlay
	// cannot reach the unconstrained MST, so the interesting gap is to the
	// degree-constrained spanning-tree heuristic.
	{
		group: "ablation-dcmst", xlabel: "nodes",
		figs: []figure{{id: "A.7", title: "VDM tree cost vs MST and degree-constrained MST (degree 4)",
			cols: []col{{"vs-MST", mstRatio}, {"vs-DCMST", func(r *sim.Result) float64 { return r.DCMSTRatio }}}}},
		xs:       []float64{10, 20, 30, 40, 50},
		base:     ch5Base,
		at:       func(c *sim.Config, x float64) { c.Nodes, c.ChurnPct, c.ComputeMST = int(x), 0, true },
		variants: vdmOnly,
		cell:     func(xi, _ int) int { return 720 + xi },
	},
	// The paper's synchronized interval churn (10% of the population
	// replaced every 400 s) against exponential lifetimes of the same
	// per-node turnover (mean 4000 s): burstiness is the variable, not
	// volume.
	{
		group: "ablation-churnmodel", xlabel: "model",
		figs: []figure{{id: "A.8", title: "Churn model at equal turnover (1=interval bursts, 2=exponential lifetimes)",
			cols: []col{{"loss%", lossPct}, {"reconn_s", reconnect}, {"stretch", stretch}, {"overhead%", overheadPct}}}},
		xs:   []float64{1, 2},
		base: ch3Base,
		at: func(c *sim.Config, x float64) {
			if x == 1 {
				c.ChurnPct = 10
			} else {
				c.MeanLifetimeS = 4000
			}
		},
		variants: vdmOnly,
		cell:     func(int, int) int { return 740 },
	},
	// Figures 3.25–3.28: VDM against HMTP versus churn rate, on the same
	// topology and scenarios.
	{
		group: "ch3-churn", xlabel: "churn (%)",
		figs:     ch3Figures([4]string{"3.25", "3.26", "3.27", "3.28"}, "Churn"),
		xs:       []float64{1, 3, 5, 7, 10},
		base:     ch3Base,
		at:       func(c *sim.Config, x float64) { c.ChurnPct = x },
		variants: vdmVsHMTP,
		cell:     func(xi, vi int) int { return xi*10 + vi },
	},
	// Figures 3.29–3.32: VDM versus overlay size.
	{
		group: "ch3-nodes", xlabel: "nodes",
		figs:     ch3Figures([4]string{"3.29", "3.30", "3.31", "3.32"}, "Number of Nodes"),
		xs:       []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000},
		base:     ch3Base,
		at:       func(c *sim.Config, x float64) { c.Nodes, c.ChurnPct = int(x), 5 },
		variants: vdmOnly,
		cell:     func(xi, _ int) int { return 100 + xi },
	},
	// Figures 3.33–3.36: VDM versus average node degree (fractional
	// averages realized as probabilistic mixes).
	{
		group: "ch3-degree", xlabel: "avg degree",
		figs:     ch3Figures([4]string{"3.33", "3.34", "3.35", "3.36"}, "Node Degree"),
		xs:       []float64{1.25, 1.5, 1.75, 2, 2.5, 3, 4, 5, 6, 7, 8},
		base:     ch3Base,
		at:       func(c *sim.Config, x float64) { c.AvgDegree, c.ChurnPct = x, 5 },
		variants: vdmOnly,
		cell:     func(xi, _ int) int { return 200 + xi },
	},
	// Figures 4.6–4.9: the generalized virtual distance. Every physical
	// link carries a random error rate in [0, 2%]; 50 nodes join per
	// 500-second interval (no churn) and the tree is measured after every
	// batch. VDM-D builds the tree over delay distances, VDM-L over loss
	// distances; VDM-L should win on loss and pay for it in stress and
	// stretch.
	{
		group: "ch4-time", xlabel: "time (s)",
		figs:   ch3Figures([4]string{"4.6", "4.7", "4.8", "4.9"}, "Time (VDM-D vs VDM-L)"),
		growth: true,
		base: func(o Options) sim.Config {
			return sim.Config{
				Protocol:    sim.VDM,
				Nodes:       500,
				BatchSize:   50,
				IntervalS:   500 * o.TimeScale,
				SettleS:     50 * o.TimeScale,
				SpreadS:     100 * o.TimeScale,
				DegreeMin:   2,
				DegreeMax:   5,
				DataRate:    1 * o.RateScale,
				Underlay:    sim.Router,
				RouterMin:   784,
				LinkLossMax: 0.02,
			}
		},
		variants: []variant{
			{"VDM-D", func(c *sim.Config) { c.Metric = "delay" }},
			{"VDM-L", func(c *sim.Config) { c.Metric = "loss" }},
		},
		cell: func(_, vi int) int { return 300 + vi },
	},
	// Figures 5.7–5.13: the seven PlanetLab metrics versus churn rate for
	// VDM and HMTP.
	{
		group: "ch5-churn", xlabel: "churn (%)",
		figs: []figure{
			{id: "5.7", title: "Startup Time (s) vs. Churn Rate", y: startup},
			{id: "5.8", title: "Reconnection Time (s) vs. Churn Rate", y: reconnect},
			{id: "5.9", title: "Stretch vs. Churn Rate", y: stretch},
			{id: "5.10", title: "Hopcount vs. Churn Rate", y: hopcount},
			{id: "5.11", title: "Resource usage vs. Churn Rate", y: func(r *sim.Result) float64 { return r.UsageNorm }},
			{id: "5.12", title: "Loss Rate (%) vs. Churn Rate", y: lossPct},
			{id: "5.13", title: "Overhead vs. Churn Rate", y: overhead},
		},
		xs:       []float64{2, 4, 6, 8, 10},
		base:     ch5Base,
		at:       func(c *sim.Config, x float64) { c.ChurnPct = x },
		variants: vdmVsHMTP,
		cell:     func(xi, vi int) int { return 400 + xi*10 + vi },
	},
	// Figures 5.14–5.20: VDM versus overlay size.
	{
		group: "ch5-nodes", xlabel: "Number Of Nodes",
		figs:     ch5Figures([7]string{"5.14", "5.15", "5.16", "5.17", "5.18", "5.19", "5.20"}, "Number Of Nodes"),
		xs:       []float64{20, 40, 60, 80, 100},
		base:     ch5Base,
		at:       func(c *sim.Config, x float64) { c.ChurnPct, c.Nodes = 10, int(x) },
		variants: vdmOnly,
		cell:     func(xi, _ int) int { return 500 + xi },
	},
	// Figures 5.21–5.27: VDM versus node degree.
	{
		group: "ch5-degree", xlabel: "Node Degree",
		figs:     ch5Figures([7]string{"5.21", "5.22", "5.23", "5.24", "5.25", "5.26", "5.27"}, "Node Degree"),
		xs:       []float64{2, 3, 4, 5, 6, 7, 8},
		base:     ch5Base,
		at:       func(c *sim.Config, x float64) { c.ChurnPct, c.DegreeMin, c.DegreeMax = 10, int(x), int(x) },
		variants: vdmOnly,
		cell:     func(xi, _ int) int { return 520 + xi },
	},
	// Figures 5.28–5.30: what the 5-minute refinement buys (stretch,
	// hopcount) and costs (overhead), on the same seeds for both variants.
	{
		group: "ch5-refine", xlabel: "nodes",
		figs: []figure{
			{id: "5.28", title: "Stretch with/without Refinement", y: stretch},
			{id: "5.29", title: "Hopcount with/without Refinement", y: hopcount},
			{id: "5.30", title: "Overhead cost of Refinement", y: overhead},
		},
		xs:   []float64{10, 20, 30, 40, 50},
		base: ch5Base,
		at:   func(c *sim.Config, x float64) { c.Nodes, c.ChurnPct = int(x), 10 },
		variants: []variant{
			{"VDM", nil},
			{"VDM-R", func(c *sim.Config) { c.VDMRefinePeriodS = 300 }},
		},
		cell: func(xi, _ int) int { return 540 + xi },
	},
	// Figure 5.31: how far the VDM tree sits from the minimum spanning
	// tree as the overlay grows, degree limits lifted as in the paper.
	{
		group: "ch5-mst", xlabel: "nodes",
		figs: []figure{{id: "5.31", title: "Tree cost / MST cost", y: mstRatio}},
		xs:   []float64{10, 20, 30, 40, 50},
		base: ch5Base,
		at: func(c *sim.Config, x float64) {
			c.Nodes, c.ChurnPct, c.DegreeMin, c.DegreeMax, c.ComputeMST = int(x), 0, 64, 64, true
		},
		variants: vdmOnly,
		cell:     func(xi, _ int) int { return 560 + xi },
	},
}

var (
	vdmOnly   = []variant{{"VDM", nil}}
	vdmVsHMTP = []variant{{"VDM", nil}, {"HMTP", func(c *sim.Config) { c.Protocol = sim.HMTP }}}
)

// ch3Base is the chapter-3 NS-2-style setup: a ~784-router transit-stub
// topology, 200 overlay nodes with degree limits in [2,5], 10000-second
// sessions with a 2000-second join phase and 400-second churn intervals.
func ch3Base(o Options) sim.Config {
	cfg := sim.Config{
		Protocol:  sim.VDM,
		Nodes:     200,
		DegreeMin: 2,
		DegreeMax: 5,
		// HMTP refines less often here than in the chapter-5 PlanetLab
		// setup (its default, 30 s): at the simulations' 1 chunk/s stream
		// a 30-second refinement would drown the overhead metric, while
		// the paper reports HMTP at roughly twice VDM's overhead.
		HMTPRefinePeriodS: 300,
		JoinPhaseS:        2000 * o.TimeScale,
		DurationS:         10000 * o.TimeScale,
		IntervalS:         400,
		SettleS:           100,
		SpreadS:           50,
		DataRate:          1 * o.RateScale,
		Underlay:          sim.Router,
		RouterMin:         784,
	}
	// Keep at least one churn interval when time is scaled down hard.
	if cfg.DurationS < cfg.JoinPhaseS+cfg.IntervalS+cfg.SettleS {
		cfg.DurationS = cfg.JoinPhaseS + cfg.IntervalS + cfg.SettleS
	}
	return cfg
}

// ch5Base is the chapter-5 synthetic-PlanetLab setup, placed by
// lab.Configure (node-selection pipeline, Colorado source, pool
// sampling): 100 US nodes, fixed degree 4, 5000-second sessions with a
// 2000-second join phase and churn during the remaining 3000 seconds, a
// 10-chunks/s stream, HMTP refinement at its 30-second default.
func ch5Base(o Options) sim.Config {
	cfg := sim.Config{
		Protocol:   sim.VDM,
		Nodes:      100,
		DegreeMin:  4,
		DegreeMax:  4,
		JoinPhaseS: 2000 * o.TimeScale,
		DurationS:  5000 * o.TimeScale,
		DataRate:   10 * o.RateScale,
		Underlay:   sim.Geo,
		GeoUSOnly:  true,
	}
	if cfg.DurationS < cfg.JoinPhaseS+500 {
		cfg.DurationS = cfg.JoinPhaseS + 500
	}
	return cfg
}

// ch3Figures are the chapter-3/4 metrics versus vs, one figure each.
func ch3Figures(ids [4]string, vs string) []figure {
	return []figure{
		{id: ids[0], title: "Stress vs. " + vs, y: stress},
		{id: ids[1], title: "Stretch vs. " + vs, y: stretch},
		{id: ids[2], title: "Loss rate (%) vs. " + vs, y: lossPct},
		{id: ids[3], title: "Overhead (%) vs. " + vs, y: overheadPct},
	}
}

// ch5Figures are the chapter-5 VDM sweeps' figures: avg/max startup and
// reconnection time, min/avg/leaf/max stretch, avg/leaf/max hopcount,
// usage, loss and overhead versus vs.
func ch5Figures(ids [7]string, vs string) []figure {
	return []figure{
		{id: ids[0], title: "Startup Time (s) vs. " + vs, cols: []col{
			{"avg", startup}, {"max", func(r *sim.Result) float64 { return r.StartupMax }}}},
		{id: ids[1], title: "Reconnection Time (s) vs. " + vs, cols: []col{
			{"avg", reconnect}, {"max", func(r *sim.Result) float64 { return r.ReconnMax }}}},
		{id: ids[2], title: "Stretch vs. " + vs, cols: []col{
			{"min", func(r *sim.Result) float64 { return r.MinStretch }},
			{"avg", stretch},
			{"leaf-avg", func(r *sim.Result) float64 { return r.LeafStretch }},
			{"max", func(r *sim.Result) float64 { return r.MaxStretch }}}},
		{id: ids[3], title: "Hopcount vs. " + vs, cols: []col{
			{"avg", hopcount},
			{"leaf-avg", func(r *sim.Result) float64 { return r.LeafHopcount }},
			{"max", func(r *sim.Result) float64 { return r.MaxHopcount }}}},
		// The paper plots the (normalized) *total* used-link length, which
		// grows with N; normalizing by the unicast-star cost would cancel
		// that growth, so the sweeps report the raw total in seconds.
		{id: ids[4], title: "Resource Usage (total edge RTT, s) vs. " + vs, cols: []col{
			{"avg", func(r *sim.Result) float64 { return r.UsageMS / 1000 }}}},
		{id: ids[5], title: "Loss Rate (%) vs. " + vs, cols: []col{{"avg", lossPct}}},
		{id: ids[6], title: "Overhead vs. " + vs, cols: []col{{"avg", overhead}}},
	}
}

// The metrics more than one figure plots.
func stress(r *sim.Result) float64      { return r.Stress }
func stretch(r *sim.Result) float64     { return r.Stretch }
func hopcount(r *sim.Result) float64    { return r.Hopcount }
func lossPct(r *sim.Result) float64     { return r.Loss * 100 }
func overhead(r *sim.Result) float64    { return r.Overhead }
func overheadPct(r *sim.Result) float64 { return r.Overhead * 100 }
func startup(r *sim.Result) float64     { return r.StartupAvg }
func reconnect(r *sim.Result) float64   { return r.ReconnAvg }
func mstRatio(r *sim.Result) float64    { return r.MSTRatio }
