// Package sim runs complete overlay multicast sessions: it builds an
// underlay (router-graph or synthetic-PlanetLab), spawns a protocol
// instance per scripted membership, streams sequence-numbered chunks from
// the source, replays a churn scenario, and measures the paper's metrics
// at the scripted instants. Both the NS-2-style chapter-3/4 experiments
// and the PlanetLab-style chapter-5 emulations are sessions; only the
// underlay and the reported metric set differ.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"vdm/internal/btp"
	"vdm/internal/core"
	"vdm/internal/eventq"
	"vdm/internal/geo"
	"vdm/internal/hmtp"
	"vdm/internal/metrics"
	"vdm/internal/mst"
	"vdm/internal/nice"
	"vdm/internal/obs"
	"vdm/internal/obs/simprof"
	"vdm/internal/overlay"
	"vdm/internal/randjoin"
	"vdm/internal/rng"
	"vdm/internal/scenario"
	"vdm/internal/stats"
	"vdm/internal/topology"
	"vdm/internal/underlay"
	"vdm/internal/vdist"
)

// ProtocolKind selects the overlay multicast protocol under test.
type ProtocolKind string

// The implemented protocols.
const (
	VDM    ProtocolKind = "vdm"
	HMTP   ProtocolKind = "hmtp"
	BTP    ProtocolKind = "btp"
	NICE   ProtocolKind = "nice"
	Random ProtocolKind = "random"
)

// UnderlayKind selects the physical network model.
type UnderlayKind string

// The implemented underlays.
const (
	// Router is the GT-ITM-style transit-stub router graph of the
	// chapter-3/4 simulations.
	Router UnderlayKind = "router"
	// Geo is the synthetic PlanetLab of the chapter-5 emulations.
	Geo UnderlayKind = "geo"
)

// Config describes one session.
type Config struct {
	Seed     int64
	Protocol ProtocolKind
	// Metric selects the virtual distance: "delay" (default), "loss",
	// or "bandwidth".
	Metric string

	Nodes int // steady-state population (excluding the source)

	// Degree limits: either a uniform integer range [DegreeMin,
	// DegreeMax] per node, or — when AvgDegree > 0 — the fractional-
	// average scheme of the degree sweeps (average 1.25 means 75%
	// degree-1, 25% degree-2 nodes).
	DegreeMin, DegreeMax int
	AvgDegree            float64

	// DegreeFromBandwidth implements the dissertation's future-work
	// item "a system is required to measure and determine the degree of
	// each node [which] depends on outgoing bandwidth of nodes": each
	// node's degree becomes floor(uplink / streamKbps), clamped to
	// [1, degreeCap], with uplinks drawn lognormally.
	DegreeFromBandwidth bool

	// Protocol knobs.
	Gamma             float64 // VDM collinearity threshold (0 = default)
	VDMRefinePeriodS  float64 // 0 = off (the paper's regular setup)
	VDMReconnectAtSrc bool    // ablation: reconnect at source, not grandparent
	VDMFosterJoin     bool    // quick-start: attach to the source immediately
	HMTPRefinePeriodS float64 // 0 = HMTP default (30 s)

	// Workload.
	ChurnPct float64 // interval churn percentage (0 = none)
	// MeanLifetimeS switches to the exponential-lifetime churn model:
	// Poisson arrivals, exponential memberships with this mean
	// (ChurnPct is then ignored).
	MeanLifetimeS float64
	JoinPhaseS    float64
	IntervalS     float64
	SettleS       float64
	SpreadS       float64
	DurationS     float64
	// BatchSize switches to the chapter-4 growth workload: Nodes join
	// in batches of BatchSize, one per IntervalS, no churn.
	BatchSize int

	DataRate float64 // chunks per second

	// Underlay.
	Underlay UnderlayKind
	// RouterJitterSigma adds lognormal queueing jitter to deliveries and
	// probe measurements on the router underlay (NS-2 probes see cross-
	// traffic variation too). Negative disables; zero selects 0.1.
	RouterJitterSigma float64
	RouterMin         int     // minimum router count (default 784)
	LinkLossMax       float64 // chapter-4 per-link error ceiling
	// GeoUSOnly restricts a generated synthetic PlanetLab to its US sites
	// (chapter 5). A worldwide one grows to fit a set Nodes (see
	// geoSitesPerRegion).
	GeoUSOnly bool
	// GeoModel and GeoSites, when set together, bypass generation and
	// site selection: the session runs on the given model with host i
	// at GeoSites[i] (host 0 = source). The lab front end uses this
	// after its node-selection pipeline.
	GeoModel *geo.Model
	GeoSites []int

	// CtrlLossProb injects control-message loss (fault injection; the
	// paper's control plane runs over TCP, i.e. 0).
	CtrlLossProb float64

	// Analysis.
	ComputeMST bool // compute the tree/MST cost ratio at session end
	Validate   bool // check tree invariants at every measurement
	// Trace, when set, observes every message send: virtual time,
	// endpoints, and the message type name (e.g. "overlay.ConnRequest").
	Trace func(at float64, from, to int, msgType string)
	// EventSink, when set, receives structured protocol trace events
	// (obs.Event) from every VDM node — the same JSONL schema the live
	// runtime emits, so offline traces and wire traces are comparable.
	EventSink obs.Sink
	// StatusPeriodS enables the tree-health telemetry on every peer: the
	// same StatusReport schema the live runtime sends over the wire,
	// emitted synchronously on the virtual clock. Zero disables it, which
	// keeps experiment outputs byte-identical to sessions without it.
	StatusPeriodS float64
	// StatusHandler receives the reports at the source (typically a
	// tree.Aggregator's Handler). Ignored when StatusPeriodS is zero.
	StatusHandler overlay.StatusHandler

	// Scenario overrides the generated workload when non-nil. Run, like
	// scenario.Read, refuses a script that fails scenario.Check, and
	// checks a generated script the same way.
	Scenario *scenario.Scenario

	// Shards selects the driver of the session: 0 (the default) runs one
	// event queue to the end — the serial engine, and the reference the
	// parity suite compares against; S ≥ 1 runs S queues under the
	// conservative-lookahead epoch controller (S = 1 included — it
	// exercises the same epoch machinery with one worker). Both advance
	// the same session state and produce byte-identical results at every
	// S; see internal/sim/sharded.go.
	Shards int

	// Progress, when set, receives a ProgressInfo roughly every
	// ProgressEveryS simulated seconds: at epoch barriers on the sharded
	// engine, at interval boundaries on the serial engine. ProgressEveryS
	// = 0 reports at every opportunity.
	Progress       func(ProgressInfo)
	ProgressEveryS float64

	// Profile, when non-nil with a destination writer, turns on the
	// simulation flight recorder: a versioned JSONL stream of engine and
	// protocol telemetry (see internal/obs/simprof), written per fixed
	// interval of simulated time on the serial engine and per flush
	// barrier on the sharded engine. Recording is strictly observational:
	// profiled and unprofiled sessions produce byte-identical Results
	// (pinned by TestProfiledRunsAreByteIdentical).
	Profile *simprof.Options
}

func (c Config) withDefaults() Config {
	if c.Protocol == "" {
		c.Protocol = VDM
	}
	if c.Metric == "" {
		c.Metric = "delay"
	}
	if c.Nodes <= 0 {
		c.Nodes = 200
	}
	if c.DegreeMin <= 0 {
		c.DegreeMin = 2
	}
	if c.DegreeMax < c.DegreeMin {
		c.DegreeMax = 5
	}
	if c.JoinPhaseS <= 0 {
		c.JoinPhaseS = 2000
	}
	if c.IntervalS <= 0 {
		c.IntervalS = 400
	}
	if c.SettleS <= 0 {
		c.SettleS = 100
	}
	if c.SpreadS <= 0 {
		c.SpreadS = c.SettleS / 2
	}
	if c.DurationS <= 0 {
		c.DurationS = 10000
	}
	if c.DataRate <= 0 {
		c.DataRate = 1
	}
	if c.Underlay == "" {
		c.Underlay = Router
	}
	if c.RouterMin <= 0 {
		c.RouterMin = 784
	}
	return c
}

// Sample is the state of the session at one measurement instant.
type Sample struct {
	T        float64
	Tree     metrics.TreeSnapshot
	Loss     float64 // cumulative average per-peer loss rate so far
	Overhead float64 // cumulative control/data message ratio
}

// Result aggregates a finished session. Tree metrics are means over the
// measurement samples; loss, overhead and the timing metrics are
// session-cumulative, matching how the paper reports them.
type Result struct {
	Config  Config
	Samples []Sample

	Stress, MaxStress                   float64
	Stretch, MinStretch, MaxStretch     float64
	LeafStretch                         float64
	Hopcount, LeafHopcount, MaxHopcount float64
	UsageMS, UsageNorm                  float64

	Loss     float64
	Overhead float64

	StartupAvg, StartupMax float64
	ReconnAvg, ReconnMax   float64
	ReconnCount            int

	MSTRatio float64
	// DCMSTRatio compares against a degree-constrained spanning-tree
	// heuristic bounded by the session's maximum degree — the fairer
	// yardstick for a degree-limited overlay (exact DCMST is NP-hard).
	DCMSTRatio float64

	InvariantErrors []string
	EventsProcessed uint64
	FinalAlive      int
	FinalReachable  int
	FinalTree       []TreeEdge
}

// TreeEdge is one overlay edge of the final tree, for inspection and
// sample-tree rendering (figures 5.5/5.6).
type TreeEdge struct {
	Child, Parent int
	RTTms         float64
	Depth         int
	ChildLabel    string
	ParentLabel   string
}

// session is the state of one run, whichever driver advances it: the
// single-queue driver (Shards 0, drive) or the epoch controller (Shards
// ≥ 1, sharded.go). Everything the two share lives here — the roster,
// spawn and leave, the data ticker, measurement, validation and the final
// aggregation — so the drivers differ only in how they step the queues
// and where measurements fire.
type session struct {
	cfg     Config
	scn     *scenario.Scenario
	u       underlay.Underlay
	metric  vdist.Metric
	degrees []int

	// sims are the event queues and nets the bus on each: one pair under
	// the single-queue driver, one per shard under the epoch controller
	// (where router connects them). Slot i lives on queue owner[i], which
	// the underlay's Partition decides; lookahead (seconds) is the least
	// delay between two queues, +Inf with one.
	sims      []*eventq.Sim
	nets      []*overlay.Network
	router    *overlay.ShardRouter
	owner     []int
	lookahead float64
	// sink is the (lock-wrapped) trace sink spawned nodes emit to.
	sink obs.Sink

	// insts is the live roster, indexed by host slot (nil = slot not
	// alive), and all every membership's peer base, indexed by membership
	// ordinal (nil = not spawned yet). Dense slices instead of maps:
	// lookups are hot (every data tick and scenario event) and iteration
	// is sorted for free. Under the epoch controller shard goroutines
	// write both at disjoint indices (a slot belongs to one shard,
	// ordinals are precomputed) and the controller reads them only at
	// barriers, where the done-channel handshake orders the accesses.
	insts     []overlay.Protocol
	all       []*overlay.Peer
	protoSeed int64
	dataDT    float64
	samples   []Sample
	invErrs   []string
	// ctrlEvents counts the measures and follow-ups the epoch controller
	// runs itself instead of through a queue, for EventsProcessed parity.
	ctrlEvents uint64

	// scnFires and the tick record are the arg-carrying event slabs: one
	// contiguous allocation for the whole scenario instead of a closure
	// per membership event, and a single mutated record for the data
	// ticker.
	scnFires []scnFire
	tick     dataTick
}

// scnFire carries one scenario event through the event queue, already
// resolved against the membership timeline (planMemberships).
type scnFire struct {
	s      *session
	slot   int
	memIdx int // ≥ 0: spawn the slot as this membership ordinal; leaveMember: leave
}

// leaveMember marks a scnFire whose slot's current membership leaves.
const leaveMember = -1

// scnFireRun applies one scheduled membership event (arg: *scnFire).
func scnFireRun(a any) {
	f := a.(*scnFire)
	if f.memIdx == leaveMember {
		f.s.leave(f.slot)
	} else {
		f.s.spawn(f.slot, f.memIdx)
	}
}

// aliveSpan is one membership of a slot: [join, leave).
type aliveSpan struct{ join, leave float64 }

// aliveSpans is the membership timeline by slot. It exists so a sender
// can answer "is the destination registered at virtual time t?" without
// touching the destination's shard: a leave unregisters synchronously, so
// registration is a pure function of the scenario script.
type aliveSpans [][]aliveSpan

// planMemberships resolves the script into s.scnFires and returns the
// number of memberships (the source's included). newSession checked
// the script with scenario.Check, so every join starts a membership and
// every leave ends one; numbering them up front gives every membership
// its ordinal without coordination between queues. With withSpans it
// also returns the timeline of alive spans, which only a multi-queue
// fabric consults.
func (s *session) planMemberships(withSpans bool) (int, aliveSpans) {
	scn := s.scn
	s.scnFires = make([]scnFire, len(scn.Events))
	var spans aliveSpans
	if withSpans {
		spans = make(aliveSpans, scn.PoolSize)
		spans[0] = []aliveSpan{{0, math.Inf(1)}}
	}
	next := 1 // the source is membership 0, spawned at build time
	for i, ev := range scn.Events {
		f := scnFire{s: s, slot: ev.Slot, memIdx: leaveMember}
		if ev.Join {
			f.memIdx = next
			next++
			if withSpans {
				spans[ev.Slot] = append(spans[ev.Slot], aliveSpan{ev.T, math.Inf(1)})
			}
		} else if withSpans {
			sp := spans[ev.Slot]
			sp[len(sp)-1].leave = ev.T
		}
		s.scnFires[i] = f
	}
	return next, spans
}

// aliveAt reports whether slot id is registered at time t. A membership
// spans [join, leave): the join event registers at its own timestamp, the
// leave unregisters at its.
func (p aliveSpans) aliveAt(id overlay.NodeID, t float64) bool {
	spans := p[int(id)]
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if spans[mid].join <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && t < spans[lo-1].leave
}

// dataTick is the source's chunk ticker: one record, mutated in place and
// rescheduled on the source's queue q, instead of a fresh closure pair
// per emitted chunk.
type dataTick struct {
	s   *session
	q   *eventq.Sim
	seq int64
}

// dataTickRun emits the next chunk and reschedules (arg: *dataTick).
func dataTickRun(a any) {
	dt := a.(*dataTick)
	s := dt.s
	if src := s.insts[0]; src != nil {
		src.Base().EmitChunk(dt.seq)
	}
	dt.seq++
	dt.q.AfterArg(s.dataDT, dataTickRun, dt)
}

// buildScenario resolves the session script: the override if given, else
// a generated workload. It returns the (possibly adjusted) config: the
// batch workload derives the session duration from the script.
func buildScenario(cfg Config) (*scenario.Scenario, Config) {
	scn := cfg.Scenario
	if scn == nil {
		if cfg.BatchSize > 0 {
			batches := (cfg.Nodes + cfg.BatchSize - 1) / cfg.BatchSize
			scn = scenario.Batch(scenario.BatchConfig{
				Batches:   batches,
				BatchSize: cfg.BatchSize,
				IntervalS: cfg.IntervalS,
				SettleS:   cfg.SettleS,
				SpreadS:   cfg.SpreadS,
			}, rng.Derive(cfg.Seed, "scenario"))
			cfg.DurationS = scn.DurationS
		} else if cfg.MeanLifetimeS > 0 {
			scn = scenario.Lifetime(scenario.LifetimeConfig{
				Nodes:         cfg.Nodes,
				MeanLifetimeS: cfg.MeanLifetimeS,
				JoinPhaseS:    cfg.JoinPhaseS,
				IntervalS:     cfg.IntervalS,
				SettleS:       cfg.SettleS,
				DurationS:     cfg.DurationS,
			}, rng.Derive(cfg.Seed, "scenario"))
		} else {
			scn = scenario.Churn(scenario.ChurnConfig{
				Nodes:      cfg.Nodes,
				ChurnPct:   cfg.ChurnPct,
				JoinPhaseS: cfg.JoinPhaseS,
				IntervalS:  cfg.IntervalS,
				SpreadS:    cfg.SpreadS,
				SettleS:    cfg.SettleS,
				DurationS:  cfg.DurationS,
			}, rng.Derive(cfg.Seed, "scenario"))
		}
	}
	return scn, cfg
}

// Run executes one session and returns its aggregated result.
func Run(cfg Config) (*Result, error) {
	sitesPerRegion := geoSitesPerRegion(cfg)
	cfg = cfg.withDefaults()
	switch cfg.Protocol {
	case VDM, HMTP, BTP, NICE, Random:
	default:
		return nil, fmt.Errorf("sim: unknown protocol %q", cfg.Protocol)
	}
	switch cfg.Metric {
	case "delay", "loss", "loss-est", "bandwidth":
	default:
		return nil, fmt.Errorf("sim: unknown metric %q", cfg.Metric)
	}
	switch {
	case cfg.Shards < 0:
		return nil, fmt.Errorf("sim: Shards must be ≥ 0, got %d", cfg.Shards)
	case cfg.Shards != 0 && cfg.Metric == "loss-est":
		return nil, fmt.Errorf("sim: metric %q draws from a shared estimator stream in query order and only runs on the serial engine (Shards=0)", cfg.Metric)
	}
	s, err := newSession(cfg, sitesPerRegion)
	if err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		err = s.drive()
	} else {
		err = s.driveEpochs()
	}
	if err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// newSession builds the session state and schedules its setup band — the
// source, the data stream, the scenario script, in that order — on one
// queue (Shards 0) or on cfg.Shards of them. The schedule order is the
// same either way, so equal-time setup events on one queue keep their
// relative order.
func newSession(cfg Config, sitesPerRegion int) (*session, error) {
	scn, cfg := buildScenario(cfg)
	if err := scn.Check(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	u, err := buildUnderlay(cfg, scn.PoolSize, sitesPerRegion)
	if err != nil {
		return nil, err
	}
	s := &session{
		cfg:       cfg,
		scn:       scn,
		u:         u,
		metric:    buildMetric(cfg.Metric, u, rng.Derive(cfg.Seed, "estimator")),
		degrees:   drawDegrees(cfg, scn.PoolSize, rng.Derive(cfg.Seed, "degrees")),
		insts:     make([]overlay.Protocol, scn.PoolSize),
		protoSeed: rng.DeriveSeed(cfg.Seed, "proto"),
		dataDT:    1 / cfg.DataRate,
	}
	queues := max(cfg.Shards, 1)
	for i := 0; i < queues; i++ {
		s.sims = append(s.sims, eventq.New())
	}
	s.owner, s.lookahead = make([]int, scn.PoolSize), math.Inf(1)
	if cfg.Shards > 0 {
		kj, ok := u.(underlay.KeyedJitter)
		if !ok {
			return nil, fmt.Errorf("sim: underlay %T lacks keyed jitter; the sharded engine requires it", u)
		}
		var ms float64
		s.owner, ms = kj.Partition(queues)
		s.lookahead = ms / 1000
	}
	memberships, spans := s.planMemberships(queues > 1)
	s.all = make([]*overlay.Peer, memberships)

	netSeed := rng.DeriveSeed(cfg.Seed, "net")
	if cfg.Shards == 0 {
		s.nets = []*overlay.Network{overlay.NewNetwork(s.sims[0], u, netSeed)}
	} else {
		s.router = overlay.NewShardRouter(u, netSeed, s.sims, s.owner, s.lookahead, spans.aliveAt)
		for i := range s.sims {
			s.nets = append(s.nets, s.router.Net(i))
		}
	}
	// The taps below may be called from every shard goroutine; the locks
	// are uncontended on a single queue.
	var traceFn func(at float64, from, to overlay.NodeID, m overlay.Message)
	if trace := cfg.Trace; trace != nil {
		var mu sync.Mutex
		traceFn = func(at float64, from, to overlay.NodeID, m overlay.Message) {
			mu.Lock()
			trace(at, int(from), int(to), overlay.TypeName(m))
			mu.Unlock()
		}
	}
	for _, n := range s.nets {
		n.CtrlLossProb = cfg.CtrlLossProb
		n.TraceFn = traceFn
	}
	if cfg.EventSink != nil {
		s.sink = &lockedSink{s: cfg.EventSink}
	}

	s.spawn(0, 0) // the source is alive for the whole session
	s.tick = dataTick{s: s, q: s.sims[s.owner[0]]}
	s.tick.q.AtArg(0, dataTickRun, &s.tick)
	for i, ev := range scn.Events {
		s.sims[s.owner[ev.Slot]].AtArg(ev.T, scnFireRun, &s.scnFires[i])
	}
	return s, nil
}

// lockedSink serializes trace emission across shard goroutines.
type lockedSink struct {
	mu sync.Mutex
	s  obs.Sink
}

func (l *lockedSink) Emit(e obs.Event) {
	l.mu.Lock()
	l.s.Emit(e)
	l.mu.Unlock()
}

// routerPathLossBudget caps the router underlay's path-loss cache, which
// is keyed by router pair: generous enough that paper-scale topologies
// never wipe it, small enough that a very large lossy graph cannot hold
// every pair at once. Shortest-path trees need no budget; the underlay
// keeps at most one per router.
const routerPathLossBudget = 1 << 21

// geoSitesPerRegion sizes the synthetic PlanetLab a Geo session generates.
// It reads the caller's config, before withDefaults: a worldwide pool with
// Nodes set grows from the default in steps of 16 sites per region until
// it offers 2·Nodes + 16 sites; every other session gets the default.
func geoSitesPerRegion(cfg Config) int {
	n := geo.DefaultSitesPerRegion
	if cfg.Underlay == Geo && !cfg.GeoUSOnly && cfg.Nodes > 0 {
		for n*len(geo.DefaultRegions()) < cfg.Nodes*2+16 {
			n += 16
		}
	}
	return n
}

func buildUnderlay(cfg Config, pool, sitesPerRegion int) (underlay.Underlay, error) {
	switch cfg.Underlay {
	case Router:
		ts, err := topology.GenerateTransitStub(
			topology.ScaledTransitStub(cfg.RouterMin),
			rng.Derive(cfg.Seed, "topology"),
		)
		if err != nil {
			return nil, err
		}
		if cfg.LinkLossMax > 0 {
			ts.AssignLinkLoss(cfg.LinkLossMax, rng.Derive(cfg.Seed, "linkloss"))
		}
		attach := ts.AttachHosts(pool, rng.Derive(cfg.Seed, "attach"))
		u := underlay.NewRouter(ts.Graph, attach)
		u.WithCacheBudget(routerPathLossBudget)
		sigma := cfg.RouterJitterSigma
		if sigma == 0 {
			sigma = 0.1
		}
		// Keyed jitter for both engines: the draw for a send depends on
		// the edge and the sender's send count, not on global send order,
		// so serial and sharded runs see identical delays.
		u.WithKeyedJitter(rng.DeriveSeed(cfg.Seed, "routerjitter"), sigma)
		return u, nil
	case Geo:
		if cfg.GeoModel != nil && cfg.GeoSites != nil {
			if len(cfg.GeoSites) < pool {
				return nil, fmt.Errorf("sim: scenario needs %d host slots, %d sites supplied", pool, len(cfg.GeoSites))
			}
			return underlay.NewGeoKeyed(cfg.GeoModel, cfg.GeoSites[:pool], rng.DeriveSeed(cfg.Seed, "jitter")), nil
		}
		model := geo.Generate(sitesPerRegion, rng.Derive(cfg.Seed, "geo"))
		var candidates []int
		if cfg.GeoUSOnly {
			candidates = model.USSites()
		} else {
			for i := 0; i < model.NumSites(); i++ {
				candidates = append(candidates, i)
			}
		}
		sites, err := model.PickSites(candidates, pool, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return underlay.NewGeoKeyed(model, sites, rng.DeriveSeed(cfg.Seed, "jitter")), nil
	default:
		return nil, fmt.Errorf("sim: unknown underlay %q", cfg.Underlay)
	}
}

// buildMetric builds the virtual distance Run has already checked the name
// of; nil is "delay", the measured probe RTT.
func buildMetric(name string, u underlay.Underlay, rnd *rng.Stream) vdist.Metric {
	switch name {
	case "loss":
		return vdist.Loss{U: u}
	case "loss-est":
		// VDM-L over a third-party statistics service instead of
		// oracle path loss (the future-work deployment path).
		return vdist.EstimatedLoss{Svc: vdist.NewLossEstimator(u, rnd)}
	case "bandwidth":
		return vdist.Bandwidth{U: u}
	}
	return nil
}

// The bandwidth-derived degree model (Config.DegreeFromBandwidth): the
// stream bitrate (the paper's example), the median and lognormal sigma of
// the uplink draw, and the degree cap.
const (
	streamKbps     = 500.0
	uplinkMeanKbps = 2000.0
	uplinkSigma    = 0.6
	degreeCap      = 8
)

func drawDegrees(cfg Config, pool int, rnd *rng.Stream) []int {
	degrees := make([]int, pool)
	for i := range degrees {
		if cfg.DegreeFromBandwidth {
			uplink := uplinkMeanKbps * rnd.LogNormal(0, uplinkSigma)
			d := int(uplink / streamKbps)
			if d < 1 {
				d = 1
			}
			if d > degreeCap {
				d = degreeCap
			}
			degrees[i] = d
			continue
		}
		if cfg.AvgDegree > 0 {
			base := int(math.Floor(cfg.AvgDegree))
			if base < 1 {
				base = 1
			}
			frac := cfg.AvgDegree - float64(base)
			degrees[i] = base
			if rnd.Bool(frac) {
				degrees[i]++
			}
		} else {
			degrees[i] = rnd.IntBetween(cfg.DegreeMin, cfg.DegreeMax)
		}
	}
	return degrees
}

// buildProtocol constructs the protocol instance for one membership,
// identically in both engines. The per-membership random stream is
// derived statelessly from (protoSeed, slot, membership ordinal), so the
// stream a peer gets does not depend on which other peers were built
// first — a prerequisite for sharded/serial parity.
func buildProtocol(cfg Config, bus overlay.Bus, metric vdist.Metric, degrees []int, slot, memIdx int, protoSeed int64, sink obs.Sink) overlay.Protocol {
	pc := overlay.PeerConfig{
		ID:        overlay.NodeID(slot),
		Source:    0,
		MaxDegree: degrees[slot],
		IsSource:  slot == 0,
		Metric:    metric,
		// Simulated paths reorder chunks by at most a few in-flight
		// sequence numbers, so a small dedupe window suffices; the live
		// runtime keeps the wide default (flow.DefaultWindowBits).
		WindowSlots: 256,
	}
	var p overlay.Protocol
	switch cfg.Protocol {
	case HMTP:
		p = hmtp.New(bus, pc, hmtp.Config{RefinePeriodS: cfg.HMTPRefinePeriodS}, rng.Derive(protoSeed, fmt.Sprintf("hmtp-%d-%d", slot, memIdx)))
	case BTP:
		p = btp.New(bus, pc, rng.Derive(protoSeed, fmt.Sprintf("btp-%d-%d", slot, memIdx)))
	case NICE:
		// NICE has no per-member degree bound; cluster size (3K−1) is
		// the capacity notion, applied uniformly.
		pc.MaxDegree = nice.MaxCluster
		degrees[slot] = pc.MaxDegree
		p = nice.New(bus, pc, rng.Derive(protoSeed, fmt.Sprintf("nice-%d-%d", slot, memIdx)))
	case Random:
		p = randjoin.New(bus, pc, rng.Derive(protoSeed, fmt.Sprintf("rand-%d-%d", slot, memIdx)))
	case VDM:
		n := core.New(bus, pc, core.Config{
			Gamma:             cfg.Gamma,
			RefinePeriodS:     cfg.VDMRefinePeriodS,
			ReconnectAtSource: cfg.VDMReconnectAtSrc,
			FosterJoin:        cfg.VDMFosterJoin,
		}, rng.Derive(protoSeed, fmt.Sprintf("vdm-%d-%d", slot, memIdx)))
		if sink != nil {
			n.SetTracer(obs.NewTracer(sink, "vdm", pc.ID, bus.Now))
		}
		p = n
	}
	return p
}

// spawn starts membership memIdx of slot on the slot's queue.
func (s *session) spawn(slot, memIdx int) {
	net := s.nets[s.owner[slot]]
	p := buildProtocol(s.cfg, net, s.metric, s.degrees, slot, memIdx, s.protoSeed, s.sink)
	if s.cfg.StatusPeriodS > 0 {
		if slot == 0 && s.cfg.StatusHandler != nil {
			p.Base().SetStatusHandler(s.cfg.StatusHandler)
		}
		p.Base().EnableStatusReports(s.cfg.StatusPeriodS)
	}
	net.Register(overlay.NodeID(slot), p.Base())
	s.insts[slot] = p
	s.all[memIdx] = p.Base()
	if slot != 0 {
		p.StartJoin()
	}
}

func (s *session) leave(slot int) {
	s.insts[slot].Leave()
	s.insts[slot] = nil
}

// views lists the live protocol instances in ascending slot order.
func (s *session) views() []overlay.TreeView {
	out := make([]overlay.TreeView, 0, len(s.insts))
	for _, p := range s.insts {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// measure takes the sample for instant t. With Validate it also returns
// the invariant violations it saw, nil when there are none. Parent/child
// symmetry is eventually consistent (a Detach or ParentChange may be in
// flight at the snapshot instant), so only violations that persist are
// real: the driver hands them to recheck 5 s later.
func (s *session) measure(t float64) (first map[string]bool) {
	snap := metrics.Collect(s.views(), 0, s.u)
	s.samples = append(s.samples, Sample{
		T:        t,
		Tree:     snap,
		Loss:     s.lossSoFar(t),
		Overhead: s.nets[0].Overhead(),
	})
	if !s.cfg.Validate {
		return nil
	}
	errs := s.validate()
	if len(errs) == 0 {
		return nil
	}
	first = make(map[string]bool, len(errs))
	for _, e := range errs {
		first[e] = true
	}
	return first
}

// recheck records the violations of the measurement at measT that still
// hold now.
func (s *session) recheck(measT float64, first map[string]bool) {
	for _, e := range s.validate() {
		if first[e] {
			s.invErrs = append(s.invErrs, fmt.Sprintf("t=%.0f: %s", measT, e))
		}
	}
}

func (s *session) validate() []string {
	return metrics.Validate(s.views(), 0, func(id overlay.NodeID) int { return s.degrees[int(id)] })
}

// eventsProcessed sums the fired events of every queue plus the
// controller's own.
func (s *session) eventsProcessed() uint64 {
	total := s.ctrlEvents
	for _, q := range s.sims {
		total += q.Processed()
	}
	return total
}

// expectedChunksIn counts the chunks the source emitted during [a, b)
// at one chunk per dataDT seconds.
func expectedChunksIn(dataDT, a, b float64) int64 {
	if b <= a {
		return 0
	}
	kmin := int64(math.Ceil(a / dataDT))
	kmax := int64(math.Ceil(b/dataDT)) - 1
	if kmax < kmin {
		return 0
	}
	return kmax - kmin + 1
}

// lossOverPeers averages, over every membership that ever connected, the
// fraction of the chunks emitted during its membership that it missed —
// the paper's loss metric. Nil entries (memberships not yet spawned) are
// skipped.
func lossOverPeers(all []*overlay.Peer, dataDT, now float64) float64 {
	var rates []float64
	for _, p := range all {
		if p == nil {
			continue
		}
		st := p.Stats()
		if p.IsSource() || st.Startup < 0 {
			continue
		}
		end := now
		if st.LeftAt >= 0 {
			end = st.LeftAt
		}
		exp := expectedChunksIn(dataDT, st.MemberSince, end)
		if exp <= 0 {
			continue
		}
		recv := st.Received
		if recv > exp {
			recv = exp
		}
		rates = append(rates, 1-float64(recv)/float64(exp))
	}
	return stats.Mean(rates)
}

func (s *session) lossSoFar(now float64) float64 {
	return lossOverPeers(s.all, s.dataDT, now)
}

func (s *session) finish() *Result {
	cfg := s.cfg
	res := &Result{
		Config:          cfg,
		Samples:         s.samples,
		Loss:            s.lossSoFar(cfg.DurationS),
		Overhead:        s.nets[0].Overhead(),
		InvariantErrors: s.invErrs,
		EventsProcessed: s.eventsProcessed(),
	}

	var stress, maxStress, stretch, minStr, maxStr, leafStr []float64
	var hop, leafHop, maxHop, usage, usageN []float64
	for _, sm := range s.samples {
		if sm.Tree.Reachable == 0 {
			continue
		}
		stress = append(stress, sm.Tree.Stress)
		maxStress = append(maxStress, sm.Tree.MaxStress)
		stretch = append(stretch, sm.Tree.Stretch)
		minStr = append(minStr, sm.Tree.MinStretch)
		maxStr = append(maxStr, sm.Tree.MaxStretch)
		leafStr = append(leafStr, sm.Tree.LeafStretch)
		hop = append(hop, sm.Tree.Hopcount)
		leafHop = append(leafHop, sm.Tree.LeafHopcount)
		maxHop = append(maxHop, sm.Tree.MaxHopcount)
		usage = append(usage, sm.Tree.UsageMS)
		usageN = append(usageN, sm.Tree.UsageNorm)
	}
	res.Stress = stats.Mean(stress)
	res.MaxStress = stats.Mean(maxStress)
	res.Stretch = stats.Mean(stretch)
	res.MinStretch = stats.Mean(minStr)
	res.MaxStretch = stats.Mean(maxStr)
	res.LeafStretch = stats.Mean(leafStr)
	res.Hopcount = stats.Mean(hop)
	res.LeafHopcount = stats.Mean(leafHop)
	res.MaxHopcount = stats.Mean(maxHop)
	res.UsageMS = stats.Mean(usage)
	res.UsageNorm = stats.Mean(usageN)

	var startups, reconns []float64
	for _, p := range s.all {
		if p == nil { // membership never spawned
			continue
		}
		st := p.Stats()
		if p.IsSource() {
			continue
		}
		if st.Startup >= 0 {
			startups = append(startups, st.Startup)
		}
		reconns = append(reconns, st.Reconnects...)
	}
	res.StartupAvg = stats.Mean(startups)
	res.StartupMax = stats.Max(startups)
	res.ReconnAvg = stats.Mean(reconns)
	res.ReconnMax = stats.Max(reconns)
	res.ReconnCount = len(reconns)

	views := s.views()
	chains := metrics.ViewChains(views, 0)
	finalSnap := metrics.Collect(views, 0, s.u)
	res.FinalAlive = finalSnap.Alive
	res.FinalReachable = finalSnap.Reachable
	res.FinalTree = s.finalTree(views, chains)

	if cfg.ComputeMST {
		res.MSTRatio, res.DCMSTRatio = s.mstRatios(mstVertices(views, chains), finalSnap.UsageMS)
	}
	return res
}

// label names a host for tree dumps: the site name on the synthetic
// PlanetLab, a host@router tag on the router underlay.
func (s *session) label(id int) string {
	if g, ok := s.u.(*underlay.GeoUnderlay); ok {
		return g.Site(id).Name
	}
	if r, ok := s.u.(*underlay.RouterUnderlay); ok {
		return fmt.Sprintf("host%d@r%d", id, r.AttachmentRouter(id))
	}
	return fmt.Sprintf("host%d", id)
}

// finalTree lists the edge above every reachable peer, shallowest first.
func (s *session) finalTree(views []overlay.TreeView, chains *metrics.Chains) []TreeEdge {
	var edges []TreeEdge
	for i, v := range views {
		d := chains.Depth(i)
		if d <= 0 {
			continue
		}
		edges = append(edges, TreeEdge{
			Child:       int(v.ID()),
			Parent:      int(v.ParentID()),
			RTTms:       s.u.BaseRTT(int(v.ID()), int(v.ParentID())),
			Depth:       d,
			ChildLabel:  s.label(int(v.ID())),
			ParentLabel: s.label(int(v.ParentID())),
		})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Depth != edges[j].Depth {
			return edges[i].Depth < edges[j].Depth
		}
		return edges[i].Child < edges[j].Child
	})
	return edges
}

// mstRatios computes the tree cost (Σ tree edge RTT over the reachable
// peers) over the MST cost and over the degree-constrained-MST
// heuristic's cost (bounded by the session's maximum degree), both over
// the vertices ids: the source plus every reachable peer.
func (s *session) mstRatios(ids []overlay.NodeID, treeCost float64) (mstR, dcmstR float64) {
	if len(ids) < 2 {
		return 0, 0
	}
	cost := func(i, j int) float64 { return s.u.BaseRTT(int(ids[i]), int(ids[j])) }
	_, mstCost := mst.Prim(len(ids), cost)

	maxDeg := 1
	for _, id := range ids {
		if d := s.degrees[int(id)]; d > maxDeg {
			maxDeg = d
		}
	}
	_, dcmstCost := mst.DegreeConstrainedPrim(len(ids), maxDeg, cost)
	return mst.Ratio(treeCost, mstCost), mst.Ratio(treeCost, dcmstCost)
}

// mstVertices lists the source, then every reachable peer in views order.
func mstVertices(views []overlay.TreeView, chains *metrics.Chains) []overlay.NodeID {
	ids := []overlay.NodeID{0}
	for i, v := range views {
		if chains.Depth(i) > 0 {
			ids = append(ids, v.ID())
		}
	}
	return ids
}
