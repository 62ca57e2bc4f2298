// Package vdm is a from-scratch reproduction of Virtual Direction
// Multicast (Mercan & Yuksel, HOTP2P/IPDPS 2011): an application-layer
// multicast protocol that builds its tree by connecting peers estimated to
// lie in the same virtual direction, together with every substrate the
// paper's evaluation needs — a discrete-event engine, a GT-ITM-style
// transit-stub underlay, a synthetic PlanetLab, the HMTP/BTP baselines,
// the generalized virtual-distance metrics (delay, loss, bandwidth), and
// the full measurement harness.
//
// This package is the public API. A session is described by a Config and
// executed with Run:
//
//	res, err := vdm.Run(vdm.Config{
//		Protocol: vdm.ProtocolVDM,
//		Nodes:    100,
//		ChurnPct: 5,
//	})
//
// The paper's figures are regenerated through RunExperimentGroup (see
// ExperimentGroups for the catalog) or, from the command line, via
// cmd/experiments.
package vdm

import (
	"vdm/internal/experiments"
	"vdm/internal/sim"
)

// Protocol selects the overlay multicast protocol of a session.
type Protocol string

// The implemented protocols.
const (
	// ProtocolVDM is Virtual Direction Multicast, the paper's
	// contribution.
	ProtocolVDM Protocol = Protocol(sim.VDM)
	// ProtocolHMTP is the Host Multicast Tree Protocol baseline.
	ProtocolHMTP Protocol = Protocol(sim.HMTP)
	// ProtocolBTP is the Banana Tree Protocol baseline.
	ProtocolBTP Protocol = Protocol(sim.BTP)
	// ProtocolNICE is the hierarchical-cluster NICE baseline.
	ProtocolNICE Protocol = Protocol(sim.NICE)
	// ProtocolRandom attaches peers by an uninformed random walk.
	ProtocolRandom Protocol = Protocol(sim.Random)
)

// Underlay selects the physical network model of a session.
type Underlay string

// The implemented underlays.
const (
	// UnderlayRouter is the GT-ITM-style transit-stub router graph used
	// by the paper's NS-2 experiments.
	UnderlayRouter Underlay = Underlay(sim.Router)
	// UnderlayPlanetLab is the synthetic PlanetLab (geographic sites,
	// jittered RTTs, background loss) used by the paper's chapter-5
	// experiments.
	UnderlayPlanetLab Underlay = Underlay(sim.Geo)
)

// Metric selects the virtual distance the tree is built over.
type Metric string

// The implemented virtual-distance metrics.
const (
	// MetricDelay builds the tree over measured RTTs (VDM-D).
	MetricDelay Metric = "delay"
	// MetricLoss builds the tree over loss-space distances (VDM-L).
	MetricLoss Metric = "loss"
	// MetricBandwidth builds the tree over a throughput-proxy distance.
	MetricBandwidth Metric = "bandwidth"
)

// Config describes one multicast session. The zero value runs the paper's
// default chapter-3 setup: VDM over delay distances, 200 nodes with degree
// limits in [2,5] on a ~784-router transit-stub topology, a 10000-second
// session with a 2000-second join phase, and no churn.
type Config struct {
	// Seed drives every random choice; equal seeds reproduce sessions
	// exactly.
	Seed int64
	// Protocol under test; default ProtocolVDM.
	Protocol Protocol
	// Metric is the virtual distance; default MetricDelay.
	Metric Metric
	// Nodes is the steady-state population, excluding the source.
	Nodes int
	// DegreeMin/DegreeMax bound each node's child capacity (uniform
	// draw); AvgDegree, when set, replaces them with the fractional-
	// average mix used by the degree sweeps.
	DegreeMin, DegreeMax int
	AvgDegree            float64
	// BandwidthDegrees derives degrees from modeled uplink capacities
	// (degree = uplink / stream bitrate) instead of a uniform draw —
	// the dissertation's future-work degree-estimation system.
	BandwidthDegrees bool
	// Gamma is VDM's collinearity threshold (0 = default 0.85).
	Gamma float64
	// RefinePeriodS enables VDM's optional periodic refinement.
	RefinePeriodS float64
	// FosterJoin enables the quick-start: newcomers attach to the
	// source immediately and switch to the ideal parent once found,
	// cutting startup delay at the cost of one early parent switch.
	FosterJoin bool
	// ChurnPct is the percentage of the population replaced per
	// 400-second interval after the join phase.
	ChurnPct float64
	// MeanLifetimeS switches to exponential-lifetime churn (Poisson
	// arrivals, memberships with this mean); ChurnPct is then ignored.
	MeanLifetimeS float64
	// JoinPhaseS and DurationS time the session (defaults 2000/10000).
	JoinPhaseS, DurationS float64
	// DataRate is the stream rate in chunks per second (default 1).
	DataRate float64
	// Underlay selects the network model; default UnderlayRouter.
	Underlay Underlay
	// LinkLossMax assigns each router link a random error rate in
	// [0, LinkLossMax] — the chapter-4 loss workload.
	LinkLossMax float64
	// USOnly restricts the PlanetLab underlay to US sites.
	USOnly bool
	// ComputeMST reports the final tree-cost/MST-cost ratio.
	ComputeMST bool
}

// Result is a finished session: tree-quality metrics averaged over the
// measurement points, cumulative service metrics, and the final tree.
type Result struct {
	// Stress is the mean number of duplicate copies per used physical
	// link (router underlay only; 1.0 is IP-multicast-perfect).
	Stress float64
	// Stretch is the mean ratio of overlay to direct source delay.
	Stretch float64
	// Hopcount is the mean overlay depth.
	Hopcount float64
	// UsageNorm is the summed tree-edge RTT over the unicast-star cost.
	UsageNorm float64
	// Loss is the mean fraction of stream chunks peers missed.
	Loss float64
	// Overhead is the control-to-data message ratio.
	Overhead float64
	// StartupAvg/StartupMax summarize time from join to first parent.
	StartupAvg, StartupMax float64
	// ReconnAvg/ReconnMax summarize recovery after parent departures.
	ReconnAvg, ReconnMax float64
	// ReconnCount is the number of completed reconnections.
	ReconnCount int
	// MSTRatio is tree cost over MST cost (when ComputeMST was set).
	MSTRatio float64
	// Alive and Reachable count peers at session end.
	Alive, Reachable int
	// Tree is the final overlay tree, edges sorted by depth.
	Tree []TreeEdge

	raw *sim.Result
}

// TreeEdge is one edge of the final overlay tree.
type TreeEdge struct {
	Child, Parent int
	// RTTms is the underlay round-trip time across this overlay hop.
	RTTms float64
	// Depth is the child's distance from the source in overlay hops.
	Depth int
	// Labels identify the hosts (site names on the PlanetLab underlay).
	ChildLabel, ParentLabel string
}

// Samples returns the per-measurement-point time series of the session:
// (time, stretch, loss, overhead) tuples.
func (r *Result) Samples() []SamplePoint {
	out := make([]SamplePoint, 0, len(r.raw.Samples))
	for _, s := range r.raw.Samples {
		out = append(out, SamplePoint{
			T:        s.T,
			Stress:   s.Tree.Stress,
			Stretch:  s.Tree.Stretch,
			Hopcount: s.Tree.Hopcount,
			Loss:     s.Loss,
			Overhead: s.Overhead,
		})
	}
	return out
}

// SamplePoint is the session state at one measurement instant.
type SamplePoint struct {
	T        float64
	Stress   float64
	Stretch  float64
	Hopcount float64
	Loss     float64
	Overhead float64
}

// Run executes one multicast session.
func Run(cfg Config) (*Result, error) {
	res, err := sim.Run(sim.Config{
		Seed:                cfg.Seed,
		Protocol:            sim.ProtocolKind(cfg.Protocol),
		Metric:              string(cfg.Metric),
		Nodes:               cfg.Nodes,
		DegreeMin:           cfg.DegreeMin,
		DegreeMax:           cfg.DegreeMax,
		AvgDegree:           cfg.AvgDegree,
		DegreeFromBandwidth: cfg.BandwidthDegrees,
		Gamma:               cfg.Gamma,
		VDMRefinePeriodS:    cfg.RefinePeriodS,
		VDMFosterJoin:       cfg.FosterJoin,
		ChurnPct:            cfg.ChurnPct,
		MeanLifetimeS:       cfg.MeanLifetimeS,
		JoinPhaseS:          cfg.JoinPhaseS,
		DurationS:           cfg.DurationS,
		DataRate:            cfg.DataRate,
		Underlay:            sim.UnderlayKind(cfg.Underlay),
		LinkLossMax:         cfg.LinkLossMax,
		GeoUSOnly:           cfg.USOnly,
		ComputeMST:          cfg.ComputeMST,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Stress:      res.Stress,
		Stretch:     res.Stretch,
		Hopcount:    res.Hopcount,
		UsageNorm:   res.UsageNorm,
		Loss:        res.Loss,
		Overhead:    res.Overhead,
		StartupAvg:  res.StartupAvg,
		StartupMax:  res.StartupMax,
		ReconnAvg:   res.ReconnAvg,
		ReconnMax:   res.ReconnMax,
		ReconnCount: res.ReconnCount,
		MSTRatio:    res.MSTRatio,
		Alive:       res.FinalAlive,
		Reachable:   res.FinalReachable,
		raw:         res,
	}
	for _, e := range res.FinalTree {
		out.Tree = append(out.Tree, TreeEdge{
			Child: e.Child, Parent: e.Parent, RTTms: e.RTTms,
			Depth: e.Depth, ChildLabel: e.ChildLabel, ParentLabel: e.ParentLabel,
		})
	}
	return out, nil
}

// Figure is one rendered experiment table.
type Figure struct {
	ID    string
	Title string
	Text  string
}

// ExperimentOptions scale a figure reproduction; see cmd/experiments for
// the command-line front end.
type ExperimentOptions struct {
	Seed int64
	// Reps per (x value, variant) cell (default 5; the paper used 32 for the
	// simulations and 5 for PlanetLab).
	Reps int
	// TimeScale shrinks session durations (1 = paper timing).
	TimeScale float64
	// RateScale shrinks the data stream rate (1 = paper rate).
	RateScale float64
}

// ExperimentGroups lists the experiment groups (each regenerates a set of
// the paper's figures) in chapter order.
func ExperimentGroups() []string { return experiments.Groups() }

// RunExperimentGroup regenerates one experiment group's figures.
func RunExperimentGroup(group string, o ExperimentOptions) ([]Figure, error) {
	tables, err := experiments.Run(group, experiments.Options{
		Seed:      o.Seed,
		Reps:      o.Reps,
		TimeScale: o.TimeScale,
		RateScale: o.RateScale,
	})
	if err != nil {
		return nil, err
	}
	out := make([]Figure, len(tables))
	for i, t := range tables {
		out[i] = Figure{ID: t.ID, Title: t.Title, Text: t.Format()}
	}
	return out, nil
}
