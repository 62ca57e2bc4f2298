package vdist

import (
	"math"

	"vdm/internal/rng"
	"vdm/internal/underlay"
)

// LossEstimator models the third-party measurement service the
// dissertation's future work points at ("real time loss rate estimation
// between two points may not be as quick and easy as delay … third party
// systems that provide statistics can be used", citing iPlane): instead
// of observing true path loss, peers query a statistics service whose
// per-pair estimates carry relative error and are cached (stale but
// instant), the way iPlane nano serves precomputed predictions.
type LossEstimator struct {
	U underlay.Underlay
	// NoiseSigma is the lognormal relative error of an estimate; zero
	// selects 0.25 (a generous error for a prediction service).
	NoiseSigma float64
	// Floor is the smallest reportable loss; pairs the service believes
	// loss-free report 0. Zero selects 1e-4.
	Floor float64

	rnd   *rng.Stream
	cache map[[2]int]float64
}

// NewLossEstimator builds a service over u with estimation noise drawn
// from rnd.
func NewLossEstimator(u underlay.Underlay, rnd *rng.Stream) *LossEstimator {
	return &LossEstimator{U: u, rnd: rnd, cache: make(map[[2]int]float64)}
}

// Estimate returns the service's (noisy, cached) loss estimate for the
// pair — every query for the same pair returns the same prediction, as a
// statistics service would.
func (e *LossEstimator) Estimate(a, b int) float64 {
	if a == b {
		return 0
	}
	key := [2]int{a, b}
	if a > b {
		key = [2]int{b, a}
	}
	if p, ok := e.cache[key]; ok {
		return p
	}
	sigma := e.NoiseSigma
	if sigma == 0 {
		sigma = 0.25
	}
	floor := e.Floor
	if floor == 0 {
		floor = 1e-4
	}
	p := e.U.LossRate(a, b)
	if p > floor && e.rnd != nil {
		p *= e.rnd.LogNormal(0, sigma)
	}
	if p < 0 {
		p = 0
	}
	if p > 0.999 {
		p = 0.999
	}
	e.cache[key] = p
	return p
}

// EstimatedLoss is the VDM-L metric computed from the estimator service
// instead of oracle path loss — what a deployment would actually run.
type EstimatedLoss struct {
	Svc *LossEstimator
	// DelayTiebreak as in Loss; zero selects 0.01.
	DelayTiebreak float64
}

// Distance returns the loss-space virtual distance built from the
// service's estimate.
func (m EstimatedLoss) Distance(a, b int) float64 {
	p := m.Svc.Estimate(a, b)
	tie := m.DelayTiebreak
	if tie == 0 {
		tie = 0.01
	}
	return -math.Log(1-p)*lossScale + tie*m.Svc.U.BaseRTT(a, b)
}
