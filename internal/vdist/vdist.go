// Package vdist implements the paper's generalized "virtual distance":
// the pluggable inter-peer distance that VDM's directionality abstraction
// is computed over.
//
// The default distance is measured delay (VDM-D). Chapter 4 generalizes to
// loss rate (VDM-L): because directionality needs distances that compose
// additively along a line, loss probabilities p are mapped to the additive
// space −ln(1−p), in which the loss of a concatenated path is the sum of
// the per-segment values. A bandwidth metric is provided as the extension
// the paper sketches.
package vdist

import (
	"math"

	"vdm/internal/underlay"
)

// Metric computes virtual distances between overlay hosts as observed by a
// probe. A nil Metric means "use the measured probe RTT" — the engine then
// derives distance from actual message timing, which is exactly VDM-D.
type Metric interface {
	// Distance returns the virtual distance between hosts a and b.
	// Implementations may include measurement noise.
	Distance(a, b int) float64
}

// lossScale converts the −ln(1−p) space into numbers of the same order of
// magnitude as RTTs, purely for readability of traces.
const lossScale = 1000

// Loss measures virtual distance as path loss in the additive −ln(1−p)
// space (VDM-L). A small delay term breaks ties among loss-free paths:
// measuring loss between two peers with zero observed loss must still
// prefer the nearer one, matching the chapter-4 setup where many paths are
// loss-free.
type Loss struct {
	U underlay.Underlay
	// DelayTiebreak scales the RTT term mixed in to order loss-free
	// pairs. Zero selects the default of 0.01 (an 100 ms RTT contributes
	// like 0.1% loss).
	DelayTiebreak float64
}

// Distance returns the loss-space virtual distance between a and b.
func (l Loss) Distance(a, b int) float64 {
	p := l.U.LossRate(a, b)
	if p > 0.999 {
		p = 0.999
	}
	tie := l.DelayTiebreak
	if tie == 0 {
		tie = 0.01
	}
	return -math.Log(1-p)*lossScale + tie*l.U.BaseRTT(a, b)
}

// Bandwidth measures virtual distance as the reciprocal of an available-
// bandwidth estimate (tighter paths are "farther"). With no bandwidth model
// in the underlay, the estimate derives from base RTT: wide-area paths are
// assumed proportionally thinner, a standard TCP-throughput-style proxy.
type Bandwidth struct {
	U underlay.Underlay
}

// Distance returns the bandwidth-space virtual distance between a and b.
func (bw Bandwidth) Distance(a, b int) float64 {
	rtt := bw.U.RTT(a, b)
	p := bw.U.LossRate(a, b)
	// Mathis et al. throughput model: bw ∝ 1/(rtt·sqrt(p)); distance is
	// its reciprocal, with a loss floor so loss-free paths stay ordered
	// by RTT.
	if p < 1e-4 {
		p = 1e-4
	}
	return rtt * math.Sqrt(p) * 100
}
