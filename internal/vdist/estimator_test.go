package vdist

import (
	"math"
	"testing"

	"vdm/internal/rng"
	"vdm/internal/underlay"
)

func estFixture() *LossEstimator {
	u := &underlay.Static{
		RTTms: [][]float64{
			{0, 10, 100},
			{10, 0, 50},
			{100, 50, 0},
		},
		LossP: [][]float64{
			{0, 0.02, 0.10},
			{0.02, 0, 0},
			{0.10, 0, 0},
		},
	}
	return NewLossEstimator(u, rng.New(7))
}

func TestEstimateCachedAndSymmetric(t *testing.T) {
	e := estFixture()
	first := e.Estimate(0, 2)
	for i := 0; i < 10; i++ {
		if e.Estimate(0, 2) != first {
			t.Fatal("estimate not cached")
		}
		if e.Estimate(2, 0) != first {
			t.Fatal("estimate not symmetric")
		}
	}
	if e.Estimate(1, 1) != 0 {
		t.Fatal("self estimate not zero")
	}
}

func TestEstimateNoisyButCalibrated(t *testing.T) {
	// Fresh estimators (fresh caches) sample the estimation error; over
	// many services the mean estimate must track the true loss.
	sum, n := 0.0, 300
	exact := 0
	for i := 0; i < n; i++ {
		e := estFixture()
		e.rnd = rng.New(int64(i))
		v := e.Estimate(0, 2)
		if v < 0 || v > 0.999 {
			t.Fatalf("estimate %v out of range", v)
		}
		if v == 0.10 {
			exact++
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.10) > 0.03 {
		t.Fatalf("mean estimate %.4f far from true 0.10", mean)
	}
	if exact > n/2 {
		t.Fatal("estimates suspiciously noise-free")
	}
}

func TestEstimateLossFreeStaysZero(t *testing.T) {
	e := estFixture()
	if got := e.Estimate(1, 2); got != 0 {
		t.Fatalf("loss-free pair estimated at %v", got)
	}
}

func TestEstimatedLossMetricOrdering(t *testing.T) {
	e := estFixture()
	m := EstimatedLoss{Svc: e}
	// The 10% pair must be farther than the 2% pair, which must be
	// farther than the loss-free pair, noise notwithstanding (errors are
	// relative, not rank-flipping at this separation for most draws —
	// use a seed where it holds and assert determinism instead of luck).
	d02 := m.Distance(0, 2)
	d01 := m.Distance(0, 1)
	d12 := m.Distance(1, 2)
	if !(d02 > d01 && d01 > d12) {
		t.Fatalf("ordering broken: %v %v %v", d12, d01, d02)
	}
	if m.Distance(0, 2) != d02 {
		t.Fatal("metric not stable across calls")
	}
}
