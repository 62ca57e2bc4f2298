package vdist

import (
	"math"
	"testing"
	"testing/quick"

	"vdm/internal/underlay"
)

func staticU() *underlay.Static {
	return &underlay.Static{
		RTTms: [][]float64{
			{0, 10, 100},
			{10, 0, 50},
			{100, 50, 0},
		},
		LossP: [][]float64{
			{0, 0.01, 0.10},
			{0.01, 0, 0},
			{0.10, 0, 0},
		},
	}
}

func TestLossMetricOrdersByLoss(t *testing.T) {
	m := Loss{U: staticU()}
	// Pair (0,2) has 10% loss, pair (0,1) has 1%: the lossier pair must
	// be much farther even though its RTT term is also larger.
	d01 := m.Distance(0, 1)
	d02 := m.Distance(0, 2)
	if d02 <= d01 {
		t.Fatalf("lossier pair not farther: %v vs %v", d01, d02)
	}
	// And the loss term dominates: (1,2) is loss-free with RTT 50;
	// (0,1) has loss 1% with RTT 10. The 1% loss ≈ 10 units dwarfs the
	// 0.1-unit RTT difference... check ordering both ways explicitly.
	d12 := m.Distance(1, 2)
	if d01 <= d12 {
		t.Fatalf("1%% loss should outweigh 40 ms of RTT tiebreak: %v vs %v", d01, d12)
	}
}

func TestLossMetricTiebreakOnLossFreePaths(t *testing.T) {
	u := &underlay.Static{
		RTTms: [][]float64{
			{0, 10, 50},
			{10, 0, 20},
			{50, 20, 0},
		},
	}
	m := Loss{U: u}
	if m.Distance(0, 1) >= m.Distance(0, 2) {
		t.Fatal("loss-free pairs should order by RTT")
	}
}

func TestLossMetricAdditivity(t *testing.T) {
	// −ln(1−p) is additive: the distance of a two-segment path with
	// independent losses equals the sum of the segment distances (RTT
	// tiebreak aside).
	p1, p2 := 0.02, 0.05
	combined := 1 - (1-p1)*(1-p2)
	d1 := -math.Log(1-p1) * lossScale
	d2 := -math.Log(1-p2) * lossScale
	dc := -math.Log(1-combined) * lossScale
	if math.Abs(dc-(d1+d2)) > 1e-9 {
		t.Fatalf("loss space not additive: %v vs %v", dc, d1+d2)
	}
}

func TestLossMetricClampsExtreme(t *testing.T) {
	u := &underlay.Static{
		RTTms: [][]float64{{0, 1}, {1, 0}},
		LossP: [][]float64{{0, 1.0}, {1.0, 0}},
	}
	m := Loss{U: u}
	if d := m.Distance(0, 1); math.IsInf(d, 1) || math.IsNaN(d) {
		t.Fatalf("unclamped distance %v", d)
	}
}

func TestBandwidthMetricMonotoneInRTTAndLoss(t *testing.T) {
	m := Bandwidth{U: staticU()}
	// (0,2): RTT 100, loss 10% — the thinnest path, so the farthest.
	d01 := m.Distance(0, 1)
	d02 := m.Distance(0, 2)
	d12 := m.Distance(1, 2)
	if !(d02 > d01 && d02 > d12) {
		t.Fatalf("thin path not farthest: %v %v %v", d01, d12, d02)
	}
	if d01 <= 0 || d12 <= 0 {
		t.Fatal("distances must be positive")
	}
}

// Property: all metrics are symmetric and non-negative on symmetric
// underlays.
func TestPropertyMetricSymmetry(t *testing.T) {
	f := func(r1, r2, r3 uint16, l1, l2, l3 uint8) bool {
		a, b, c := float64(r1%500)+1, float64(r2%500)+1, float64(r3%500)+1
		p1, p2, p3 := float64(l1%50)/100, float64(l2%50)/100, float64(l3%50)/100
		u := &underlay.Static{
			RTTms: [][]float64{{0, a, b}, {a, 0, c}, {b, c, 0}},
			LossP: [][]float64{{0, p1, p2}, {p1, 0, p3}, {p2, p3, 0}},
		}
		for _, m := range []Metric{Loss{U: u}, Bandwidth{U: u}} {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					d := m.Distance(i, j)
					if d < 0 || math.IsNaN(d) {
						return false
					}
					if math.Abs(d-m.Distance(j, i)) > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
