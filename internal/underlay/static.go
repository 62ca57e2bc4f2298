package underlay

import "vdm/internal/topology"

// Static is an underlay defined directly by an RTT matrix (milliseconds)
// and an optional loss matrix. It is deterministic and has no router
// model. Protocol tests use it to place peers at exact virtual distances;
// library users can use it to replay measured RTT datasets.
type Static struct {
	RTTms  [][]float64
	LossP  [][]float64
	Jitter func(a, b int, baseMS float64) float64 // optional RTT noise
}

var _ Underlay = (*Static)(nil)

// NewStatic builds a static underlay from a symmetric RTT matrix.
func NewStatic(rtt [][]float64) *Static { return &Static{RTTms: rtt} }

// BaseRTT returns the matrix entry.
func (s *Static) BaseRTT(a, b int) float64 {
	if a == b {
		return 0
	}
	return s.RTTms[a][b]
}

// RTT returns one measurement, with optional jitter applied.
func (s *Static) RTT(a, b int) float64 {
	base := s.BaseRTT(a, b)
	if s.Jitter != nil {
		return s.Jitter(a, b, base)
	}
	return base
}

// OneWayDelayMS returns half the (possibly jittered) RTT.
func (s *Static) OneWayDelayMS(a, b int) float64 { return s.RTT(a, b) / 2 }

// LossRate returns the loss matrix entry, 0 without a loss matrix.
func (s *Static) LossRate(a, b int) float64 {
	if s.LossP == nil || a == b {
		return 0
	}
	return s.LossP[a][b]
}

// PathLinks returns nil: no router model.
func (s *Static) PathLinks(a, b int) []topology.LinkID { return nil }
