// Package protocoltest provides the shared fixture protocol test suites
// (core, hmtp, btp, randjoin) drive their nodes with: a deterministic
// network over a static RTT matrix derived from 2-D host coordinates, so
// tests can place peers at exact virtual distances and reproduce the
// dissertation's join examples geometrically.
package protocoltest

import (
	"math"

	"vdm/internal/eventq"
	"vdm/internal/overlay"
	"vdm/internal/underlay"
)

// Point is a host position in the 2-D virtual plane; RTT between hosts is
// their Euclidean distance in milliseconds.
type Point struct{ X, Y float64 }

// EuclidMatrix converts host coordinates into an RTT matrix.
func EuclidMatrix(points []Point) [][]float64 {
	n := len(points)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = math.Hypot(points[i].X-points[j].X, points[i].Y-points[j].Y)
			}
		}
	}
	return m
}

// Rig is a ready-to-use simulated network over fixed host positions.
// Host 0 is the session source by convention.
type Rig struct {
	Sim *eventq.Sim
	U   *underlay.Static
	Net *overlay.Network
}

// New builds a rig over the given host positions.
func New(points []Point) *Rig {
	sim := eventq.New()
	u := underlay.NewStatic(EuclidMatrix(points))
	return &Rig{
		Sim: sim,
		U:   u,
		Net: overlay.NewNetwork(sim, u, 1),
	}
}

// Run advances virtual time to t (absolute).
func (r *Rig) Run(t float64) { r.Sim.Run(t) }

// PeerConfig returns a standard peer config for host id.
func (r *Rig) PeerConfig(id overlay.NodeID, degree int) overlay.PeerConfig {
	return overlay.PeerConfig{
		ID:        id,
		Source:    0,
		MaxDegree: degree,
		IsSource:  id == 0,
	}
}
