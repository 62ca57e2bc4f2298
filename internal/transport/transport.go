// Package transport moves overlay messages between live peers over UDP —
// the real counterpart of the simulated overlay.Network, and the one
// transport cmd/vdmd, the live test cluster and the benchmark all run:
// acknowledged, retried control messages and best-effort data chunks,
// accounted in the same overlay.Counters the simulated network keeps.
//
// A transport only moves bytes/messages; real-clock scheduling and the
// serialized per-peer execution contract of overlay.Bus live one layer up,
// in internal/live.
package transport

import "vdm/internal/overlay"

// Handler consumes one inbound message addressed to a local peer.
// The transport invokes handlers from its receive loop; internal/live
// wraps each handler to re-post into the owning peer's serialized mailbox.
type Handler func(from overlay.NodeID, m overlay.Message)
