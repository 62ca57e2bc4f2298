// Package transport moves overlay messages between live peers — the real
// counterpart of the simulated overlay.Network. Two implementations share
// one interface (fan-out send and send-queue depth included, so callers
// never probe for them) and one accounting scheme (overlay.Counters): an
// in-process loopback (Mem) for fast deterministic tests and clusters, and
// a UDP transport (UDP) for real deployments, with acknowledged,
// retried control messages and best-effort data chunks.
//
// A transport only moves bytes/messages; real-clock scheduling and the
// serialized per-peer execution contract of overlay.Bus live one layer up,
// in internal/live.
package transport

import "vdm/internal/overlay"

// Handler consumes one inbound message addressed to a local peer.
// Transports invoke handlers from their receive loop; internal/live wraps
// each handler to re-post into the owning peer's serialized mailbox.
type Handler func(from overlay.NodeID, m overlay.Message)

// Transport delivers overlay messages between peers identified by node
// id. Implementations must be safe for concurrent use.
type Transport interface {
	// Register attaches a handler for local node id.
	Register(id overlay.NodeID, h Handler)
	// Unregister detaches local node id; later sends to it fail.
	Unregister(id overlay.NodeID)
	// Send transmits m from → to. It reports whether the destination was
	// known at send time; an in-flight loss is still a successful send,
	// mirroring overlay.Network.Send.
	Send(from, to overlay.NodeID, m overlay.Message) bool
	// SendBatch delivers one message to many destinations in one call:
	// the message is encoded once and the bytes retargeted per destination
	// (UDP), or the whole fan-out enqueued under one lock acquisition
	// (Mem). Destinations that would make Send return false are appended to
	// failed, which callers may pass as a reused scratch slice.
	// internal/live bridges this to overlay.FanoutBus.
	SendBatch(from overlay.NodeID, tos []overlay.NodeID, m overlay.Message, failed []overlay.NodeID) []overlay.NodeID
	// DataQueueDepth reports how many best-effort data frames are queued
	// (unsent) toward to: the send coalescer's per-destination queue on
	// UDP, the in-flight dispatcher queue on Mem. The flow controller reads
	// it as its earliest congestion signal — a deep transport queue means
	// the pacer is outrunning the wire — and internal/live bridges it to
	// overlay.DepthBus for ECN-style pushback.
	DataQueueDepth(to overlay.NodeID) int
	// Counters returns the shared control/data/drop counters, the same
	// struct the simulated network maintains.
	Counters() *overlay.Counters
	// Close shuts the transport down and releases its resources.
	Close() error
}
