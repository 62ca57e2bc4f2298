package overlay

// Bus is the substrate a Peer runs on: message passing between node ids
// plus the clock and timers that drive the protocol state machines. Two
// implementations exist: the discrete-event *Network in this package
// (virtual time, simulated delays) and the real-clock per-peer bus of
// internal/live (wall time, real sockets). Protocol code is written once
// against this interface and runs unchanged in both worlds.
//
// Concurrency contract: every Bus callback — message delivery through a
// Handler and timer callbacks passed to After or AfterArg — fires
// serialized with respect to the owning peer. The simulator guarantees this globally
// (single-threaded event loop); the live runtime guarantees it per peer
// (one mailbox goroutine each). Protocol state therefore needs no locks.
type Bus interface {
	// Send transmits m from → to. It reports whether the destination was
	// known/registered at send time (a transport-level failure signal,
	// standing for a TCP reset).
	Send(from, to NodeID, m Message) bool
	// After schedules fn to run d seconds from now, serialized with the
	// owning peer's message handling.
	After(d float64, fn func())
	// AfterArg is After(d, func() { fn(arg) }) without the closure: a
	// shared callback plus an argument record the caller may recycle. The
	// simulator's event queue recycles its events too, so timers armed
	// this way allocate nothing in steady state — which matters during
	// join storms, when hundreds of thousands of timeouts are scheduled
	// per virtual second. A recycled record must fence stale firings
	// itself (see core's joinTimer token).
	AfterArg(d float64, fn func(any), arg any)
	// Now returns the bus clock in seconds. Virtual seconds in the
	// simulator, seconds since session start in the live runtime; only
	// differences are meaningful to protocol code.
	Now() float64
	// Unregister detaches node id from the bus; subsequent sends to it
	// fail.
	Unregister(id NodeID)
}

// FanoutBus is an optional Bus capability: deliver one message to many
// destinations at once. Implementations encode the message a single time
// and retarget the bytes per destination, so a source fanning a DataChunk
// out to its children pays one marshal instead of one per child. Failed
// destinations (unknown at send time, mirroring Send returning false) are
// appended to failed, which callers may pass as a reused scratch slice.
//
// The simulator's Network deliberately does not implement FanoutBus:
// per-destination Send keeps its event stream byte-identical, and the
// encode cost it would save does not exist there.
type FanoutBus interface {
	SendFanout(from NodeID, tos []NodeID, m Message, failed []NodeID) []NodeID
}

// DepthBus is an optional Bus capability: report how many stream frames
// the underlying transport has queued toward one destination (the UDP
// coalescer's per-destination queue). The flow state machine folds this
// into its pushback decision so congestion building below the pacing
// layer is still visible to the parent. Buses without transport-level
// queues (the simulator) simply don't implement it and report an
// effective depth of zero.
type DepthBus interface {
	DataQueueDepth(to NodeID) int
}
