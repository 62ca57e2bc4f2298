package overlay

// Bus is the substrate a Peer runs on: message passing between node ids
// plus the clock and timers that drive the protocol state machines. Two
// implementations exist: the discrete-event *Network in this package
// (virtual time, simulated delays) and the real-clock per-peer bus of
// internal/live (wall time, real sockets). Protocol code is written once
// against this interface and runs unchanged in both worlds.
//
// Concurrency contract: every Bus callback — message delivery through a
// Handler and timer callbacks passed to AfterArg — fires serialized with
// respect to the owning peer. The simulator guarantees this globally
// (single-threaded event loop); the live runtime guarantees it per peer
// (one mailbox goroutine each). Protocol state therefore needs no locks.
type Bus interface {
	// Send transmits m from → to. It reports whether the destination was
	// known/registered at send time (a transport-level failure signal,
	// standing for a TCP reset).
	Send(from, to NodeID, m Message) bool
	// SendFanout delivers one message to many destinations, in order.
	// Destinations that fail the way Send would return false are appended
	// to failed, which callers may pass as a reused scratch slice. The
	// live bus encodes the message once and retargets the bytes per
	// destination; the simulator's Network calls Send once per
	// destination.
	SendFanout(from NodeID, tos []NodeID, m Message, failed []NodeID) []NodeID
	// DataQueueDepth reports how many stream frames the transport has
	// queued toward to (the UDP coalescer's per-destination queue), which
	// the flow state machine folds into its pushback decision. The
	// simulator has no transport queue and reports 0.
	DataQueueDepth(to NodeID) int
	// AdjPool returns the adjacency slab the peers on this bus keep their
	// children and fosters in: one shared slab for a simulated network,
	// a private one per live peer (each runs on its own goroutine).
	AdjPool() *AdjPool
	// AfterArg schedules fn(arg) to run d seconds from now, serialized
	// with the owning peer's message handling. fn is a shared callback
	// and arg a record the caller may recycle, so on the simulator's
	// recycled event queue a timer allocates nothing in steady state —
	// which matters during join storms, when hundreds of thousands of
	// timeouts are scheduled per virtual second. A recycled record must
	// fence stale firings itself (see Descent's descentTimer token).
	AfterArg(d float64, fn func(any), arg any)
	// Now returns the bus clock in seconds. Virtual seconds in the
	// simulator, seconds since session start in the live runtime; only
	// differences are meaningful to protocol code.
	Now() float64
	// Unregister detaches node id from the bus; subsequent sends to it
	// fail.
	Unregister(id NodeID)
}
