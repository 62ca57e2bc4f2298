// Package overlay provides the protocol-neutral machinery every overlay
// multicast protocol in this repository is built from: node identities,
// the wire-message vocabulary, the simulated network that delivers
// messages with underlay delays and counts control-vs-data traffic, the
// shared peer base (tree state, root-path maintenance, data-plane
// forwarding and sequence accounting), and a probe manager for RTT /
// virtual-distance measurements.
package overlay

import "fmt"

// NodeID identifies an overlay node. It doubles as the node's host index
// in the underlay.
type NodeID int

// None is the null node id (no parent, no grandparent).
const None NodeID = -1

// JoinID correlates every message and trace event of one join procedure
// across all the peers it touches: the joiner stamps it on the
// InfoRequests and ConnRequests it sends, the serving peers echo it into
// their own trace streams, and merged JSONL traces can then reconstruct
// the full source→child descent path. The zero JoinID means "no join
// context" (probes, data, transport events).
type JoinID uint64

// MakeJoinID builds a join id from the joining node and its per-node join
// sequence number. The pair is globally unique because a node runs at
// most one join procedure at a time.
func MakeJoinID(node NodeID, seq uint32) JoinID {
	return JoinID(uint64(uint32(int32(node)))<<32 | uint64(seq))
}

// Node returns the joining node encoded in the id.
func (j JoinID) Node() NodeID { return NodeID(int32(uint32(j >> 32))) }

// Seq returns the joiner's procedure sequence number.
func (j JoinID) Seq() uint32 { return uint32(j) }

// String renders the id as "node:seq"; the zero id renders as "" so
// traces without join context stay visibly blank.
func (j JoinID) String() string {
	if j == 0 {
		return ""
	}
	return fmt.Sprintf("%d:%d", int64(j.Node()), j.Seq())
}

// Message is the sealed union of wire messages exchanged between peers.
type Message interface{ msgType() MsgType }

// MsgType numbers the message vocabulary. The numbers are the message type
// bytes of the live wire format, so they are never reused or renumbered:
// a new message takes the next number.
type MsgType uint8

// The message types. Zero is no message.
const (
	TypePing MsgType = iota + 1
	TypePong
	TypeInfoRequest
	TypeInfoResponse
	TypeConnRequest
	TypeConnResponse
	TypeParentChange
	TypeParentChangeAck
	TypePathUpdate
	TypeDetach
	TypeLeaveNotify
	TypeReassign
	TypeDataChunk
	TypeStatusReport
	TypeDataAck
	TypeDataNack
	TypeParity
	TypePushback
	TypeParentCheck
	TypeParentCheckAck
	// NumTypes is one past the last message type.
	NumTypes
)

// TypeOf returns m's message type.
func TypeOf(m Message) MsgType { return m.msgType() }

// vocabulary holds each message type's short name.
var vocabulary = [NumTypes]string{
	TypePing:            "Ping",
	TypePong:            "Pong",
	TypeInfoRequest:     "InfoRequest",
	TypeInfoResponse:    "InfoResponse",
	TypeConnRequest:     "ConnRequest",
	TypeConnResponse:    "ConnResponse",
	TypeParentChange:    "ParentChange",
	TypeParentChangeAck: "ParentChangeAck",
	TypePathUpdate:      "PathUpdate",
	TypeDetach:          "Detach",
	TypeLeaveNotify:     "LeaveNotify",
	TypeReassign:        "Reassign",
	TypeDataChunk:       "DataChunk",
	TypeStatusReport:    "StatusReport",
	TypeDataAck:         "DataAck",
	TypeDataNack:        "DataNack",
	TypeParity:          "Parity",
	TypePushback:        "Pushback",
	TypeParentCheck:     "ParentCheck",
	TypeParentCheckAck:  "ParentCheckAck",
}

// qualifiedNames holds "overlay." + each short name, what %T prints.
var qualifiedNames [NumTypes]string

func init() {
	for t, name := range vocabulary[1:] {
		qualifiedNames[t+1] = "overlay." + name
	}
}

// String returns the type's short name ("Ping").
func (t MsgType) String() string {
	if t > 0 && t < NumTypes {
		return vocabulary[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// ChildInfo describes one child in an information response: its id and the
// parent's stored virtual distance to it.
type ChildInfo struct {
	ID   NodeID
	Dist float64
}

// Ping is an application-level probe; the receiver echoes Pong.
type Ping struct{ Token int }

// Pong answers a Ping, echoing its token.
type Pong struct{ Token int }

// InfoRequest asks a node for its children list; the dissertation's
// "information request". The requester also derives its distance to the
// responder from the exchange. JoinID names the join procedure the query
// belongs to (zero outside a join), letting the serving peer stamp its
// own trace events with the requester's correlation id.
type InfoRequest struct {
	Token  int
	JoinID JoinID
}

// InfoResponse answers an InfoRequest with the responder's children and
// their stored distances, its free degree, and whether it is currently
// connected to the tree; the dissertation's "information response".
type InfoResponse struct {
	Token     int
	Children  []ChildInfo
	Free      int
	Connected bool
}

// ConnKind distinguishes the two ways a node attaches to a parent.
type ConnKind int

const (
	// ConnChild is a plain Case-I/Case-III attachment: the requester
	// becomes a new child and consumes one degree slot.
	ConnChild ConnKind = iota
	// ConnSplice is the Case-II attachment: the requester inserts
	// itself between the parent and the adopted children, so the
	// parent's degree use does not grow.
	ConnSplice
)

// ConnRequest asks a node to become the requester's parent; the
// dissertation's "connection request". Dist carries the requester's
// measured virtual distance to the target, which the target stores as the
// child distance it will report in future InfoResponses. For ConnSplice,
// Adopt lists the Case-II children the requester will take over.
type ConnRequest struct {
	Token int
	Kind  ConnKind
	Dist  float64
	Adopt []NodeID
	// Foster requests a temporary quick-start slot that does not count
	// against the target's degree limit (the foster-child concept the
	// dissertation describes for HMTP); the requester is expected to
	// promote itself or move to a proper parent shortly.
	Foster bool
	// JoinID is the requester's join-procedure correlation id (zero
	// outside a join), mirrored into the acceptor's trace stream.
	JoinID JoinID
}

// ConnResponse answers a ConnRequest; the dissertation's "connection
// response". On acceptance RootPath is the requester's new root path
// (source … new parent) and Adopted lists the Case-II children actually
// transferred. On rejection Children carries the target's children so the
// requester can fall back to the closest free child.
type ConnResponse struct {
	Token    int
	Accepted bool
	RootPath []NodeID
	Adopted  []NodeID
	Children []ChildInfo
}

// ParentChange tells a Case-II adoptee to switch its parent to the sender;
// the dissertation's "parent change" message. Dist is the new parent's
// measured distance to the adoptee; RootPath the adoptee's new root path.
type ParentChange struct {
	Token     int
	OldParent NodeID
	Dist      float64
	RootPath  []NodeID
}

// ParentChangeAck confirms or refuses a ParentChange; a refusal releases
// the adopter's child slot.
type ParentChangeAck struct {
	Token int
	OK    bool
}

// PathUpdate propagates a refreshed root path down the tree whenever a
// node's ancestry changes; it subsumes the dissertation's "grand parent
// change" message (the new grandparent is the second-to-last entry).
type PathUpdate struct {
	Path []NodeID
}

// Detach tells a parent that the sender is no longer its child (it left or
// switched to a better parent during refinement).
type Detach struct{}

// ParentCheck asks the receiver whether it still considers the sender one
// of its children. A starving peer (connected, but nothing received from
// its parent for a while) sends this to distinguish a paused stream from
// a broken handover: a lost ParentChange or Detach can leave a child
// believing in a parent that no longer lists it.
type ParentCheck struct{}

// ParentCheckAck answers a ParentCheck. IsChild false tells the sender its
// parenthood is one-sided — it treats itself as orphaned and rejoins.
type ParentCheckAck struct {
	IsChild bool
}

// LeaveNotify tells a child that its parent is leaving; the orphan starts
// reconnection at its grandparent. GrandparentHint is the leaver's own
// parent, an up-to-date copy of what the orphan believes from its root
// path.
type LeaveNotify struct{ GrandparentHint NodeID }

// Reassign is a directive from a parent to one of its children to move
// under a different parent — cluster-split bookkeeping in hierarchical
// protocols (NICE). The child initiates a regular ConnRequest to the new
// parent, so all safety checks still apply.
type Reassign struct{ To NodeID }

// ChunkTrace is the sampled in-band trace tag a DataChunk can carry:
// the source's bus clock at emission and the overlay hop count the chunk
// has traversed. Each forwarding peer bumps Hops before relaying, so a
// receiver knows its own stream depth and — when sender and receiver
// share a clock epoch, as a cluster does — the one-way source→here
// latency. Tags ride only every Nth chunk (Peer.SetTraceSampling);
// untagged chunks encode one flag byte and nothing more.
type ChunkTrace struct {
	// OriginS is the source's bus clock (seconds) when the chunk was
	// emitted.
	OriginS float64
	// Hops is the overlay hop count the chunk had traversed when the
	// sender transmitted it: 0 leaving the source, 1 leaving a child of
	// the source, and so on.
	Hops int
}

// DataChunk is one unit of the multicast stream, pushed from parent to
// children. Payload is the stream content (nil in the simulator, which
// only accounts chunk counts); the wire codec guarantees a decoded
// Payload is a private copy, stable no matter how the transport reuses
// its receive buffers. Trace is the sampled in-band trace tag, nil on
// untraced chunks (the common case).
type DataChunk struct {
	Seq     int64
	Payload []byte
	Trace   *ChunkTrace
}

// StatusReport is the tree-health telemetry a peer periodically sends to
// the session source: its current tree position (parent, children, depth,
// distances), its degree budget, and its data-plane counter totals. The
// source's aggregator reconstructs the live tree and its quality metrics
// from these. Every report is a snapshot: the newest one that arrives
// says everything, so a lost report loses nothing but its own time. The source composes the same report
// for itself and hands it to the aggregator directly.
type StatusReport struct {
	// Seq is the per-peer report sequence number; the aggregator keeps
	// the newest report by it.
	Seq uint32
	// Parent is the current parent (None for the source and orphans);
	// ParentDist the stored virtual distance to it (milliseconds under
	// the delay metric).
	Parent     NodeID
	ParentDist float64
	// SrcDist is the peer's latest measured virtual distance straight to
	// the source (0 until first measured) — the denominator of the
	// aggregator's RTT-based stretch proxy.
	SrcDist float64
	// Depth is the self-reported tree depth (root-path length).
	Depth int
	// MaxDegree and Free describe the degree budget.
	MaxDegree int
	Free      int
	Connected bool
	// Children lists the regular children with their stored distances,
	// so the aggregator can cross-check parent/child symmetry.
	Children []ChildInfo
	// Counter totals since the peer started (distinct chunks received,
	// copies forwarded, duplicates suppressed): its Stats.
	Received  int64
	Forwarded int64
	Dups      int64

	// FlowOn reports whether the reliable data plane is active on this
	// peer. The remaining flow fields are zero when it is not.
	FlowOn bool
	// FlowBaseRate is the configured per-child pacing rate in chunks/s
	// (<= 0 means unpaced); comparing a child's current rate against it
	// reveals pushback throttling.
	FlowBaseRate float64
	// ChildFlows is the sender-side flow state toward each child edge,
	// ordered by child id.
	ChildFlows []ChildFlowStatus
	// Receiver-side repair totals since the peer started (its
	// FlowStats). They describe the peer's uplink (parent→this edge):
	// NACKs it had to send, stall pulls to the repair neighbor, local FEC
	// repairs, and sequences written off as lost.
	NacksSent  int64
	StallPulls int64
	FECRepairs int64
	Skipped    int64
}

// ChildFlowStatus is the sender-side flow state toward one child edge,
// reported inside a StatusReport so the source's aggregator can attribute
// loss, throttling and backpressure to individual tree edges.
type ChildFlowStatus struct {
	ID NodeID
	// QueueDepth is the paced backlog waiting for this child.
	QueueDepth int
	// RateChunksPerS is the child's current pacing rate — below the
	// report's FlowBaseRate while pushback throttling is in effect.
	RateChunksPerS float64
	// WindowUsed counts chunks in flight past the child's cumulative ack.
	WindowUsed int
	// Stalled reports an ack-clocked window currently stuck (no ack
	// progress since the stall clock started).
	Stalled bool
	// Nacks and Pushbacks count the NACKs and congestion pushbacks
	// received from this child since the edge formed — the sender-side
	// symptoms of a lossy or congested edge.
	Nacks     int64
	Pushbacks int64
}

// SeqRange is an inclusive interval of data sequence numbers [Lo, Hi],
// the unit of loss reporting in DataNack.
type SeqRange struct {
	Lo, Hi int64
}

// DataAck is the reliable data plane's cumulative acknowledgement: every
// chunk with sequence number <= Seq has been received (or written off).
// A child sends it to its parent on the flow tick and every few fresh
// chunks; the parent's ack-clocked sender window advances on it.
type DataAck struct {
	Seq int64
}

// DataNack reports missing chunk ranges and asks the receiver to
// retransmit them from its cache. Sent to the parent first, then to the
// repair neighbor after flowNackRetries attempts — and speculatively to the
// repair neighbor when the uplink has gone silent (the stall pull that
// recovers a killed link without waiting for tree repair).
type DataNack struct {
	Ranges []SeqRange
}

// Parity is one FEC parity chunk covering group [Group, Group+K): the
// XOR of the K payloads padded to the longest plus the XOR of their
// lengths. It rides the data plane like a chunk and lets a receiver
// repair any single loss per group locally.
type Parity struct {
	Group  int64
	K      int
	XorLen uint32
	Data   []byte
}

// Pushback is the ECN-style congestion signal a peer sends its parent
// when its own forwarding queues (pacing plus transport coalescer) pass
// the high-water mark; the parent halves this child's pacing rate and
// recovers it additively — so a slow subtree throttles its inflow
// instead of overflowing drop-oldest queues.
type Pushback struct {
	Depth int
}

// IsControl reports whether m travels on the acked control path: the
// live transport retransmits it, the simulated network drops it at
// CtrlLossProb. Chunks, parity and the flow layer's acks and NACKs are
// best-effort data; Pushback is control (rare, small, costly to lose).
// It runs on every send, so a DataChunk costs one type-word compare.
func IsControl(m Message) bool {
	if _, chunk := m.(DataChunk); chunk {
		return false
	}
	switch m.(type) {
	case Parity, DataAck, DataNack:
		return false
	}
	return true
}

// IsStreamData reports whether m rides the one-way data plane as stream
// content (chunks and parity) — the data the transport coalesces into
// batched datagrams. Acks and NACKs are data too (not IsControl) but
// clock the flow window, so they go out at once.
func IsStreamData(m Message) bool {
	switch m.(type) {
	case DataChunk, Parity:
		return true
	}
	return false
}

// TypeName returns what fmt.Sprintf("%T", m) prints ("overlay.Ping")
// without formatting: a trace tap calls it once per message, where
// formatting the name costs more than the send it observes.
func TypeName(m Message) string { return qualifiedNames[m.msgType()] }

func (Ping) msgType() MsgType            { return TypePing }
func (Pong) msgType() MsgType            { return TypePong }
func (InfoRequest) msgType() MsgType     { return TypeInfoRequest }
func (InfoResponse) msgType() MsgType    { return TypeInfoResponse }
func (ConnRequest) msgType() MsgType     { return TypeConnRequest }
func (ConnResponse) msgType() MsgType    { return TypeConnResponse }
func (ParentChange) msgType() MsgType    { return TypeParentChange }
func (ParentChangeAck) msgType() MsgType { return TypeParentChangeAck }
func (PathUpdate) msgType() MsgType      { return TypePathUpdate }
func (Detach) msgType() MsgType          { return TypeDetach }
func (LeaveNotify) msgType() MsgType     { return TypeLeaveNotify }
func (Reassign) msgType() MsgType        { return TypeReassign }
func (DataChunk) msgType() MsgType       { return TypeDataChunk }
func (StatusReport) msgType() MsgType    { return TypeStatusReport }
func (DataAck) msgType() MsgType         { return TypeDataAck }
func (DataNack) msgType() MsgType        { return TypeDataNack }
func (Parity) msgType() MsgType          { return TypeParity }
func (Pushback) msgType() MsgType        { return TypePushback }
func (ParentCheck) msgType() MsgType     { return TypeParentCheck }
func (ParentCheckAck) msgType() MsgType  { return TypeParentCheckAck }
