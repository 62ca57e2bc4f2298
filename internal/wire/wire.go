// Package wire is the binary codec of the live deployment: a versioned,
// length-prefixed frame format carrying every overlay.Message plus the
// handful of transport/session frames (acknowledgements and the join
// bootstrap) that only exist outside the simulator.
//
// Layout (all integers big-endian):
//
//	frame   := version(1) kind(1) plen(4) from(4) to(4) seq(4) payload(plen)
//	payload := depends on kind; for KindMsg it is msg
//	msg     := type(1) fields…   type is the message's overlay.MsgType
//
// Each layout is written once, as a walk over the fields that a codec
// runs in either direction (see codec), so the encoder and the decoder
// cannot drift apart (FuzzRoundTrip keeps this honest).
//
// Decoding is strict: unknown versions, kinds or message types, truncated
// frames, oversized lengths and trailing payload bytes are all errors —
// a malformed datagram can never panic the daemon (FuzzDecodeFrame keeps
// this honest) and never yields a half-decoded message.
//
// A UDP datagram carries one or more frames back to back; the length
// prefix says where each ends. The live transport packs the stream frames
// it queues for one destination into datagrams of at most 1 452 bytes
// (one Ethernet MTU under IPv6 or IPv4), and sends a frame larger than
// that alone. DecodeDatagram splits a datagram into its frames
// (FuzzDecodeDatagram keeps this honest).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"vdm/internal/overlay"
)

// Version is the current wire format version, the first byte of every
// frame. Version 2 added the join correlation id to InfoRequest and
// ConnRequest and the StatusReport telemetry message; version 3 added the
// DataChunk payload (the stream content the data plane actually moves);
// version 4 added the reliable data plane's vocabulary (DataAck,
// DataNack, Parity, Pushback); version 5 added the sampled in-band chunk
// trace tag (one flag byte on every DataChunk, origin timestamp + hop
// count when tagged) and the StatusReport flow-telemetry section
// (per-child sender flow state plus uplink repair deltas); version 6
// added the starvation watchdog's ParentCheck/ParentCheckAck exchange;
// version 7 made the StatusReport counters totals since the peer started
// instead of deltas since its previous report (same layout, new meaning).
// Decoding is strict, so older-version frames are rejected rather than
// half-understood.
const Version = 7

// headerLen is the fixed frame header size.
const headerLen = 1 + 1 + 4 + 4 + 4 + 4

// Codec limits. Bounds are checked before any allocation, so a hostile
// length field cannot balloon memory.
const (
	// MaxPayload bounds the payload of one frame (fits one UDP datagram).
	MaxPayload = 60_000
	// MaxList bounds every encoded slice (children, root paths, adoption
	// lists, peer directories).
	MaxList = 4096
	// MaxString bounds encoded strings (transport addresses).
	MaxString = 255
	// MaxChunkPayload bounds one DataChunk's payload. It is chosen so a
	// data frame always fits one UDP datagram with room for the header
	// and future per-chunk metadata.
	MaxChunkPayload = 32 * 1024
)

// Kind discriminates what a frame carries.
type Kind uint8

// The frame kinds.
const (
	// KindMsg carries one overlay.Message. Control messages (everything
	// but DataChunk) are acknowledged by seq on unreliable transports.
	KindMsg Kind = 1
	// KindAck acknowledges the control frame with the same seq. Empty
	// payload.
	KindAck Kind = 2
	// KindHello is the join bootstrap: a newcomer announces itself to the
	// session source. Payload: the newcomer's listen address.
	KindHello Kind = 3
	// KindWelcome answers a Hello with the assigned node id, the source's
	// node id, the session epoch, and the current peer directory.
	KindWelcome Kind = 4
	// KindAddrQuery asks the source for the transport address of a node
	// id. Payload: the queried id.
	KindAddrQuery Kind = 5
	// KindAddrReply answers an AddrQuery; an empty address means unknown.
	KindAddrReply Kind = 6
)

func (k Kind) String() string {
	switch k {
	case KindMsg:
		return "msg"
	case KindAck:
		return "ack"
	case KindHello:
		return "hello"
	case KindWelcome:
		return "welcome"
	case KindAddrQuery:
		return "addrquery"
	case KindAddrReply:
		return "addrreply"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MaxNackRanges bounds the ranges of one DataNack — far above what the
// flow layer emits per tick, far below anything that could amplify.
const MaxNackRanges = 64

// The codec error classes. Decode errors wrap one of these, so transports
// can classify failures without string matching.
var (
	ErrTruncated   = errors.New("wire: truncated frame")
	ErrVersion     = errors.New("wire: unsupported version")
	ErrUnknownKind = errors.New("wire: unknown frame kind")
	ErrUnknownType = errors.New("wire: unknown message type")
	ErrTooLarge    = errors.New("wire: length exceeds bound")
	ErrTrailing    = errors.New("wire: trailing bytes in payload")
)

// PeerAddr is one entry of the Welcome peer directory.
type PeerAddr struct {
	ID   overlay.NodeID
	Addr string
}

// Frame is one decoded wire frame. Which fields are meaningful depends on
// Kind: Msg for KindMsg; Node/Addr/Peers for the bootstrap kinds; Seq for
// KindMsg (reliable-control token) and KindAck.
type Frame struct {
	Kind Kind
	From overlay.NodeID
	To   overlay.NodeID
	Seq  uint32

	Msg   overlay.Message // KindMsg
	Addr  string          // KindHello (listen addr), KindAddrReply
	Node  overlay.NodeID  // KindWelcome (assigned id), KindAddrQuery/Reply
	Src   overlay.NodeID  // KindWelcome (source id)
	Peers []PeerAddr      // KindWelcome directory
	// EpochS is the source's session-clock seconds at Welcome send, so a
	// joiner can adopt the session epoch (off only by the one-way
	// Hello→Welcome transit) and in-band trace-tag origin timestamps
	// compare meaningfully across processes.
	EpochS float64 // KindWelcome
}

// --- the codec -----------------------------------------------------------

// A codec walks a frame's fields in wire order, in one of two modes. An
// encoding codec appends each field to buf; a decoding codec reads each
// field from buf at off and stores it through the field's pointer. Every
// layout is therefore written once, and encode and decode cannot disagree
// on it. The first error is kept and the walk runs on to its end, so it
// has no error checks between fields; what it decodes after an error is
// dropped. An encoding walk writes nothing through its pointers: the
// messages it reads may be shared between goroutines.
type codec struct {
	buf    []byte
	off    int
	decode bool
	err    error
}

// fail keeps err unless an earlier error is kept.
func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// errShort is the error of a walk that read past the end of its payload.
var errShort = fmt.Errorf("%w: a field runs past the end of the payload", ErrTruncated)

// take consumes the next n bytes of buf. Past its end it keeps errShort,
// consumes the rest of buf so that every later read fails too, and
// yields eight zeros, enough for any fixed-size field. It makes no call,
// so the fixed-size fields below stay small enough to inline.
func (c *codec) take(n int) []byte {
	if len(c.buf)-c.off < n {
		c.fail(errShort)
		c.off = len(c.buf)
		return zeros[:]
	}
	c.off += n
	return c.buf[c.off-n : c.off]
}

// zeros is what a fixed-size field past the end of buf reads as.
var zeros [8]byte

func (c *codec) u8(p *uint8) {
	if c.decode {
		*p = c.take(1)[0]
		return
	}
	c.buf = append(c.buf, *p)
}

func (c *codec) u16(p *uint16) {
	if c.decode {
		*p = binary.BigEndian.Uint16(c.take(2))
		return
	}
	c.buf = binary.BigEndian.AppendUint16(c.buf, *p)
}

func (c *codec) u32(p *uint32) {
	if c.decode {
		*p = binary.BigEndian.Uint32(c.take(4))
		return
	}
	c.buf = binary.BigEndian.AppendUint32(c.buf, *p)
}

func (c *codec) u64(p *uint64) {
	if c.decode {
		*p = binary.BigEndian.Uint64(c.take(8))
		return
	}
	c.buf = binary.BigEndian.AppendUint64(c.buf, *p)
}

// i32 walks an int as a signed 32-bit field.
func (c *codec) i32(p *int) {
	if c.decode {
		*p = int(int32(binary.BigEndian.Uint32(c.take(4))))
		return
	}
	c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(int32(*p)))
}

func (c *codec) id(p *overlay.NodeID) { c.i32((*int)(p)) }

func (c *codec) i64(p *int64) {
	if c.decode {
		*p = int64(binary.BigEndian.Uint64(c.take(8)))
		return
	}
	c.buf = binary.BigEndian.AppendUint64(c.buf, uint64(*p))
}

func (c *codec) f64(p *float64) {
	if c.decode {
		*p = math.Float64frombits(binary.BigEndian.Uint64(c.take(8)))
		return
	}
	c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(*p))
}

// boolean walks a bool as one byte, 0 or 1; any other byte is an error.
func (c *codec) boolean(p *bool) {
	var u uint8
	if *p {
		u = 1
	}
	c.u8(&u)
	if c.decode {
		if u > 1 {
			c.fail(fmt.Errorf("%w: bool byte %d", ErrTruncated, u))
		}
		*p = u == 1
	}
}

// count walks a u16 element count, bounded by max: n when encoding, the
// count read when decoding. It returns 0 once an error is kept.
func (c *codec) count(n, max int, what string) int {
	if n <= max {
		u := uint16(n)
		c.u16(&u)
		n = int(u)
	}
	if n > max {
		c.fail(fmt.Errorf("%w: %s %d > %d", ErrTooLarge, what, n, max))
	}
	if c.err != nil {
		return 0
	}
	return n
}

// list walks the count of the list *p and returns the elements the caller
// walks next: *p when encoding; when decoding, a fresh slice of the count
// read, stored in *p (nil for no elements, as encoded from nil).
func list[T any](c *codec, p *[]T, max int, what string) []T {
	n := c.count(len(*p), max, what)
	// Every element takes at least one byte, so a count past the rest of
	// the payload is short before anything is allocated for it.
	if c.decode && n > len(c.buf)-c.off {
		c.take(n)
	}
	if c.err != nil {
		return nil
	}
	if c.decode && n > 0 {
		*p = make([]T, n)
	}
	return *p
}

func (c *codec) ids(p *[]overlay.NodeID) {
	ids := list(c, p, MaxList, "id list")
	for i := range ids {
		c.id(&ids[i])
	}
}

func (c *codec) children(p *[]overlay.ChildInfo) {
	cs := list(c, p, MaxList, "child list")
	for i := range cs {
		c.id(&cs[i].ID)
		c.f64(&cs[i].Dist)
	}
}

// str walks a string of at most MaxString bytes after its u8 length.
func (c *codec) str(p *string) {
	n := len(*p)
	if n > MaxString {
		c.fail(fmt.Errorf("%w: string %d > %d", ErrTooLarge, n, MaxString))
		return
	}
	u := uint8(n)
	c.u8(&u)
	if c.decode {
		*p = string(c.take(int(u)))
		return
	}
	c.buf = append(c.buf, *p...)
}

// blob walks a byte string of at most MaxChunkPayload bytes after its u16
// length. A decoded blob is a private copy: transports decode out of
// reused receive buffers, and a handler may keep a payload past the read.
func (c *codec) blob(p *[]byte, what string) {
	n := c.count(len(*p), MaxChunkPayload, what)
	switch {
	case c.err != nil:
	case !c.decode:
		c.buf = append(c.buf, *p...)
	case n > 0:
		*p = append([]byte(nil), c.take(n)...)
	}
}

// trace walks a chunk's optional trace tag: a flag byte, then the origin
// time and the hop count, clamped into one byte, when the flag is 1.
func (c *codec) trace(p **overlay.ChunkTrace) {
	var flag uint8
	var t overlay.ChunkTrace
	if *p != nil {
		flag, t = 1, **p
	}
	c.u8(&flag)
	if flag > 1 {
		c.fail(fmt.Errorf("%w: chunk trace flags %d", ErrUnknownType, flag))
	}
	if flag != 1 {
		return
	}
	hops := uint8(min(max(t.Hops, 0), 255))
	c.f64(&t.OriginS)
	c.u8(&hops)
	if c.decode {
		*p = &overlay.ChunkTrace{OriginS: t.OriginS, Hops: int(hops)}
	}
}

// errEmbedded rejects a type that embeds a message: it reports the
// embedded message's type but is not that message.
var errEmbedded = fmt.Errorf("%w: a type that embeds an overlay message", ErrUnknownType)

// keep ends the walk of a message v, read from *m by a comma-ok type
// assertion (which yields the zero v when decoding). Decoding, it stores
// v in *m; it is generic so an encoding walk, which stores nothing, does
// not box v. Encoding, !ok means *m is not the message its type names.
func keep[T overlay.Message](c *codec, m *overlay.Message, v *T, ok bool) {
	if !c.decode {
		if !ok {
			c.fail(errEmbedded)
		}
	} else if c.err == nil {
		*m = *v
	}
}

// message walks one message: its overlay.MsgType byte, then its fields in
// wire order. This is the one layout of every message.
func (c *codec) message(m *overlay.Message) {
	var t overlay.MsgType
	if !c.decode && *m != nil {
		t = overlay.TypeOf(*m)
	}
	c.u8((*uint8)(&t))
	switch t {
	case overlay.TypePing:
		v, ok := (*m).(overlay.Ping)
		c.i32(&v.Token)
		keep(c, m, &v, ok)
	case overlay.TypePong:
		v, ok := (*m).(overlay.Pong)
		c.i32(&v.Token)
		keep(c, m, &v, ok)
	case overlay.TypeInfoRequest:
		v, ok := (*m).(overlay.InfoRequest)
		c.i32(&v.Token)
		c.u64((*uint64)(&v.JoinID))
		keep(c, m, &v, ok)
	case overlay.TypeInfoResponse:
		v, ok := (*m).(overlay.InfoResponse)
		c.i32(&v.Token)
		c.children(&v.Children)
		c.i32(&v.Free)
		c.boolean(&v.Connected)
		keep(c, m, &v, ok)
	case overlay.TypeConnRequest:
		v, ok := (*m).(overlay.ConnRequest)
		c.i32(&v.Token)
		kind := uint8(v.Kind)
		c.u8(&kind)
		if kind > uint8(overlay.ConnSplice) {
			c.fail(fmt.Errorf("%w: conn kind %d", ErrUnknownType, kind))
		}
		v.Kind = overlay.ConnKind(kind)
		c.f64(&v.Dist)
		c.ids(&v.Adopt)
		c.boolean(&v.Foster)
		c.u64((*uint64)(&v.JoinID))
		keep(c, m, &v, ok)
	case overlay.TypeConnResponse:
		v, ok := (*m).(overlay.ConnResponse)
		c.i32(&v.Token)
		c.boolean(&v.Accepted)
		c.ids(&v.RootPath)
		c.ids(&v.Adopted)
		c.children(&v.Children)
		keep(c, m, &v, ok)
	case overlay.TypeParentChange:
		v, ok := (*m).(overlay.ParentChange)
		c.i32(&v.Token)
		c.id(&v.OldParent)
		c.f64(&v.Dist)
		c.ids(&v.RootPath)
		keep(c, m, &v, ok)
	case overlay.TypeParentChangeAck:
		v, ok := (*m).(overlay.ParentChangeAck)
		c.i32(&v.Token)
		c.boolean(&v.OK)
		keep(c, m, &v, ok)
	case overlay.TypePathUpdate:
		v, ok := (*m).(overlay.PathUpdate)
		c.ids(&v.Path)
		keep(c, m, &v, ok)
	case overlay.TypeDetach:
		v, ok := (*m).(overlay.Detach)
		keep(c, m, &v, ok)
	case overlay.TypeLeaveNotify:
		v, ok := (*m).(overlay.LeaveNotify)
		c.id(&v.GrandparentHint)
		keep(c, m, &v, ok)
	case overlay.TypeReassign:
		v, ok := (*m).(overlay.Reassign)
		c.id(&v.To)
		keep(c, m, &v, ok)
	case overlay.TypeDataChunk:
		v, ok := (*m).(overlay.DataChunk)
		c.i64(&v.Seq)
		c.trace(&v.Trace)
		c.blob(&v.Payload, "chunk payload")
		keep(c, m, &v, ok)
	case overlay.TypeStatusReport:
		v, ok := (*m).(overlay.StatusReport)
		c.u32(&v.Seq)
		c.id(&v.Parent)
		c.f64(&v.ParentDist)
		c.f64(&v.SrcDist)
		c.i32(&v.Depth)
		c.i32(&v.MaxDegree)
		c.i32(&v.Free)
		c.boolean(&v.Connected)
		c.children(&v.Children)
		c.i64(&v.Received)
		c.i64(&v.Forwarded)
		c.i64(&v.Dups)
		c.boolean(&v.FlowOn)
		c.f64(&v.FlowBaseRate)
		c.i64(&v.NacksSent)
		c.i64(&v.StallPulls)
		c.i64(&v.FECRepairs)
		c.i64(&v.Skipped)
		flows := list(c, &v.ChildFlows, MaxList, "child flows")
		for i := range flows {
			f := &flows[i]
			c.id(&f.ID)
			c.i32(&f.QueueDepth)
			c.i32(&f.WindowUsed)
			c.f64(&f.RateChunksPerS)
			c.boolean(&f.Stalled)
			c.i64(&f.Nacks)
			c.i64(&f.Pushbacks)
		}
		keep(c, m, &v, ok)
	case overlay.TypeDataAck:
		v, ok := (*m).(overlay.DataAck)
		c.i64(&v.Seq)
		keep(c, m, &v, ok)
	case overlay.TypeDataNack:
		v, ok := (*m).(overlay.DataNack)
		ranges := list(c, &v.Ranges, MaxNackRanges, "nack ranges")
		for i := range ranges {
			c.i64(&ranges[i].Lo)
			c.i64(&ranges[i].Hi)
		}
		keep(c, m, &v, ok)
	case overlay.TypeParity:
		v, ok := (*m).(overlay.Parity)
		c.i64(&v.Group)
		if v.K < 0 || v.K > 255 {
			c.fail(fmt.Errorf("%w: parity k %d", ErrTooLarge, v.K))
		}
		k := uint8(v.K)
		c.u8(&k)
		v.K = int(k)
		c.u32(&v.XorLen)
		c.blob(&v.Data, "parity payload")
		keep(c, m, &v, ok)
	case overlay.TypePushback:
		v, ok := (*m).(overlay.Pushback)
		c.i32(&v.Depth)
		keep(c, m, &v, ok)
	case overlay.TypeParentCheck:
		v, ok := (*m).(overlay.ParentCheck)
		keep(c, m, &v, ok)
	case overlay.TypeParentCheckAck:
		v, ok := (*m).(overlay.ParentCheckAck)
		c.boolean(&v.IsChild)
		keep(c, m, &v, ok)
	default:
		c.fail(fmt.Errorf("%w: %d", ErrUnknownType, t))
	}
}

// frame walks f: the fixed header, then the payload its Kind selects.
// Encoding writes plen as 0 for appendFrame to backfill; decoding checks
// version and plen and ends buf at the frame's last byte.
func (c *codec) frame(f *Frame) {
	version, plen := uint8(Version), uint32(0)
	c.u8(&version)
	c.u8((*uint8)(&f.Kind))
	c.u32(&plen)
	c.id(&f.From)
	c.id(&f.To)
	c.u32(&f.Seq)
	if c.decode {
		c.bound(version, plen)
	}
	switch f.Kind {
	case KindMsg:
		c.message(&f.Msg)
	case KindAck:
		// empty payload
	case KindHello:
		c.str(&f.Addr)
	case KindWelcome:
		c.id(&f.Node)
		c.id(&f.Src)
		c.f64(&f.EpochS)
		peers := list(c, &f.Peers, MaxList, "peer list")
		for i := range peers {
			c.id(&peers[i].ID)
			c.str(&peers[i].Addr)
		}
	case KindAddrQuery:
		c.id(&f.Node)
	case KindAddrReply:
		c.id(&f.Node)
		c.str(&f.Addr)
	default:
		c.fail(fmt.Errorf("%w: %d", ErrUnknownKind, f.Kind))
	}
}

// bound checks a decoded frame header and ends buf at the frame's last
// byte. A bad header consumes the rest of buf, so the payload walk reads
// nothing.
func (c *codec) bound(version uint8, plen uint32) {
	end := c.off + int(plen)
	switch {
	case c.err != nil:
	case version != Version:
		c.fail(fmt.Errorf("%w: %d", ErrVersion, version))
	case plen > MaxPayload:
		c.fail(fmt.Errorf("%w: payload %d > %d", ErrTooLarge, plen, MaxPayload))
	case end > len(c.buf):
		c.fail(fmt.Errorf("%w: frame needs %d bytes, have %d", ErrTruncated, end, len(c.buf)))
	default:
		c.buf = c.buf[:end]
		return
	}
	c.off = len(c.buf)
}

// appendFrame appends the encoding of f to dst. The payload is encoded
// in place after the header (no intermediate buffer); the length field is
// backfilled once the payload size is known, so an encode costs zero
// allocations when dst has capacity.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	base := len(dst)
	c := codec{buf: dst}
	c.frame(f)
	if c.err != nil {
		return nil, c.err
	}
	n := len(c.buf) - base - headerLen
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d > %d", ErrTooLarge, n, MaxPayload)
	}
	binary.BigEndian.PutUint32(c.buf[base+2:], uint32(n))
	return c.buf, nil
}

// PatchTo overwrites the To field of an already-encoded frame in place.
// The fan-out fast path encodes a data frame once, then retargets the
// bytes queued for each child instead of re-encoding the whole frame.
// frame must start at a frame boundary (as produced by EncodeBuffer.Encode).
func PatchTo(frame []byte, to overlay.NodeID) {
	binary.BigEndian.PutUint32(frame[10:14], uint32(int32(to)))
}

// encodeBufPool recycles frame-encode scratch buffers: the live
// transports encode one frame per datagram on their hot paths, and the
// pool makes that steady-state allocation-free.
var encodeBufPool = sync.Pool{
	New: func() any { return &EncodeBuffer{buf: make([]byte, 0, 1536)} },
}

// An EncodeBuffer is a reusable frame-encode scratch buffer drawn from a
// package-level pool. It is not safe for concurrent use; draw one per
// encode site (or per call) instead of sharing.
type EncodeBuffer struct {
	buf []byte
}

// GetEncodeBuffer draws a buffer from the pool.
func GetEncodeBuffer() *EncodeBuffer { return encodeBufPool.Get().(*EncodeBuffer) }

// Release returns the buffer to the pool. The slice returned by Encode
// must not be used afterwards.
func (b *EncodeBuffer) Release() { encodeBufPool.Put(b) }

// Encode encodes f into the buffer and returns the encoded bytes, which
// stay valid only until the next Encode or Release.
func (b *EncodeBuffer) Encode(f Frame) ([]byte, error) {
	out, err := appendFrame(b.buf[:0], &f)
	if err != nil {
		return nil, err
	}
	b.buf = out // keep the grown capacity for the next frame
	return out, nil
}

// DecodeFrame decodes the first frame in b and returns it together with
// the number of bytes consumed (so a stream of concatenated frames can be
// walked). Every malformed input yields an error, never a panic.
func DecodeFrame(b []byte) (f Frame, n int, err error) {
	// f is a named result so the walk decodes into it without a copy.
	c := codec{buf: b, decode: true}
	c.frame(&f)
	if c.err == nil && c.off != len(c.buf) {
		c.fail(fmt.Errorf("%w: %d of %d payload bytes consumed", ErrTrailing, c.off-headerLen, len(c.buf)-headerLen))
	}
	if c.err != nil {
		return Frame{}, 0, c.err
	}
	return f, c.off, nil
}

// DecodeDatagram decodes the frames packed back to back in datagram b and
// passes each, in order, to fn. It stops at the first frame that does not
// decode and returns that frame's error; the bytes after it are not read.
// n is the bytes of the frames passed to fn. An empty datagram is
// ErrTruncated.
func DecodeDatagram(b []byte, fn func(Frame)) (n int, err error) {
	for {
		f, k, err := DecodeFrame(b[n:])
		if err != nil {
			return n, err
		}
		fn(f)
		if n += k; n == len(b) {
			return n, nil
		}
	}
}
