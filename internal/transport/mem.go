package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"vdm/internal/overlay"
	"vdm/internal/wire"
)

// Mem is the in-process loopback transport: every peer of a live cluster
// registers on one Mem, and messages are delivered by a single dispatcher
// goroutine in exact send order (global FIFO, no loss, no reordering) —
// the deterministic substrate the fast tests run on. An optional fixed
// Delay models a uniform one-way latency so probe RTTs are non-degenerate.
type Mem struct {
	// Delay is a fixed one-way delivery latency applied to every message
	// (FIFO order is preserved). Set before first use.
	Delay time.Duration

	// DropFn, when set, is consulted on every send; returning true drops
	// the message (counted like a link loss). Fault injection for tests.
	// Set before first use, or install mid-run via SetDropFn.
	DropFn func(from, to overlay.NodeID, m overlay.Message) bool

	// DataQueueCap mirrors the UDP coalescer's per-destination queue
	// bound: when more than this many stream-data frames (chunks and FEC
	// parity — never acks or nacks, which are the repair signal itself)
	// are queued for one destination, the oldest of them is dropped
	// (drop-oldest backpressure, counted as a data drop). Zero means
	// unbounded — the historical lossless behavior the deterministic
	// tests rely on. Set before first use.
	DataQueueCap int

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []memItem
	handlers   map[overlay.NodeID]Handler
	ctrs       overlay.Counters
	queuedData map[overlay.NodeID]int // queued stream-data frames per destination
	closed     bool
	done       chan struct{}

	// Data-plane accounting kept semantically aligned with UDP's (there
	// are no syscalls here; batch sends and queue drops still count, and
	// are reported through the same DataplaneStats shape).
	fanoutEncodes atomic.Int64
	fanoutFrames  atomic.Int64
	queueDrops    atomic.Int64
}

// Dataplane reads the data-plane counters once. Mem reports the shared
// DataplaneStats shape so callers (and the transport conformance tests)
// treat both transports uniformly: the syscall/flush fields stay zero —
// there is no wire here — while the fan-out and queue-drop fields carry
// exactly the semantics of UDP's.
func (t *Mem) Dataplane() DataplaneStats {
	return DataplaneStats{
		QueueDrops:    t.queueDrops.Load(),
		FanoutEncodes: t.fanoutEncodes.Load(),
		FanoutFrames:  t.fanoutFrames.Load(),
	}
}

type memItem struct {
	from, to overlay.NodeID
	m        overlay.Message
	due      time.Time
}

var _ Transport = (*Mem)(nil)

// NewMem builds a loopback transport and starts its dispatcher.
func NewMem() *Mem {
	t := &Mem{
		handlers:   make(map[overlay.NodeID]Handler),
		queuedData: make(map[overlay.NodeID]int),
		done:       make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	go t.dispatch()
	return t
}

// Register attaches a handler for local node id.
func (t *Mem) Register(id overlay.NodeID, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[id] = h
}

// Unregister detaches node id; queued messages to it are dropped at
// delivery time.
func (t *Mem) Unregister(id overlay.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.handlers, id)
}

// Counters returns the shared traffic counters.
func (t *Mem) Counters() *overlay.Counters { return &t.ctrs }

// SetDropFn installs (or clears) the loss-injection hook mid-run,
// synchronized against in-flight sends — the link-kill tests flip it
// while traffic is flowing.
func (t *Mem) SetDropFn(fn func(from, to overlay.NodeID, m overlay.Message) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.DropFn = fn
}

// DataQueueDepth reports how many stream-data frames are queued (accepted
// but not yet handed to the destination's handler) toward to.
func (t *Mem) DataQueueDepth(to overlay.NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queuedData[to]
}

// Send enqueues m for FIFO delivery. It mirrors overlay.Network.Send
// semantics: a dropped message still reports true; only an unknown
// destination reports false.
func (t *Mem) Send(from, to overlay.NodeID, m overlay.Message) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sendLocked(from, to, m)
}

// SendBatch delivers m to every destination in tos under one lock
// acquisition — the loopback mirror of the UDP fan-out fast path. The
// per-destination semantics (counters, DropFn, unknown destinations,
// queue-cap backpressure) are exactly those of len(tos) sequential Sends,
// and so is the delivery order, so sim-aligned tests see no behavioral
// difference — only fewer lock round-trips. FanoutFrames counts frames
// actually enqueued, matching UDP (dropped or unroutable destinations
// don't tick it).
func (t *Mem) SendBatch(from overlay.NodeID, tos []overlay.NodeID, m overlay.Message, failed []overlay.NodeID) []overlay.NodeID {
	t.fanoutEncodes.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, to := range tos {
		ok, queued := t.sendLockedEx(from, to, m)
		if !ok {
			failed = append(failed, to)
		}
		if queued {
			t.fanoutFrames.Add(1)
		}
	}
	return failed
}

// sendLocked is the single-destination enqueue; caller holds t.mu.
func (t *Mem) sendLocked(from, to overlay.NodeID, m overlay.Message) bool {
	ok, _ := t.sendLockedEx(from, to, m)
	return ok
}

// sendLockedEx reports both the Send contract result (ok) and whether the
// message actually entered the delivery queue (queued) — false when it
// was dropped or the destination is unknown. Caller holds t.mu.
func (t *Mem) sendLockedEx(from, to overlay.NodeID, m overlay.Message) (ok, queued bool) {
	if t.closed {
		return false, false
	}
	// Classify exactly as the UDP send path does: wire.IsControl splits
	// acked control traffic from best-effort data (chunks, parity, acks,
	// nacks), so drop accounting lands in the same counters.
	if wire.IsControl(m) {
		t.ctrs.Ctrl.Add(1)
		if t.DropFn != nil && t.DropFn(from, to, m) {
			t.ctrs.CtrlDrops.Add(1)
			return true, false
		}
	} else {
		t.ctrs.Data.Add(1)
		if t.DropFn != nil && t.DropFn(from, to, m) {
			t.ctrs.DataDrops.Add(1)
			return true, false
		}
	}
	if _, known := t.handlers[to]; !known {
		t.ctrs.Undeliver.Add(1)
		return false, false
	}
	stream := overlay.IsStreamData(m)
	if stream && t.DataQueueCap > 0 && t.queuedData[to] >= t.DataQueueCap {
		t.dropOldestDataLocked(to)
	}
	t.queue = append(t.queue, memItem{from: from, to: to, m: m, due: time.Now().Add(t.Delay)})
	if stream {
		t.queuedData[to]++
	}
	t.cond.Signal()
	return true, true
}

// dropOldestDataLocked evicts the oldest queued stream-data frame
// destined for to — the same drop-oldest backpressure the UDP coalescer
// applies when a destination's queue overflows. Acks and nacks are never
// victims: they are tiny and carry the loss-repair signal. Caller holds
// t.mu.
func (t *Mem) dropOldestDataLocked(to overlay.NodeID) {
	for i, it := range t.queue {
		if it.to != to || !overlay.IsStreamData(it.m) {
			continue
		}
		t.queue = append(t.queue[:i], t.queue[i+1:]...)
		t.queuedData[to]--
		t.ctrs.DataDrops.Add(1)
		t.queueDrops.Add(1)
		return
	}
}

// dispatch delivers queued messages in order, waiting out each item's due
// time. One goroutine, so delivery order is exactly send order.
func (t *Mem) dispatch() {
	defer close(t.done)
	for {
		t.mu.Lock()
		for len(t.queue) == 0 && !t.closed {
			t.cond.Wait()
		}
		if t.closed && len(t.queue) == 0 {
			t.mu.Unlock()
			return
		}
		it := t.queue[0]
		t.queue = t.queue[1:]
		if overlay.IsStreamData(it.m) {
			t.queuedData[it.to]--
		}
		t.mu.Unlock()

		if d := time.Until(it.due); d > 0 {
			time.Sleep(d)
		}

		t.mu.Lock()
		h := t.handlers[it.to]
		t.mu.Unlock()
		if h != nil {
			h(it.from, it.m)
		}
	}
}

// Close stops the dispatcher after the queue drains; subsequent sends
// fail.
func (t *Mem) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	<-t.done
	return nil
}
