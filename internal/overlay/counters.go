package overlay

import "sync/atomic"

// Counters is the shared control/data/drop accounting every message
// carrier in this repository maintains: the simulated Network and the live
// transports (internal/transport) all increment the same struct, so metric
// collectors have one source of truth for the paper's overhead metric.
//
// The fields are atomics because live transports send and receive from
// concurrent goroutines; the single-threaded simulator pays a negligible
// uncontended-atomic cost for the shared definition. Both carriers split
// control from data with IsControl.
type Counters struct {
	Ctrl      atomic.Int64 // control messages sent
	Data      atomic.Int64 // data messages sent (chunks, parity, acks, NACKs)
	DataDrops atomic.Int64 // data messages lost in transit
	CtrlDrops atomic.Int64 // control messages lost (loss injection or retry exhaustion)
	Undeliver atomic.Int64 // messages addressed to unknown/unregistered nodes
}

// Overhead returns the cumulative control-to-data message ratio, the
// paper's overhead metric. It returns 0 before any data flowed.
func (c *Counters) Overhead() float64 {
	data := c.Data.Load()
	if data == 0 {
		return 0
	}
	return float64(c.Ctrl.Load()) / float64(data)
}

// CounterSnapshot is a plain-value copy of a Counters, for display and
// assertions.
type CounterSnapshot struct {
	Ctrl      int64
	Data      int64
	DataDrops int64
	CtrlDrops int64
	Undeliver int64
}

// Snapshot reads every counter once.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Ctrl:      c.Ctrl.Load(),
		Data:      c.Data.Load(),
		DataDrops: c.DataDrops.Load(),
		CtrlDrops: c.CtrlDrops.Load(),
		Undeliver: c.Undeliver.Load(),
	}
}
