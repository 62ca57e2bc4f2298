// Package flow holds the mechanisms of the reliable data plane: the
// sliding sequence window that drives both duplicate suppression and the
// ack clock, the token bucket that paces per-child forwarding, the XOR
// parity encoder/decoder that repairs single losses per FEC group, and
// the retransmit cache that serves NACKs.
//
// The package is deliberately protocol-free — it knows about sequence
// numbers and payload bytes, not about peers, trees, or messages. The
// integration (who to ack, when to NACK, which neighbor repairs a dead
// uplink) lives in internal/overlay, which composes these pieces into the
// per-peer flow state machine. Keeping the mechanisms here lets them be
// tested exhaustively without a network.
package flow

// Config tunes the reliable data plane: the two values vdmd's flags set.
// The zero value of every field selects the default noted on it, so
// `&flow.Config{}` enables the subsystem with stock behavior and a nil
// config disables it entirely. The data plane's timers (the flow tick,
// the ack cadence, the NACK delay, the stall timeout), sizes and
// thresholds are constants beside their one user,
// internal/overlay/flow.go.
type Config struct {
	// RateChunksPerS is the per-child token-bucket pacing rate in chunks
	// per second. 0 means 8000. Negative means unlimited (window and
	// pushback still apply; only pacing is off).
	RateChunksPerS float64
	// FECGroup is k, the parity group size: one XOR parity chunk is
	// emitted by the source after every k data chunks, letting receivers
	// repair any single loss per group without a retransmit. 0 means 16;
	// negative disables FEC. Clamped to 64.
	FECGroup int
}

// WithDefaults returns c with every zero field replaced by its default.
func (c Config) WithDefaults() Config {
	if c.RateChunksPerS == 0 {
		c.RateChunksPerS = 8000
	}
	if c.FECGroup == 0 {
		c.FECGroup = 16
	}
	if c.FECGroup > 64 {
		c.FECGroup = 64
	}
	return c
}
