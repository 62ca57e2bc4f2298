package live

import (
	"fmt"
	"strings"
	"time"

	"vdm/internal/core"
	"vdm/internal/flow"
	"vdm/internal/metrics"
	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/transport"
	"vdm/internal/underlay"
)

const (
	// clusterJoinStagger spaces the joiners' StartJoin calls.
	clusterJoinStagger = time.Millisecond
	// clusterSessionTimeout bounds each joiner's Hello/Welcome handshake.
	clusterSessionTimeout = 5 * time.Second
	// clusterRTTMS is the RTT Snapshot assigns every peer pair. Loopback
	// sockets have no geometry, so it is nominal: depth and degree are
	// what the metrics measure, and stretch is 1 by construction.
	clusterRTTMS = 0.4
	// clusterSettle is how long Stream waits for a joiner's receive
	// count to move before it takes the stream as delivered.
	clusterSettle = 250 * time.Millisecond
	// clusterDrainTimeout bounds Stream's wait for the counts to settle.
	clusterDrainTimeout = 10 * time.Second
)

// ClusterConfig sizes and tunes a loopback cluster.
type ClusterConfig struct {
	// N is the total peer count including the source (node 0).
	N int
	// MaxDegree bounds every peer's child count; zero selects 4.
	MaxDegree int
	// Flow, when non-nil, enables paced flow control and FEC/NACK repair
	// on every peer (the same config everywhere, as vdmd deploys it).
	// Nil keeps the historical fire-and-forget data plane.
	Flow *flow.Config
	// Sink, when set, supplies each peer's protocol trace sink — the same
	// schema a simulator session emits through its EventSink. Return one
	// shared sink for a merged trace, or one per peer for the deployment
	// shape (one JSONL file per host).
	Sink func(id overlay.NodeID) obs.Sink
	// StatusPeriod enables the tree-health telemetry: every peer reports
	// its StatusReport to the source this often. Zero disables reporting.
	StatusPeriod time.Duration
	// StatusHandler receives the reports at the source (typically a
	// tree.Aggregator's Handler). Ignored when StatusPeriod is zero.
	StatusHandler overlay.StatusHandler
	// TraceSample, when positive, makes the source attach an in-band
	// trace tag to every nth emitted chunk; tagged arrivals surface as
	// chunk_path events in the sink above. Zero (the default) keeps the
	// wire stream tag-free.
	TraceSample int
}

// Cluster boots N VDM peers in one process the way N vdmd daemons run:
// each on its own loopback UDP socket, bootstrapped through the source's
// Hello/Welcome session. It is the live counterpart of a simulator
// session, used by tests to exercise the real-clock runtime end to end.
type Cluster struct {
	Trs      []*transport.UDP // indexed by NodeID
	Peers    []*Peer          // indexed by NodeID
	sessions []*Session       // indexed by NodeID
	cfg      ClusterConfig
}

// NewCluster opens the sockets, runs every joiner's session handshake in
// order (so the source assigns ids 1…N−1), builds the peers and starts the
// joins (staggered). It returns once the joins are started; use
// WaitConnected to block until the tree has formed.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.MaxDegree <= 0 {
		cfg.MaxDegree = 4
	}
	c := &Cluster{cfg: cfg}
	// Peers share the one in-process epoch rather than each joiner's
	// adopted copy, so trace timestamps compare exactly.
	epoch := time.Now()
	for i := 0; i < cfg.N; i++ {
		id := overlay.NodeID(i)
		tr, err := transport.NewUDP("127.0.0.1:0", transport.UDPConfig{})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Trs = append(c.Trs, tr)
		var sess *Session
		if id == 0 {
			sess = NewSourceSession(tr, epoch)
		} else {
			sess, err = JoinSession(tr, c.Trs[0].LocalAddr(), clusterSessionTimeout)
			if err == nil && sess.ID() != id {
				err = fmt.Errorf("source assigned id %d", sess.ID())
			}
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("live: joiner %d: %w", id, err)
			}
		}
		c.sessions = append(c.sessions, sess)
		var sink obs.Sink
		if cfg.Sink != nil {
			sink = cfg.Sink(id)
		}
		p := NewPeer(tr, epoch, func(bus overlay.Bus) overlay.Protocol {
			n := core.New(bus, overlay.PeerConfig{
				ID:        id,
				Source:    0,
				MaxDegree: cfg.MaxDegree,
				IsSource:  id == 0,
				Flow:      cfg.Flow,
			}, core.Config{}, nil)
			if sink != nil {
				n.SetTracer(obs.NewTracer(sink, "vdm", id, bus.Now))
			}
			if cfg.StatusPeriod > 0 {
				if id == 0 && cfg.StatusHandler != nil {
					n.Base().SetStatusHandler(cfg.StatusHandler)
				}
				n.Base().EnableStatusReports(cfg.StatusPeriod.Seconds())
			}
			if id == 0 {
				n.Base().SetTraceSampling(cfg.TraceSample)
			}
			return n
		})
		if sink != nil {
			p.SetTracer(obs.NewTracer(sink, "vdm", id, func() float64 {
				return time.Since(epoch).Seconds()
			}))
		}
		c.Peers = append(c.Peers, p)
	}
	for _, p := range c.Peers[1:] {
		p.StartJoin()
		time.Sleep(clusterJoinStagger)
	}
	return c, nil
}

// Source returns the source peer (node 0).
func (c *Cluster) Source() *Peer { return c.Peers[0] }

// WaitConnected blocks until every peer reports Connected and the tree
// passes Validate (a splice can still be landing when the last peer
// connects), or the timeout passes, in which case it returns an error
// naming the stragglers and the problems.
func (c *Cluster) WaitConnected(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var waiting []overlay.NodeID
		for _, p := range c.Peers {
			if !p.Connected() {
				waiting = append(waiting, p.ID())
			}
		}
		var problems []string
		if len(waiting) == 0 {
			if problems = c.Validate(); len(problems) == 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live: tree not formed after %v: %d peers not connected %v, problems %v",
				timeout, len(waiting), waiting, problems)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Stream emits n chunks from the source, one per interval, then waits
// until every joiner has received n chunks or no joiner's count has moved
// for clusterSettle. It returns an error naming every joiner's count when
// the counts are still moving after clusterDrainTimeout.
func (c *Cluster) Stream(n int, interval time.Duration) error {
	for seq := 0; seq < n; seq++ {
		c.Source().EmitChunk(int64(seq))
		time.Sleep(interval)
	}
	counts := make([]int64, len(c.Peers))
	deadline := time.Now().Add(clusterDrainTimeout)
	moved := time.Now()
	for {
		done := true
		for id := 1; id < len(c.Peers); id++ {
			got := c.Peers[id].Stats().Received
			if got != counts[id] {
				counts[id], moved = got, time.Now()
			}
			done = done && got >= int64(n)
		}
		if done || time.Since(moved) >= clusterSettle {
			return nil
		}
		if time.Now().After(deadline) {
			var b strings.Builder
			for id := 1; id < len(counts); id++ {
				fmt.Fprintf(&b, " %d:%d", id, counts[id])
			}
			return fmt.Errorf("live: chunk counts of %d still moving after %v (peer:received):%s", n, clusterDrainTimeout, b.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Views snapshots every peer's tree position.
func (c *Cluster) Views() []overlay.TreeView {
	views := make([]overlay.TreeView, 0, len(c.Peers))
	for _, p := range c.Peers {
		views = append(views, p.View())
	}
	return views
}

// Snapshot collects the paper's tree metrics over a uniform RTT matrix
// (every pair clusterRTTMS apart): depth and degree structure are
// meaningful; stretch is 1 by construction.
func (c *Cluster) Snapshot() metrics.TreeSnapshot {
	n := len(c.Peers)
	rtt := make([][]float64, n)
	for i := range rtt {
		rtt[i] = make([]float64, n)
		for j := range rtt[i] {
			if i != j {
				rtt[i][j] = clusterRTTMS
			}
		}
	}
	return metrics.Collect(c.Views(), 0, underlay.NewStatic(rtt))
}

// Validate runs the structural tree checks (degree bounds, parent/child
// symmetry, acyclicity) over the current snapshot.
func (c *Cluster) Validate() []string {
	return metrics.Validate(c.Views(), 0, func(overlay.NodeID) int { return c.cfg.MaxDegree })
}

// Close stops every peer, then closes every socket. It is idempotent.
func (c *Cluster) Close() {
	for _, p := range c.Peers {
		p.Stop()
	}
	for _, tr := range c.Trs {
		tr.Close()
	}
}
