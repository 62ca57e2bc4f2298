package live

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vdm/internal/flow"
	"vdm/internal/obs"
	"vdm/internal/obs/tree"
	"vdm/internal/overlay"
	"vdm/internal/wire"
)

// TestClusterEdgeHealthLocatesLossyLink is the edge-health acceptance
// test: a 17-peer cluster streams under flow control with chunk-trace
// sampling on while one interior edge silently drops a third of its
// stream data. The source-side aggregator, fed only by the peers'
// StatusReports, must flag the injected edge — and only that edge — as
// degraded on /edges, and the sampled chunk_path events must reconstruct
// full source→leaf dissemination paths.
func TestClusterEdgeHealthLocatesLossyLink(t *testing.T) {
	const (
		nPeers = 17
		sample = 4
	)
	fcfg := &flow.Config{RateChunksPerS: 20000, FECGroup: 8}
	// A short recency window so a transient NACK elsewhere (scheduling
	// jitter, startup reordering) ages out instead of polluting the
	// verdict for the whole run.
	agg := tree.New(tree.Config{Source: 0, StaleAfterS: 2})
	sink := &obs.MemSink{}
	c := bootCluster(t, ClusterConfig{
		N:             nPeers,
		MaxDegree:     3,
		Flow:          fcfg,
		Sink:          func(overlay.NodeID) obs.Sink { return sink },
		StatusPeriod:  50 * time.Millisecond,
		StatusHandler: agg.Handler(),
		TraceSample:   sample,
	})

	// Pick a leaf at depth ≥ 2 as the victim: its uplink is an interior
	// edge, and with no subtree below it the injected loss cannot bleed
	// repair traffic onto any other edge.
	parentOf := map[overlay.NodeID]overlay.NodeID{}
	for _, v := range c.Views() {
		parentOf[v.ID()] = v.ParentID()
	}
	hasChild := map[overlay.NodeID]bool{}
	for _, pa := range parentOf {
		hasChild[pa] = true
	}
	victim := overlay.None
	for id, pa := range parentOf {
		if id != 0 && pa != 0 && !hasChild[id] {
			victim = id
			break
		}
	}
	if victim == overlay.None {
		t.Fatalf("no depth-2 leaf found; parents = %v", parentOf)
	}
	vParent := parentOf[victim]

	// Drop every third stream-data frame (chunks, parity, retransmits)
	// the parent sends the victim; everything else, including the
	// telemetry control plane, is untouched.
	var drops atomic.Int64
	c.Trs[vParent].SetSendFilter(func(to overlay.NodeID, f wire.Frame, attempt int) bool {
		return to == victim && f.Kind == wire.KindMsg && overlay.IsStreamData(f.Msg) &&
			drops.Add(1)%3 == 0
	})

	// Stream continuously in the background so the injected edge keeps
	// producing repair evidence while the aggregator's view settles.
	stop := make(chan struct{})
	streamDone := make(chan struct{})
	var emitted atomic.Int64
	go func() {
		defer close(streamDone)
		for seq := int64(0); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Source().EmitChunk(seq)
			emitted.Store(seq + 1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Fetch verdicts the way an operator would: over /edges. Poll until
	// the aggregator reports every edge, flags the injected one — and only
	// it — lossy or pulling, and every other edge has gone (or stayed)
	// clean. Right after the joins the newest peers have not reported yet,
	// so their edges read dead for a report period or two.
	mux := http.NewServeMux()
	agg.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	fetchEdges := func() tree.EdgesSnapshot {
		resp, err := http.Get(srv.URL + "/edges")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var es tree.EdgesSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&es); err != nil {
			t.Fatal(err)
		}
		return es
	}
	var es tree.EdgesSnapshot
	var bad tree.EdgeHealth
	pinned := pollUntil(15*time.Second, func() bool {
		es = fetchEdges()
		if es.Summary.Total != nPeers-1 || es.Summary.OK != nPeers-2 {
			return false
		}
		for _, e := range es.Edges {
			if e.Status != tree.EdgeOK {
				bad = e
			}
		}
		return bad.Parent == int64(vParent) && bad.Child == int64(victim) &&
			(bad.Status == tree.EdgeLossy || bad.Status == tree.EdgePulling)
	})
	close(stop)
	<-streamDone
	if !pinned {
		t.Fatalf("aggregator never reported all %d edges with the injected edge %d→%d alone lossy or pulling; last /edges = %+v",
			nPeers-1, vParent, victim, es.Edges)
	}
	if bad.NacksSent == 0 && bad.NacksFromChild == 0 {
		t.Fatalf("flagged edge carries no NACK evidence: %+v", bad)
	}

	// Repair must still deliver the whole stream over the lossy edge.
	vp := c.Peers[victim]
	total := emitted.Load()
	if !pollUntil(10*time.Second, func() bool { return vp.Stats().Received == total }) {
		t.Fatalf("victim %d received %d of %d", victim, vp.Stats().Received, total)
	}

	// The sampled chunks' dissemination must be reconstructible from the
	// merged trace: at least one tagged chunk reached every non-source
	// peer with a per-hop latency and depth.
	paths := obs.ReconstructChunkPaths(sink.Events())
	if len(paths) == 0 {
		t.Fatal("no chunk_path events traced with sampling on")
	}
	full := 0
	for _, cp := range paths {
		if cp.Seq%sample != 0 {
			t.Fatalf("chunk %d traced but not a sampled sequence", cp.Seq)
		}
		if len(cp.Hops) == nPeers-1 {
			full++
		}
		for _, h := range cp.Hops {
			if h.Depth < 1 || h.LatencyMS < 0 {
				t.Fatalf("implausible hop %+v in chunk %d", h, cp.Seq)
			}
		}
	}
	if full == 0 {
		t.Errorf("no sampled chunk reconstructed a full %d-peer fan-out", nPeers-1)
	}
}
