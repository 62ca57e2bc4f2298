// Package tree aggregates the periodic StatusReports every peer sends to
// the source into a live view of the multicast tree: the reconstructed
// topology, per-peer health (staleness, partition, parent RTT), and online
// tree-quality metrics — cost, depth distribution, fan-out stress, and an
// RTT-based stretch proxy computed purely from what the peers reported.
//
// The aggregator is the source-side half of the telemetry loop: peers emit
// overlay.StatusReport (internal/overlay/status.go), the source's
// StatusHandler feeds Ingest, and the /tree and /health admin routes plus
// the vdm_tree_* metric family publish the result.
package tree

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"vdm/internal/metrics"
	"vdm/internal/obs"
	"vdm/internal/overlay"
)

// Config tunes an Aggregator.
type Config struct {
	// Source is the session source's node id; its own report anchors the
	// reconstructed tree.
	Source overlay.NodeID
	// StaleAfterS flags a peer stale when no report arrived for this many
	// seconds; zero selects 15.
	StaleAfterS float64
	// Now supplies the current bus clock for staleness checks. When nil,
	// the newest ingested report timestamp stands in — correct for the
	// virtual-time simulator, where "now" only advances with events.
	Now func() float64
}

// peerState is the newest report from one peer (by Seq) and when the
// peer was last heard from. The report's counters are totals, so it is
// the peer's whole account: nothing is summed across reports.
type peerState struct {
	report  overlay.StatusReport
	at      float64 // bus clock of the last ingest, fresh or not
	reports int64

	// Flow activity stamps for edge attribution (edges.go): when the
	// peer's uplink NACK and stall-pull totals last moved, and the same
	// per child for the ChildFlows rows it reports as a sender.
	nackAt   float64 // 0 = never
	pullAt   float64
	childAct map[overlay.NodeID]childActivity
}

// Aggregator ingests StatusReports and serves tree snapshots. All methods
// are safe for concurrent use; live peers report from the source peer's
// mailbox goroutine while HTTP handlers read.
type Aggregator struct {
	cfg Config

	mu     sync.Mutex
	peers  map[overlay.NodeID]*peerState
	lastAt float64 // newest ingest timestamp (the default clock)

	reg *obs.Registry // optional, set by RegisterMetrics
}

// New builds an aggregator for the given source.
func New(cfg Config) *Aggregator {
	if cfg.StaleAfterS <= 0 {
		cfg.StaleAfterS = 15
	}
	return &Aggregator{cfg: cfg, peers: make(map[overlay.NodeID]*peerState)}
}

// Handler adapts Ingest to the overlay.StatusHandler signature the source
// peer wants.
func (a *Aggregator) Handler() overlay.StatusHandler {
	return func(at float64, from overlay.NodeID, r overlay.StatusReport) {
		a.Ingest(at, from, r)
	}
}

// Ingest absorbs one report. at is the bus clock at arrival; from is the
// reporting peer. A report newer than the stored one (by Seq) replaces
// it; a repeated or older one only refreshes the peer's liveness.
func (a *Aggregator) Ingest(at float64, from overlay.NodeID, r overlay.StatusReport) {
	a.mu.Lock()
	ps, ok := a.peers[from]
	if !ok {
		ps = &peerState{childAct: make(map[overlay.NodeID]childActivity)}
		a.peers[from] = ps
	}
	if !ok || r.Seq > ps.report.Seq {
		ps.stampFlow(at, r)
		ps.report = r
	}
	ps.at = at
	ps.reports++
	if at > a.lastAt {
		a.lastAt = at
	}
	reg := a.reg
	a.mu.Unlock()

	if reg != nil {
		reg.Counter("vdm_tree_reports_total").Inc()
		if r.Parent != overlay.None && r.ParentDist > 0 {
			reg.Histogram("vdm_tree_parent_rtt_ms", obs.LatencyBucketsMS).Observe(r.ParentDist)
		}
	}
}

// now returns the staleness clock: the configured one, or the newest
// ingest timestamp. Caller holds a.mu.
func (a *Aggregator) now() float64 {
	if a.cfg.Now != nil {
		return a.cfg.Now()
	}
	return a.lastAt
}

// PeerHealth is one peer's row in a Snapshot.
type PeerHealth struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent"`
	Children []int64 `json:"children"`
	// Depth is the hop count to the source along the reconstructed
	// parent chain; −1 when the chain does not reach the source.
	Depth int `json:"depth"`
	// ReportedDepth is what the peer itself claimed (its root-path
	// length); a mismatch with Depth means the tree moved between the
	// peers' report instants.
	ReportedDepth int     `json:"reported_depth"`
	ParentRTTMS   float64 `json:"parent_rtt_ms"`
	SrcRTTMS      float64 `json:"src_rtt_ms"`
	// PathRTTMS sums ParentRTTMS along the reconstructed chain to the
	// source — the overlay delay proxy.
	PathRTTMS float64 `json:"path_rtt_ms"`
	// StretchProxy is PathRTTMS / SrcRTTMS, the online estimate of the
	// paper's stretch metric; 0 when the peer never measured the source.
	StretchProxy float64 `json:"stretch_proxy"`
	MaxDegree    int     `json:"max_degree"`
	Free         int     `json:"free"`
	Connected    bool    `json:"connected"`
	// Stale: no report within StaleAfterS.
	Stale bool `json:"stale"`
	// Partitioned: the reconstructed parent chain does not reach the
	// source (orphaned, parent unknown, or a loop).
	Partitioned bool    `json:"partitioned"`
	AgeS        float64 `json:"age_s"`
	Reports     int64   `json:"reports"`
	RecvTotal   int64   `json:"recv_total"`
	FwdTotal    int64   `json:"fwd_total"`
	DupTotal    int64   `json:"dup_total"`
}

// Summary is the tree-wide digest in a Snapshot.
type Summary struct {
	// Members counts reporting peers, the source included.
	Members int `json:"members"`
	// Reachable counts non-source peers whose chain reaches the source.
	Reachable   int `json:"reachable"`
	Stale       int `json:"stale"`
	Partitioned int `json:"partitioned"`
	Orphans     int `json:"orphans"`
	// CostMS sums the parent-link RTT over reachable peers — the online
	// resource-usage (tree cost) figure.
	CostMS   float64 `json:"cost_ms"`
	MaxDepth int     `json:"max_depth"`
	AvgDepth float64 `json:"avg_depth"`
	// DepthCounts[d] is the number of reachable peers at depth d+1.
	DepthCounts     []int   `json:"depth_counts"`
	StretchProxyAvg float64 `json:"stretch_proxy_avg"`
	StretchProxyMax float64 `json:"stretch_proxy_max"`
	// MaxFanout and AvgFanout describe per-peer copy load (children per
	// forwarding peer) — the overlay-level stress on reporting hosts.
	MaxFanout int     `json:"max_fanout"`
	AvgFanout float64 `json:"avg_fanout"`
}

// Snapshot is the full /tree payload.
type Snapshot struct {
	// AtS is the clock the staleness judgement used.
	AtS     float64      `json:"at_s"`
	Source  int64        `json:"source"`
	Summary Summary      `json:"summary"`
	Peers   []PeerHealth `json:"peers"`
}

// Snapshot reconstructs the tree and computes the online metrics.
func (a *Aggregator) Snapshot() Snapshot {
	a.mu.Lock()
	now := a.now()
	type row struct {
		id overlay.NodeID
		ps peerState
	}
	rows := make([]row, 0, len(a.peers))
	for id, ps := range a.peers {
		rows = append(rows, row{id, *ps})
	}
	a.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })

	chains := metrics.NewChains(len(rows), func(i int) (overlay.NodeID, overlay.NodeID) {
		return rows[i].id, rows[i].ps.report.Parent
	}, a.cfg.Source)
	// pathRTT sums the reported parent RTTs down each reachable chain.
	pathRTT := make([]float64, len(rows))
	for _, i := range chains.Down() {
		if rep := rows[i].ps.report; rows[i].id != a.cfg.Source {
			p, ok := chains.Pos(rep.Parent) // not ok: the parent is a source that has not reported
			pathRTT[i] = rep.ParentDist
			if ok {
				pathRTT[i] += pathRTT[p]
			}
		}
	}

	snap := Snapshot{AtS: now, Source: int64(a.cfg.Source)}
	var depthSum, stretchSum float64
	var stretchN, fanoutSum, forwarders int
	for i, r := range rows {
		rep := r.ps.report
		h := PeerHealth{
			ID:            int64(r.id),
			Parent:        int64(rep.Parent),
			Depth:         -1,
			ReportedDepth: rep.Depth,
			ParentRTTMS:   rep.ParentDist,
			SrcRTTMS:      rep.SrcDist,
			MaxDegree:     rep.MaxDegree,
			Free:          rep.Free,
			Connected:     rep.Connected,
			AgeS:          now - r.ps.at,
			Reports:       r.ps.reports,
			RecvTotal:     rep.Received,
			FwdTotal:      rep.Forwarded,
			DupTotal:      rep.Dups,
		}
		h.Stale = h.AgeS > a.cfg.StaleAfterS
		for _, c := range rep.Children {
			h.Children = append(h.Children, int64(c.ID))
		}
		snap.Summary.Members++
		if len(rep.Children) > 0 {
			forwarders++
			fanoutSum += len(rep.Children)
			if len(rep.Children) > snap.Summary.MaxFanout {
				snap.Summary.MaxFanout = len(rep.Children)
			}
		}
		if r.id == a.cfg.Source {
			h.Depth = 0
			snap.Peers = append(snap.Peers, h)
			continue
		}
		if rep.Parent == overlay.None {
			snap.Summary.Orphans++
		}
		if depth := chains.Depth(i); depth > 0 {
			h.Depth = depth
			h.PathRTTMS = pathRTT[i]
			snap.Summary.Reachable++
			snap.Summary.CostMS += rep.ParentDist
			depthSum += float64(depth)
			snap.Summary.MaxDepth = max(snap.Summary.MaxDepth, depth)
			for len(snap.Summary.DepthCounts) < depth {
				snap.Summary.DepthCounts = append(snap.Summary.DepthCounts, 0)
			}
			snap.Summary.DepthCounts[depth-1]++
			if rep.SrcDist > 0 {
				h.StretchProxy = h.PathRTTMS / rep.SrcDist
				stretchSum += h.StretchProxy
				stretchN++
				if h.StretchProxy > snap.Summary.StretchProxyMax {
					snap.Summary.StretchProxyMax = h.StretchProxy
				}
			}
		} else {
			h.Partitioned = true
			snap.Summary.Partitioned++
		}
		if h.Stale {
			snap.Summary.Stale++
		}
		snap.Peers = append(snap.Peers, h)
	}
	if snap.Summary.Reachable > 0 {
		snap.Summary.AvgDepth = depthSum / float64(snap.Summary.Reachable)
	}
	if stretchN > 0 {
		snap.Summary.StretchProxyAvg = stretchSum / float64(stretchN)
	}
	if forwarders > 0 {
		snap.Summary.AvgFanout = float64(fanoutSum) / float64(forwarders)
	}
	return snap
}

// RegisterMetrics publishes the tree summary into reg as the vdm_tree_*
// family: a collector recomputes the snapshot at every scrape, Ingest
// feeds vdm_tree_reports_total and the parent-RTT histogram.
func (a *Aggregator) RegisterMetrics(reg *obs.Registry) {
	a.mu.Lock()
	a.reg = reg
	a.mu.Unlock()
	reg.SetHelp("vdm_tree_reports_total", "StatusReports ingested by the tree aggregator.")
	reg.SetHelp("vdm_tree_parent_rtt_ms", "Parent-link RTT reported by peers, milliseconds.")
	reg.SetHelp("vdm_tree_members", "Peers currently known to the tree aggregator (source included).")
	reg.SetHelp("vdm_tree_reachable", "Peers whose reconstructed parent chain reaches the source.")
	reg.SetHelp("vdm_tree_stale", "Peers without a report within the staleness window.")
	reg.SetHelp("vdm_tree_partitioned", "Peers whose reconstructed chain does not reach the source.")
	reg.SetHelp("vdm_tree_orphans", "Peers reporting no parent.")
	reg.SetHelp("vdm_tree_cost_ms", "Summed parent-link RTT over reachable peers (tree cost).")
	reg.SetHelp("vdm_tree_depth_max", "Maximum reconstructed tree depth.")
	reg.SetHelp("vdm_tree_depth_avg", "Average reconstructed tree depth over reachable peers.")
	reg.SetHelp("vdm_tree_depth_peers", "Reachable peers at each tree depth.")
	reg.SetHelp("vdm_tree_stretch_proxy_avg", "Average online stretch proxy (path RTT / direct source RTT).")
	reg.SetHelp("vdm_tree_stretch_proxy_max", "Maximum online stretch proxy.")
	reg.SetHelp("vdm_tree_fanout_max", "Maximum children count over forwarding peers.")
	reg.SetHelp("vdm_tree_fanout_avg", "Average children count over forwarding peers.")
	for name, text := range edgeHelp {
		reg.SetHelp(name, text)
	}
	reg.RegisterCollector(a.edgeSamples)
	reg.RegisterCollector(func() []obs.Sample {
		s := a.Snapshot().Summary
		samples := []obs.Sample{
			{Name: "vdm_tree_members", Value: float64(s.Members)},
			{Name: "vdm_tree_reachable", Value: float64(s.Reachable)},
			{Name: "vdm_tree_stale", Value: float64(s.Stale)},
			{Name: "vdm_tree_partitioned", Value: float64(s.Partitioned)},
			{Name: "vdm_tree_orphans", Value: float64(s.Orphans)},
			{Name: "vdm_tree_cost_ms", Value: s.CostMS},
			{Name: "vdm_tree_depth_max", Value: float64(s.MaxDepth)},
			{Name: "vdm_tree_depth_avg", Value: s.AvgDepth},
			{Name: "vdm_tree_stretch_proxy_avg", Value: s.StretchProxyAvg},
			{Name: "vdm_tree_stretch_proxy_max", Value: s.StretchProxyMax},
			{Name: "vdm_tree_fanout_max", Value: float64(s.MaxFanout)},
			{Name: "vdm_tree_fanout_avg", Value: s.AvgFanout},
		}
		for d, n := range s.DepthCounts {
			samples = append(samples, obs.Sample{
				Name:   "vdm_tree_depth_peers",
				Labels: []obs.Label{obs.L("depth", strconv.Itoa(d+1))},
				Value:  float64(n),
			})
		}
		return samples
	})
}

// Register mounts the aggregator's admin routes on mux:
//
//	/tree     the full Snapshot as indented JSON
//	/edges    the EdgesSnapshot (per-edge flow health) as indented JSON
//	/health   200 "ok" when every peer is fresh and attached,
//	          503 with a JSON digest otherwise
func (a *Aggregator) Register(mux *http.ServeMux) {
	mux.HandleFunc("/tree", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.Snapshot())
	})
	mux.HandleFunc("/edges", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.Edges())
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		snap := a.Snapshot()
		healthy := snap.Summary.Stale == 0 && snap.Summary.Partitioned == 0
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if !healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		status := "ok"
		if !healthy {
			status = "degraded"
		}
		var stale, part []int64
		for _, p := range snap.Peers {
			if p.Stale {
				stale = append(stale, p.ID)
			}
			if p.Partitioned {
				part = append(part, p.ID)
			}
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":      status,
			"members":     snap.Summary.Members,
			"reachable":   snap.Summary.Reachable,
			"stale":       stale,
			"partitioned": part,
		})
	})
}
