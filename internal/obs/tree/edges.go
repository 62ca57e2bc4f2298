// Edge-health attribution: fold the flow telemetry both endpoints of a
// tree edge report — the child's uplink repair totals and the parent's
// per-child sender state — into one health judgement per edge. An edge is
// observed from both sides: the parent says how hard it is pushing (pacing
// rate vs base, window occupancy, queue depth, nacks/pushbacks received
// from the child) and the child says how hard it is repairing (nacks sent,
// stalled-uplink pulls, FEC recoveries, write-offs). Either side alone can
// be stale or silent; the classification uses whichever evidence is fresh.
package tree

import (
	"slices"
	"sort"
	"strconv"

	"vdm/internal/obs"
	"vdm/internal/overlay"
)

// childActivity stamps when one sender's per-child NACK and pushback
// totals last moved, for the recency judgement.
type childActivity struct {
	nackAt float64 // 0 = never
	pushAt float64
}

// stampFlow stamps the flow activity a newer report shows against the
// stored one, before it replaces it. Caller holds the aggregator lock.
func (ps *peerState) stampFlow(at float64, r overlay.StatusReport) {
	if !r.FlowOn {
		return
	}
	prev := ps.report
	if moved(prev.NacksSent, r.NacksSent) {
		ps.nackAt = at
	}
	if moved(prev.StallPulls, r.StallPulls) {
		ps.pullAt = at
	}
	for _, cf := range r.ChildFlows {
		var old overlay.ChildFlowStatus
		if i := slices.IndexFunc(prev.ChildFlows, func(o overlay.ChildFlowStatus) bool { return o.ID == cf.ID }); i >= 0 {
			old = prev.ChildFlows[i]
		}
		ca := ps.childAct[cf.ID]
		if moved(old.Nacks, cf.Nacks) {
			ca.nackAt = at
		}
		if moved(old.Pushbacks, cf.Pushbacks) {
			ca.pushAt = at
		}
		ps.childAct[cf.ID] = ca
	}
}

// moved reports whether a counter total shows activity since its previous
// value: it rose, or it fell (the edge re-formed and counts afresh) to a
// non-zero total. Totals are never negative, so both read "changed and
// not zero".
func moved(prev, now int64) bool { return now != prev && now != 0 }

// The edge status values, worst first. Dead dominates: the child fell
// silent or the sender's window to it stalled out. Pulling means the child
// gave up on the edge and is draining from its repair neighbor. Lossy
// means active NACK repair on the edge. Throttled means congestion control
// cut the sender's pacing rate below its configured base.
const (
	EdgeDead      = "dead"
	EdgePulling   = "pulling"
	EdgeLossy     = "lossy"
	EdgeThrottled = "throttled"
	EdgeOK        = "ok"
)

// severity orders statuses for worst-wins aggregation.
var severity = map[string]int{EdgeOK: 0, EdgeThrottled: 1, EdgeLossy: 2, EdgePulling: 3, EdgeDead: 4}

// EdgeHealth is one tree edge's row in an EdgesSnapshot, with the evidence
// behind the judgement.
type EdgeHealth struct {
	Parent int64 `json:"parent"`
	Child  int64 `json:"child"`
	// Status is the worst applicable of dead/pulling/lossy/throttled/ok.
	Status string `json:"status"`
	// Score is 1 for a clean edge, degraded per condition, 0 when dead —
	// a sortable scalar for dashboards.
	Score float64 `json:"score"`

	// Sender-side evidence (the parent's ChildFlows row for this child;
	// its NACK and pushback counts run from when the edge formed).
	RateChunksPerS float64 `json:"rate_chunks_per_s"`
	BaseRate       float64 `json:"base_rate"`
	QueueDepth     int     `json:"queue_depth"`
	WindowUsed     int     `json:"window_used"`
	Stalled        bool    `json:"stalled"`
	NacksFromChild int64   `json:"nacks_from_child"`
	Pushbacks      int64   `json:"pushbacks"`

	// Receiver-side evidence (the child's uplink repair totals since it
	// started).
	NacksSent  int64 `json:"nacks_sent"`
	StallPulls int64 `json:"stall_pulls"`
	FECRepairs int64 `json:"fec_repairs"`
	Skipped    int64 `json:"skipped"`

	// ChildAgeS is the child's report age; −1 when the child never
	// reported at all.
	ChildAgeS  float64 `json:"child_age_s"`
	ChildStale bool    `json:"child_stale"`
}

// EdgeSummary counts edges by status.
type EdgeSummary struct {
	Total     int `json:"total"`
	OK        int `json:"ok"`
	Throttled int `json:"throttled"`
	Lossy     int `json:"lossy"`
	Pulling   int `json:"pulling"`
	Dead      int `json:"dead"`
}

// EdgesSnapshot is the full /edges payload.
type EdgesSnapshot struct {
	AtS     float64      `json:"at_s"`
	Source  int64        `json:"source"`
	Summary EdgeSummary  `json:"summary"`
	Edges   []EdgeHealth `json:"edges"`
}

// Edges attributes the ingested flow telemetry to tree edges and scores
// each one. The edge set is the union of what both sides claim: every
// reporting child with a parent contributes its uplink, and every sender
// row contributes even when the child itself has fallen silent.
func (a *Aggregator) Edges() EdgesSnapshot {
	a.mu.Lock()
	now := a.now()
	type half struct {
		parent overlay.NodeID
		child  overlay.NodeID
	}
	edges := make(map[half]*EdgeHealth)
	recent := a.cfg.StaleAfterS
	get := func(parent, child overlay.NodeID) *EdgeHealth {
		k := half{parent, child}
		e, ok := edges[k]
		if !ok {
			e = &EdgeHealth{Parent: int64(parent), Child: int64(child), ChildAgeS: -1}
			edges[k] = e
		}
		return e
	}
	for id, ps := range a.peers {
		r := ps.report
		if id != a.cfg.Source && r.Parent != overlay.None {
			// Child liveness matters even without flow telemetry (whose
			// totals are zero then).
			e := get(r.Parent, id)
			e.ChildAgeS = now - ps.at
			e.ChildStale = e.ChildAgeS > a.cfg.StaleAfterS
			e.NacksSent, e.StallPulls, e.FECRepairs, e.Skipped = r.NacksSent, r.StallPulls, r.FECRepairs, r.Skipped
		}
		if !r.FlowOn {
			continue
		}
		for _, cf := range r.ChildFlows {
			e := get(id, cf.ID)
			e.BaseRate = r.FlowBaseRate
			e.RateChunksPerS = cf.RateChunksPerS
			e.QueueDepth = cf.QueueDepth
			e.WindowUsed = cf.WindowUsed
			e.Stalled = cf.Stalled
			e.NacksFromChild = cf.Nacks
			e.Pushbacks = cf.Pushbacks
		}
	}
	// Recency: loss/pull/pushback evidence only degrades an edge when the
	// activity happened within the staleness window — an edge that was
	// lossy an hour ago and has been quiet since is healthy now.
	active := func(at float64) bool { return at > 0 && now-at <= recent }
	snap := EdgesSnapshot{AtS: now, Source: int64(a.cfg.Source)}
	for k, e := range edges {
		var upNack, upPull float64 // the child's uplink stamps
		if ps := a.peers[k.child]; ps != nil {
			upNack, upPull = ps.nackAt, ps.pullAt
		}
		var row childActivity // the sender row's stamps
		if ps := a.peers[k.parent]; ps != nil {
			row = ps.childAct[k.child]
		}
		e.Status = EdgeOK
		e.Score = 1
		worsen := func(status string, score float64) {
			if severity[status] > severity[e.Status] {
				e.Status = status
			}
			e.Score -= score
		}
		if e.BaseRate > 0 && e.RateChunksPerS > 0 && e.RateChunksPerS < e.BaseRate ||
			active(row.pushAt) {
			worsen(EdgeThrottled, 0.25)
		}
		if active(upNack) || active(row.nackAt) {
			worsen(EdgeLossy, 0.5)
		}
		if active(upPull) {
			worsen(EdgePulling, 0.25)
		}
		if e.ChildAgeS < 0 || e.ChildStale || e.Stalled {
			e.Status = EdgeDead
			e.Score = 0
		}
		if e.Score < 0 {
			e.Score = 0
		}
		snap.Summary.Total++
		switch e.Status {
		case EdgeOK:
			snap.Summary.OK++
		case EdgeThrottled:
			snap.Summary.Throttled++
		case EdgeLossy:
			snap.Summary.Lossy++
		case EdgePulling:
			snap.Summary.Pulling++
		case EdgeDead:
			snap.Summary.Dead++
		}
		snap.Edges = append(snap.Edges, *e)
	}
	a.mu.Unlock()
	sort.Slice(snap.Edges, func(i, j int) bool {
		if snap.Edges[i].Parent != snap.Edges[j].Parent {
			return snap.Edges[i].Parent < snap.Edges[j].Parent
		}
		return snap.Edges[i].Child < snap.Edges[j].Child
	})
	return snap
}

// edgeHelp documents the vdm_edge_* family RegisterMetrics exports.
var edgeHelp = map[string]string{
	"vdm_edge_count":     "Tree edges known to the edge-health attributor.",
	"vdm_edge_ok":        "Edges with no recent loss, throttling, pulls, or staleness.",
	"vdm_edge_throttled": "Edges whose sender pacing rate sits below its configured base.",
	"vdm_edge_lossy":     "Edges with NACK repair activity inside the staleness window.",
	"vdm_edge_pulling":   "Edges whose child recently drained from its repair neighbor instead.",
	"vdm_edge_dead":      "Edges whose child is silent or whose send window stalled out.",
	"vdm_edge_score":     "Per-edge health score: 1 clean, 0 dead.",
}

// edgeSamples renders the current edge attribution as vdm_edge_* samples.
func (a *Aggregator) edgeSamples() []obs.Sample {
	es := a.Edges()
	samples := []obs.Sample{
		{Name: "vdm_edge_count", Value: float64(es.Summary.Total)},
		{Name: "vdm_edge_ok", Value: float64(es.Summary.OK)},
		{Name: "vdm_edge_throttled", Value: float64(es.Summary.Throttled)},
		{Name: "vdm_edge_lossy", Value: float64(es.Summary.Lossy)},
		{Name: "vdm_edge_pulling", Value: float64(es.Summary.Pulling)},
		{Name: "vdm_edge_dead", Value: float64(es.Summary.Dead)},
	}
	for _, e := range es.Edges {
		samples = append(samples, obs.Sample{
			Name: "vdm_edge_score",
			Labels: []obs.Label{
				obs.L("parent", strconv.FormatInt(e.Parent, 10)),
				obs.L("child", strconv.FormatInt(e.Child, 10)),
			},
			Value: e.Score,
		})
	}
	return samples
}
