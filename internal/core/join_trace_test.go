package core

import (
	"bytes"
	"fmt"
	"testing"

	"vdm/internal/golden"
	"vdm/internal/obs"
	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
)

// traceScene is one scripted session of the join-trace golden: a rig of
// traced VDM nodes and the script that drives it. kill, when the script
// sets it, sees every event as it is emitted and may unregister a peer at
// that instant — how a scene loses a target in the middle of a walk.
type traceScene struct {
	name   string
	points []protocoltest.Point
	deg    []int
	cfg    map[overlay.NodeID]Config
	script func(r *vdmRig, kill *func(obs.Event))
}

// handMove rewires x under parent p by hand (p accepts a child request,
// x switches), leaving x's own walk machinery untouched: the stale state a
// churn sequence can leave behind, for a refinement to repair.
func handMove(r *vdmRig, x, p overlay.NodeID, dist float64) {
	r.nodes[p].HandleMessage(x, overlay.ConnRequest{Token: 1 << 30, Kind: overlay.ConnChild, Dist: dist})
	r.nodes[x].ApplySwitch(p, dist, append(r.nodes[p].RootPath(), p))
}

var traceScenes = []traceScene{
	{
		// Case III at the source into C1 and Case I at C1 (C2); Case III
		// then Case II splicing C2 (N); Case I at the source, the
		// newcomer behind it (E).
		name:   "cases",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 30, Y: 0}, {X: 20, Y: 0}, {X: -8, Y: -6}},
		script: func(r *vdmRig, _ *func(obs.Event)) { r.joinAll(1, 2, 3, 4) },
	},
	{
		// Two Case II children, adopt list capped at N's one free slot.
		name:   "capped-splice",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 20, Y: 6}, {X: 20, Y: -6}, {X: 10, Y: 0}},
		deg:    []int{4, 4, 4, 1},
		script: func(r *vdmRig, _ *func(obs.Event)) { r.joinAll(1, 2, 3) },
	},
	{
		// The full source refuses N; its one child was probed on the
		// way, so the walk steps down without a probe round.
		name:   "step-down-measured",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 10}, {X: -1, Y: -1}},
		deg:    []int{1, 4, 4},
		script: func(r *vdmRig, _ *func(obs.Event)) { r.joinAll(1, 2) },
	},
	{
		// N1 takes the source's last slot while N2 is deciding; the
		// refusal lists N1, unmeasured, so N2 probes before stepping down.
		name:   "step-down-probed",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 0, Y: 10}, {X: -10, Y: 0}, {X: -10, Y: -1}},
		deg:    []int{2, 4, 4, 4},
		script: func(r *vdmRig, _ *func(obs.Event)) {
			r.Sim.At(0, r.nodes[1].StartJoin)
			r.Sim.At(10, r.nodes[2].StartJoin)
			r.Sim.At(10.001, r.nodes[3].StartJoin)
			r.Run(40)
		},
	},
	{
		// A foster quick-start whose refinement promotes it at the
		// source.
		name:   "foster-promote",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 10}, {X: -10, Y: 10}},
		cfg:    map[overlay.NodeID]Config{2: {FosterJoin: true}},
		script: func(r *vdmRig, _ *func(obs.Event)) { r.joinAll(1, 2) },
	},
	{
		// The full source grants the foster slot but refuses the
		// promotion; the fostered refinement steps down past the refusal.
		name:   "foster-full-source",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 10}, {X: -10, Y: 10}},
		deg:    []int{1, 4, 4},
		cfg:    map[overlay.NodeID]Config{2: {FosterJoin: true}},
		script: func(r *vdmRig, _ *func(obs.Event)) { r.joinAll(1, 2) },
	},
	{
		// The fostered refinement's Case III target dies under it: the
		// info timeout ends the refinement, the foster retry runs it
		// again five seconds later, and it promotes at the source.
		name:   "foster-retry",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 25, Y: 0}},
		cfg:    map[overlay.NodeID]Config{2: {FosterJoin: true}},
		script: func(r *vdmRig, kill *func(obs.Event)) {
			*kill = func(e obs.Event) {
				if e.Node == 2 && e.Type == obs.EvJoinDecide && e.Case == "III" {
					r.Net.Unregister(1)
					*kill = nil
				}
			}
			r.joinAll(1, 2)
		},
	},
	{
		// X is moved by hand under the source; its refinement switches it
		// back under Q, and the rounds after keep Q.
		name:   "refine",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0}},
		cfg:    map[overlay.NodeID]Config{2: {RefinePeriodS: 20}},
		script: func(r *vdmRig, _ *func(obs.Event)) {
			r.joinAll(1, 2)
			now := r.Sim.Now()
			r.Sim.At(now+1, func() { handMove(r, 2, 0, 30) })
			r.Run(now + 65)
		},
	},
	{
		// The refinement's Case III target dies as X decides to descend
		// into it: the refinement times out at the info stage.
		name:   "refine-info-timeout",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0}},
		cfg:    map[overlay.NodeID]Config{2: {RefinePeriodS: 20}},
		script: func(r *vdmRig, kill *func(obs.Event)) {
			r.joinAll(1, 2)
			now := r.Sim.Now()
			r.Sim.At(now+1, func() {
				handMove(r, 2, 0, 30)
				*kill = func(e obs.Event) {
					if e.Node == 2 && e.Type == obs.EvJoinDecide && e.Case == "III" {
						r.Net.Unregister(1)
						*kill = nil
					}
				}
			})
			r.Run(now + 45)
		},
	},
	{
		// The refinement's chosen parent dies as X asks it to connect:
		// the refinement times out at the connection stage.
		name:   "refine-conn-timeout",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0}},
		cfg:    map[overlay.NodeID]Config{2: {RefinePeriodS: 20}},
		script: func(r *vdmRig, kill *func(obs.Event)) {
			r.joinAll(1, 2)
			now := r.Sim.Now()
			r.Sim.At(now+1, func() {
				handMove(r, 2, 0, 30)
				*kill = func(e obs.Event) {
					if e.Node == 2 && e.Type == obs.EvJoinConnect {
						r.Net.Unregister(1)
						*kill = nil
					}
				}
			})
			r.Run(now + 45)
		},
	},
	{
		// A leaves: B reconnects at its grandparent, the source. Then B
		// dies silently and C leaves: D's reconnection at B times out
		// and falls back to the source.
		name:   "orphan",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0}, {X: 40, Y: 0}},
		script: func(r *vdmRig, _ *func(obs.Event)) {
			r.joinAll(1, 2, 3, 4)
			now := r.Sim.Now()
			r.Sim.At(now+1, r.nodes[1].Leave)
			r.Sim.At(now+10, func() {
				r.Net.Unregister(2)
				r.nodes[3].Leave()
			})
			r.Run(now + 30)
		},
	},
	{
		// The source is gone when N joins: five info timeouts, each a
		// restart, then the back-off and a fresh attempt once it is
		// back. Later the source vanishes between answering M's
		// InfoRequest and M's ConnRequest: a connection timeout restarts
		// M's join.
		name:   "restart",
		points: []protocoltest.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}},
		script: func(r *vdmRig, _ *func(obs.Event)) {
			src := r.nodes[0]
			r.Net.Unregister(0)
			r.Sim.At(1, r.nodes[1].StartJoin)
			r.Sim.At(12, func() { r.Net.Register(0, src) })
			r.Sim.At(30, r.nodes[2].StartJoin)
			r.Sim.At(30.012, func() { r.Net.Unregister(0) })
			r.Sim.At(31, func() { r.Net.Register(0, src) })
			r.Run(60)
		},
	},
}

// TestJoinTraceGolden pins the join machinery's trace stream: the JSONL
// events of every scene, node by node as emitted, against
// testdata/join_trace.golden. Between them the scenes walk every branch of
// the join, reconnection and refinement state machines; a change that
// moves one event, field or float fails here; `make goldens` re-records
// the file.
func TestJoinTraceGolden(t *testing.T) {
	var out bytes.Buffer
	for _, sc := range traceScenes {
		fmt.Fprintf(&out, "# %s\n", sc.name)
		r := &vdmRig{Rig: protocoltest.New(sc.points), nodes: map[overlay.NodeID]*Node{}}
		jsonl := obs.NewJSONLSink(&out)
		var kill func(obs.Event)
		sink := obs.FuncSink(func(e obs.Event) {
			jsonl.Emit(e)
			if kill != nil {
				kill(e)
			}
		})
		for i := range sc.points {
			id := overlay.NodeID(i)
			deg := 4
			if sc.deg != nil {
				deg = sc.deg[i]
			}
			n := r.add(id, deg, sc.cfg[id])
			n.SetTracer(obs.NewTracer(sink, "vdm", id, r.Net.Now))
		}
		sc.script(r, &kill)
	}
	golden.Check(t, "testdata/join_trace.golden", out.Bytes())
}
