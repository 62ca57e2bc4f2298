package main

import (
	"time"

	"vdm/internal/core"
	"vdm/internal/eventq"
	"vdm/internal/flow"
	"vdm/internal/overlay"
	"vdm/internal/protocoltest"
	"vdm/internal/rng"
	"vdm/internal/topology"
	"vdm/internal/underlay"
	"vdm/internal/wire"
)

// A probe times calls into one layer's public functions on inputs shaped
// like the workload. Probes run after the traced session, each inside its
// own span, and feed only per-layer metrics.

// nsPer times n calls of fn and returns nanoseconds per call.
func nsPer(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeEventq measures one AfterArg + pop + dispatch cycle with the heap
// held at the given depth (the workload's observed mean queue depth).
func probeEventq(depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	s := eventq.New()
	rnd := rng.New(1)
	var tick func(any)
	tick = func(a any) { s.AfterArg(rnd.Uniform(0.5, 1.5), tick, a) }
	for i := 0; i < depth; i++ {
		s.AtArg(rnd.Uniform(0, 1), tick, nil)
	}
	s.Run(2) // every slot has rescheduled at least once; free list is warm
	const events = 400_000
	before := s.Processed()
	start := time.Now()
	for t := 3.0; s.Processed()-before < events; t++ {
		s.Run(t)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(s.Processed()-before)
}

// routerUnderlay builds the underlay of the workload's sessions for this
// seed and pool size: the construction of sim.buildUnderlay (internal/sim/
// sim.go), which sim does not export, repeated over the same inputs and the
// same seed streams. sim's cache budget is left out: it is 4096 shortest-
// path rows at least, and the probe touches at most 2048.
func routerUnderlay(seed int64, pool int) (*underlay.RouterUnderlay, error) {
	ts, err := topology.GenerateTransitStub(topology.ScaledTransitStub(routerMin), rng.Derive(seed, "topology"))
	if err != nil {
		return nil, err
	}
	u := underlay.NewRouter(ts.Graph, ts.AttachHosts(pool, rng.Derive(seed, "attach")))
	u.WithKeyedJitter(rng.DeriveSeed(seed, "routerjitter"), jitterSigma)
	return u, nil
}

// probeUnderlay times the delay lookup with the shortest-path rows cold
// (first touch of each source router computes its tree) and warm, and the
// jittered RTT measurement the prober makes.
func probeUnderlay(seed int64, pool int) (hitNS, missNS, rttNS float64, err error) {
	u, err := routerUnderlay(seed, pool)
	if err != nil {
		return 0, 0, 0, err
	}
	rnd := rng.New(seed)
	const pairs = 2048
	a, b := make([]int, pairs), make([]int, pairs)
	for i := range a {
		a[i], b[i] = rnd.IntBetween(0, pool-1), rnd.IntBetween(0, pool-1)
	}
	var sink float64
	missNS = nsPer(pairs, func(i int) { sink += u.OneWayDelayMSKeyed(a[i], b[i], 0) })
	hitNS = nsPer(100*pairs, func(i int) { sink += u.OneWayDelayMSKeyed(a[i%pairs], b[i%pairs], uint64(i)) })
	rttNS = nsPer(100*pairs, func(i int) { sink += u.RTT(a[i%pairs], b[i%pairs]) })
	_ = sink
	return hitNS, missNS, rttNS, nil
}

// probeJoin times the whole iterative join (info, probe and connect
// rounds) per joining peer, over a static RTT matrix from a random 2-D
// placement — the shape of core's BenchmarkJoin.
func probeJoin() float64 {
	const n, rounds = 32, 40
	rnd := rng.New(42)
	points := make([]protocoltest.Point, n)
	for i := 1; i < n; i++ {
		points[i] = protocoltest.Point{X: rnd.Uniform(-100, 100), Y: rnd.Uniform(-100, 100)}
	}
	perSession := nsPer(rounds, func(int) {
		r := protocoltest.New(points)
		for j := 0; j < n; j++ {
			id := overlay.NodeID(j)
			node := core.New(r.Net, r.PeerConfig(id, 4), core.Config{}, nil)
			r.Net.Register(id, node)
			if j != 0 {
				r.Sim.At(float64(j)*5, node.StartJoin)
			}
		}
		r.Run(float64(n)*5 + 30)
	})
	return perSession / (n - 1)
}

// probeWire times the data path's codec on one stream chunk of the
// workload's payload size: pooled encode, decode, and the allocations of
// an encode + retarget + decode round trip.
func probeWire(payloadB int) (encNS, decNS, allocs float64, err error) {
	f := wire.Frame{Kind: wire.KindMsg, From: 5, To: 9, Msg: overlay.DataChunk{Seq: 424242, Payload: make([]byte, payloadB)}}
	const n = 200_000
	eb := wire.GetEncodeBuffer()
	defer eb.Release()
	var b []byte
	encNS = nsPer(n, func(int) { b, err = eb.Encode(f) })
	if err != nil {
		return 0, 0, 0, err
	}
	decNS = nsPer(n, func(int) { _, _, err = wire.DecodeFrame(b) })
	if err != nil {
		return 0, 0, 0, err
	}
	before := takeRT().allocs
	for i := 0; i < n; i++ {
		b, _ = eb.Encode(f)
		wire.PatchTo(b, overlay.NodeID(i&7))
		_, _, _ = wire.DecodeFrame(b)
	}
	return encNS, decNS, float64(takeRT().allocs-before) / n, nil
}

// probeWindow times the receive window on an in-order stream with the
// workload's loss share left as gaps, scanned for missing ranges once per
// AckEvery arrivals as the flow tick does.
func probeWindow(lossPct float64) float64 {
	w := flow.NewWindow(0, flow.DefaultBackfill)
	threshold := uint64(lossPct / 100 * float64(1<<63) * 2)
	var scratch []flow.Range
	var repair [64]int64 // a lost sequence number arrives 64 arrivals later
	for i := range repair {
		repair[i] = -1
	}
	return nsPer(2_000_000, func(i int) {
		if seq := repair[i&63]; seq >= 0 {
			w.Add(seq)
			repair[i&63] = -1
		}
		if splitmix64(uint64(i)) < threshold {
			repair[i&63] = int64(i)
		} else {
			w.Add(int64(i))
		}
		if i&15 == 0 {
			scratch = w.Missing(scratch, 8)
		}
	})
}
