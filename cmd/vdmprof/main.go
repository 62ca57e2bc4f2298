// Command vdmprof renders a simulation flight recording (the JSONL stream
// internal/obs/simprof writes when a session runs with profiling on:
// vdmsim -profileout on either underlay): run totals with peak heap per
// peer, the per-epoch horizon-advance distribution, the per-shard
// busy/barrier-wait imbalance table, event-storm attribution (hottest
// peers and overlay edges), the wire-message mix, and the final protocol
// state. -timeline prints the interval-by-interval time series instead;
// its cumulative wall column read at the join phase's end splits a run's
// wall into join storm and steady state.
//
//	vdmsim -nodes 1000 -shards 4 -profileout sim_profile.jsonl
//	vdmprof sim_profile.jsonl
//	vdmprof -timeline sim_profile.jsonl
//	vdmprof -top 20 BENCH_simprof.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"vdm/internal/obs/simprof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "vdmprof:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vdmprof", flag.ContinueOnError)
	var (
		timeline = fs.Bool("timeline", false, "print the per-interval time series instead of the summary")
		topN     = fs.Int("top", 10, "entries in the hot-peer/hot-edge attribution tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topN < 1 {
		return fmt.Errorf("-top %d: need at least 1 entry", *topN)
	}

	var in io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rec, err := simprof.Read(in)
	if err != nil {
		return err
	}
	if len(rec.Records) == 0 {
		return fmt.Errorf("recording has no interval records")
	}

	printHeader(stdout, rec.Header)
	if *timeline {
		printTimeline(stdout, rec)
		return nil
	}
	printSummary(stdout, rec, *topN)
	return nil
}

func printHeader(w io.Writer, h simprof.Header) {
	fmt.Fprintf(w, "engine=%s", h.Engine)
	if h.Engine == "sharded" {
		fmt.Fprintf(w, " shards=%d", h.Shards)
		if h.LookaheadS > 0 {
			fmt.Fprintf(w, " lookahead=%.2fms", h.LookaheadS*1000)
		} else {
			fmt.Fprintf(w, " lookahead=inf")
		}
	}
	fmt.Fprintf(w, " protocol=%s nodes=%d pool=%d seed=%d duration=%.0fs interval=%.0fs\n",
		h.Protocol, h.Nodes, h.Pool, h.Seed, h.DurationS, h.IntervalS)
}

func printSummary(w io.Writer, rec *simprof.Recording, topN int) {
	var (
		events, deliveries, timers uint64
		epochs, xshard             uint64
		wallMS                     float64
		heapMax                    float64
		horizon                    simprof.Dist
		horizonSum                 float64
		msgs                       = map[string]uint64{}
		peerMsgs                   = map[int]uint64{}
		edgeMsgs                   = map[[2]int]uint64{}
		shards                     []simprof.ShardRow
	)
	for _, r := range rec.Records {
		events += r.Events
		deliveries += r.Deliveries
		timers += r.Timers
		epochs += r.Epochs
		xshard += r.XShardMsgs
		wallMS += r.WallMS
		if r.HeapMB > heapMax {
			heapMax = r.HeapMB
		}
		if d := r.HorizonAdvMS; d != nil && d.N > 0 {
			if horizon.N == 0 || d.Min < horizon.Min {
				horizon.Min = d.Min
			}
			if horizon.N == 0 || d.Max > horizon.Max {
				horizon.Max = d.Max
			}
			horizon.N += d.N
			horizonSum += d.Mean * float64(d.N)
		}
		for k, n := range r.Msgs {
			msgs[k] += n
		}
		for _, p := range r.TopPeers {
			peerMsgs[p.Peer] += p.Msgs
		}
		for _, e := range r.TopEdges {
			edgeMsgs[[2]int{e.From, e.To}] += e.Msgs
		}
		for i, row := range r.Shards {
			if i >= len(shards) {
				shards = append(shards, simprof.ShardRow{})
			}
			shards[i].Events += row.Events
			shards[i].BusyMS += row.BusyMS
			shards[i].WaitMS += row.WaitMS
		}
	}

	last := rec.Records[len(rec.Records)-1]
	fmt.Fprintf(w, "\n%d records over %.0f simulated s, %.1f wall s\n",
		len(rec.Records), last.T, wallMS/1000)
	fmt.Fprintf(w, "  events      %d (%d deliveries, %d timers)", events, deliveries, timers)
	if wallMS > 0 {
		fmt.Fprintf(w, "  %.0f events/s", float64(events)/(wallMS/1000))
	}
	fmt.Fprintln(w)
	if epochs > 0 {
		fmt.Fprintf(w, "  epochs      %d (%.1f ms simulated/epoch), %d cross-shard msgs (%.1f/epoch)\n",
			epochs, last.T*1000/float64(epochs), xshard, float64(xshard)/float64(epochs))
	}
	if heapMax > 0 {
		fmt.Fprintf(w, "  heap        %.1f MB peak sampled", heapMax)
		if n := rec.Header.Nodes; n > 0 {
			fmt.Fprintf(w, " (%.0f B/peer)", heapMax*1e6/float64(n))
		}
		fmt.Fprintln(w)
	}
	if horizon.N > 0 {
		fmt.Fprintf(w, "  horizon adv %.3f ms min, %.3f ms mean, %.3f ms max over %d epochs\n",
			horizon.Min, horizonSum/float64(horizon.N), horizon.Max, horizon.N)
	}

	if len(shards) > 0 {
		fmt.Fprintf(w, "\nshard  %12s %10s %10s  %s\n", "events", "busy(s)", "wait(s)", "wait-share")
		for i, row := range shards {
			share := 0.0
			if tot := row.BusyMS + row.WaitMS; tot > 0 {
				share = row.WaitMS / tot
			}
			fmt.Fprintf(w, "%5d  %12d %10.2f %10.2f  %9.1f%%\n",
				i, row.Events, row.BusyMS/1000, row.WaitMS/1000, share*100)
		}
	}

	if len(msgs) > 0 {
		fmt.Fprintln(w, "\nmessage mix:")
		type kv struct {
			k string
			n uint64
		}
		var mix []kv
		var total uint64
		for k, n := range msgs {
			mix = append(mix, kv{k, n})
			total += n
		}
		sort.Slice(mix, func(i, j int) bool {
			if mix[i].n != mix[j].n {
				return mix[i].n > mix[j].n
			}
			return mix[i].k < mix[j].k
		})
		for _, m := range mix {
			fmt.Fprintf(w, "  %-16s %12d  %5.1f%%\n", m.k, m.n, 100*float64(m.n)/float64(total))
		}
	}

	printHotPeers(w, peerMsgs, topN)
	printHotEdges(w, edgeMsgs, topN)
	printProto(w, rec)
}

// printHotPeers ranks the peers the per-record top-K lists surfaced. The
// counts are lower bounds: a peer only accumulates over records where it
// made that record's top-K.
func printHotPeers(w io.Writer, peerMsgs map[int]uint64, topN int) {
	if len(peerMsgs) == 0 {
		return
	}
	type pc struct {
		peer int
		n    uint64
	}
	var out []pc
	for p, n := range peerMsgs {
		out = append(out, pc{p, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].peer < out[j].peer
	})
	if len(out) > topN {
		out = out[:topN]
	}
	fmt.Fprintf(w, "\ntop %d event-storm peers (msgs sent+received while in an interval top list):\n", len(out))
	for _, p := range out {
		fmt.Fprintf(w, "  peer %-6d %12d\n", p.peer, p.n)
	}
}

func printHotEdges(w io.Writer, edgeMsgs map[[2]int]uint64, topN int) {
	if len(edgeMsgs) == 0 {
		return
	}
	type ec struct {
		edge [2]int
		n    uint64
	}
	var out []ec
	for e, n := range edgeMsgs {
		out = append(out, ec{e, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		if out[i].edge[0] != out[j].edge[0] {
			return out[i].edge[0] < out[j].edge[0]
		}
		return out[i].edge[1] < out[j].edge[1]
	})
	if len(out) > topN {
		out = out[:topN]
	}
	fmt.Fprintf(w, "\ntop %d hot edges:\n", len(out))
	for _, e := range out {
		fmt.Fprintf(w, "  %6d -> %-6d %12d\n", e.edge[0], e.edge[1], e.n)
	}
}

func printProto(w io.Writer, rec *simprof.Recording) {
	var first, last *simprof.Proto
	var lastT float64
	for i := range rec.Records {
		if p := rec.Records[i].Proto; p != nil {
			if first == nil {
				first = p
			}
			last = p
			lastT = rec.Records[i].T
		}
	}
	if last == nil {
		return
	}
	fmt.Fprintf(w, "\nprotocol at t=%.0fs:\n", lastT)
	fmt.Fprintf(w, "  alive %d, reachable %d, unattached %d\n", last.Alive, last.Reachable, last.Unattached)
	fmt.Fprintf(w, "  orphans %d, reconnects %d (cumulative)\n", last.Orphans, last.Reconnects)
	fmt.Fprintf(w, "  tree cost %.0f ms, depth mean %.2f max %d\n", last.TreeCostMS, last.DepthMean, last.DepthMax)
}

// printTimeline prints one row per interval. The wall column is
// cumulative, so its value at the row that closes the join phase is the
// join storm's wall clock.
func printTimeline(w io.Writer, rec *simprof.Recording) {
	sharded := rec.Header.Engine == "sharded"
	fmt.Fprintf(w, "\n%8s %8s %10s %10s %8s %8s", "t(s)", "wall(s)", "events", "ev/s", "queue", "heapMB")
	if sharded {
		fmt.Fprintf(w, " %7s %8s", "epochs", "xshard")
	}
	fmt.Fprintf(w, " %7s %7s %8s %8s\n", "alive", "reach", "orphans", "reconn")
	var wallMS float64
	for _, r := range rec.Records {
		wallMS += r.WallMS
		fmt.Fprintf(w, "%8.0f %8.2f %10d %10.0f %8d %8.1f", r.T, wallMS/1000, r.Events, r.EventsPerSec, r.Queue, r.HeapMB)
		if sharded {
			fmt.Fprintf(w, " %7d %8d", r.Epochs, r.XShardMsgs)
		}
		if p := r.Proto; p != nil {
			fmt.Fprintf(w, " %7d %7d %8d %8d", p.Alive, p.Reachable, p.Orphans, p.Reconnects)
		}
		fmt.Fprintln(w)
	}
}
