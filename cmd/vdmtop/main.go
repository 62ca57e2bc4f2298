// Command vdmtop is the operator's view of a running VDM session. It has
// two modes, usable together:
//
// Topology mode tails a source's /tree admin route and renders the
// reconstructed multicast tree with per-peer health:
//
//	vdmtop -admin 127.0.0.1:8080            # one snapshot
//	vdmtop -admin 127.0.0.1:8080 -watch 2s  # refresh every 2 s
//
// With -edges the topology is colored by per-edge flow health from the
// source's /edges route: lossy edges red, throttled yellow, pulling
// magenta, dead inverse-red — the injected-fault hunt at a glance:
//
//	vdmtop -admin 127.0.0.1:8080 -edges
//
// Trace mode merges per-peer JSONL trace files (vdmd -trace output, or
// the per-peer sinks of a lab cluster) on the shared session clock and
// reconstructs every join procedure's descent path across the peers it
// touched, correlated by join_id:
//
//	vdmtop -traces source.jsonl,peer1.jsonl,peer2.jsonl
//	vdmtop -traces source.jsonl,peer1.jsonl -join 3:1
//
// With -chunks it instead reconstructs the dissemination path of every
// trace-tagged chunk (vdmd -tracesample) across the merged traces:
//
//	vdmtop -traces source.jsonl,peer1.jsonl -chunks
//	vdmtop -traces source.jsonl,peer1.jsonl -chunks -chunk 4200
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"vdm/internal/obs"
	"vdm/internal/obs/tree"
)

func main() {
	var (
		admin   = flag.String("admin", "", "source admin address (host:port or URL) to fetch /tree from")
		watch   = flag.Duration("watch", 0, "with -admin: refresh interval (0 = print once)")
		edges   = flag.Bool("edges", false, "with -admin: fetch /edges too and color the tree by edge flow health")
		nocolor = flag.Bool("nocolor", false, "disable ANSI colors in the edge-health view")
		traces  = flag.String("traces", "", "comma-separated per-peer JSONL trace files to merge")
		joinID  = flag.String("join", "", "with -traces: show only this join_id (e.g. 3:1)")
		chunks  = flag.Bool("chunks", false, "with -traces: show trace-tagged chunk dissemination paths instead of joins")
		chunkN  = flag.Int64("chunk", -1, "with -chunks: show only this chunk sequence")
	)
	flag.Parse()

	if *admin == "" && *traces == "" {
		fmt.Fprintln(os.Stderr, "vdmtop: need -admin <addr> and/or -traces <files>")
		os.Exit(2)
	}

	if *traces != "" {
		files := strings.Split(*traces, ",")
		var err error
		if *chunks {
			err = showChunks(os.Stdout, files, *chunkN)
		} else {
			err = showJoins(os.Stdout, files, *joinID)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vdmtop:", err)
			os.Exit(1)
		}
	}
	if *admin != "" {
		for {
			if err := showTree(*admin, *edges, !*nocolor); err != nil {
				fmt.Fprintln(os.Stderr, "vdmtop:", err)
				if *watch == 0 {
					os.Exit(1)
				}
			}
			if *watch == 0 {
				return
			}
			time.Sleep(*watch)
		}
	}
}

// fetchJSON decodes one admin route into out.
func fetchJSON(addr, route string, out any) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + route
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	return nil
}

// showTree fetches one /tree snapshot (plus /edges when asked) and
// renders it.
func showTree(addr string, withEdges, color bool) error {
	var snap tree.Snapshot
	if err := fetchJSON(addr, "/tree", &snap); err != nil {
		return err
	}
	var es *tree.EdgesSnapshot
	if withEdges {
		es = &tree.EdgesSnapshot{}
		if err := fetchJSON(addr, "/edges", es); err != nil {
			return err
		}
	}
	RenderTree(os.Stdout, &snap, es, color)
	return nil
}

// edgeColors picks the ANSI escape per edge-health status. Dead renders
// inverse so a severed uplink jumps out even in a deep tree.
var edgeColors = map[string]string{
	tree.EdgeThrottled: "\x1b[33m", // yellow
	tree.EdgeLossy:     "\x1b[31m", // red
	tree.EdgePulling:   "\x1b[35m", // magenta
	tree.EdgeDead:      "\x1b[7;31m",
}

// RenderTree prints the snapshot as an indented topology plus a summary
// line per health dimension. A non-nil edges snapshot annotates every
// non-source node with its uplink edge's flow health (colored unless
// disabled) and appends the edge summary.
func RenderTree(w io.Writer, snap *tree.Snapshot, es *tree.EdgesSnapshot, color bool) {
	s := snap.Summary
	fmt.Fprintf(w, "tree @ %.1fs  members=%d reachable=%d stale=%d partitioned=%d orphans=%d\n",
		snap.AtS, s.Members, s.Reachable, s.Stale, s.Partitioned, s.Orphans)
	fmt.Fprintf(w, "cost=%.1fms depth max=%d avg=%.2f stretch-proxy avg=%.2f max=%.2f fanout max=%d avg=%.2f\n",
		s.CostMS, s.MaxDepth, s.AvgDepth, s.StretchProxyAvg, s.StretchProxyMax, s.MaxFanout, s.AvgFanout)
	uplink := map[int64]tree.EdgeHealth{}
	if es != nil {
		e := es.Summary
		fmt.Fprintf(w, "edges: total=%d ok=%d throttled=%d lossy=%d pulling=%d dead=%d\n",
			e.Total, e.OK, e.Throttled, e.Lossy, e.Pulling, e.Dead)
		for _, eh := range es.Edges {
			uplink[eh.Child] = eh
		}
	}

	byID := make(map[int64]tree.PeerHealth, len(snap.Peers))
	kids := make(map[int64][]int64)
	for _, p := range snap.Peers {
		byID[p.ID] = p
		if p.ID != snap.Source && p.Parent >= 0 {
			kids[p.Parent] = append(kids[p.Parent], p.ID)
		}
	}
	for _, c := range kids {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	var render func(id int64, indent string)
	render = func(id int64, indent string) {
		p, known := byID[id]
		label := fmt.Sprintf("%s%d", indent, id)
		if known && id != snap.Source {
			label += fmt.Sprintf("  rtt=%.1fms depth=%d", p.ParentRTTMS, p.Depth)
			if p.Stale {
				label += "  STALE"
			}
			if p.Partitioned {
				label += "  PARTITIONED"
			}
		}
		esc := ""
		if eh, ok := uplink[id]; ok && eh.Status != tree.EdgeOK {
			label += fmt.Sprintf("  [%s score=%.2f", eh.Status, eh.Score)
			if eh.NacksSent > 0 || eh.NacksFromChild > 0 {
				label += fmt.Sprintf(" nacks=%d/%d", eh.NacksSent, eh.NacksFromChild)
			}
			if eh.StallPulls > 0 {
				label += fmt.Sprintf(" pulls=%d", eh.StallPulls)
			}
			if eh.BaseRate > 0 && eh.RateChunksPerS < eh.BaseRate {
				label += fmt.Sprintf(" rate=%.0f/%.0f", eh.RateChunksPerS, eh.BaseRate)
			}
			label += "]"
			if color {
				esc = edgeColors[eh.Status]
			}
		}
		if esc != "" {
			fmt.Fprintf(w, "%s%s\x1b[0m\n", esc, label)
		} else {
			fmt.Fprintln(w, label)
		}
		for _, c := range kids[id] {
			render(c, indent+"  ")
		}
	}
	render(snap.Source, "")
	// Peers that report a parent the source never heard from hang off no
	// rendered node; list them so nothing silently disappears.
	shown := map[int64]bool{snap.Source: true}
	var mark func(id int64)
	mark = func(id int64) {
		for _, c := range kids[id] {
			shown[c] = true
			mark(c)
		}
	}
	mark(snap.Source)
	for _, p := range snap.Peers {
		if !shown[p.ID] {
			fmt.Fprintf(w, "~ %d detached (parent=%d stale=%v)\n", p.ID, p.Parent, p.Stale)
		}
	}
}

// mergeTraceFiles reads the JSONL files and merges them on the shared
// session clock.
func mergeTraceFiles(files []string) ([]obs.Event, error) {
	var traces [][]obs.Event
	for _, f := range files {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		evs, err := obs.ReadJSONL(fh)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		traces = append(traces, evs)
	}
	return obs.MergeTraces(traces...), nil
}

// showJoins merges the trace files and prints every join's descent path.
func showJoins(w io.Writer, files []string, only string) error {
	merged, err := mergeTraceFiles(files)
	if err != nil {
		return err
	}
	joins := obs.ReconstructJoins(merged)
	ids := make([]string, 0, len(joins))
	for id := range joins {
		if only != "" && id != only {
			continue
		}
		ids = append(ids, id)
	}
	if only != "" && len(ids) == 0 {
		return fmt.Errorf("join %q not found in %d traces", only, len(files))
	}
	sort.Slice(ids, func(i, j int) bool { return joins[ids[i]].Start < joins[ids[j]].Start })
	for _, id := range ids {
		printJoin(w, joins[id])
	}
	return nil
}

func printJoin(w io.Writer, j *obs.JoinPath) {
	state := "in flight"
	if j.Done {
		state = fmt.Sprintf("done in %.3fs → parent %d", j.Duration, j.Parent)
	}
	fmt.Fprintf(w, "join %s  node %d  %s  @%.3fs  %s\n", j.JoinID, j.Node, j.Purpose, j.Start, state)
	if j.Restarts > 0 {
		fmt.Fprintf(w, "  restarts: %d\n", j.Restarts)
	}
	for i, st := range j.Path {
		mark := " "
		if st.Served {
			mark = "*" // corroborated by the queried peer's own trace
		}
		fmt.Fprintf(w, "  %2d. %s node %-4d @%.3fs\n", i+1, mark, st.Node, st.T)
	}
	if len(j.Servers) > 0 {
		fmt.Fprintf(w, "  served by: %v", j.Servers)
		if j.Accepted >= 0 {
			fmt.Fprintf(w, "  (accepted by %d)", j.Accepted)
		}
		fmt.Fprintln(w)
	}
}

// showChunks merges the trace files and prints every trace-tagged chunk's
// dissemination path, hop by hop. only < 0 shows every traced chunk.
func showChunks(w io.Writer, files []string, only int64) error {
	merged, err := mergeTraceFiles(files)
	if err != nil {
		return err
	}
	paths := obs.ReconstructChunkPaths(merged)
	seqs := make([]int64, 0, len(paths))
	for seq := range paths {
		if only >= 0 && seq != only {
			continue
		}
		seqs = append(seqs, seq)
	}
	if only >= 0 && len(seqs) == 0 {
		return fmt.Errorf("chunk %d not traced in %d files", only, len(files))
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		cp := paths[seq]
		fmt.Fprintf(w, "chunk %d  hops=%d  max depth=%d  max latency=%.2fms\n",
			cp.Seq, len(cp.Hops), cp.MaxDepth, cp.MaxLatencyMS)
		for _, h := range cp.Hops {
			fmt.Fprintf(w, "  depth %-2d  %4d → %-4d  %.2fms  @%.3fs\n",
				h.Depth, h.From, h.Node, h.LatencyMS, h.T)
		}
	}
	return nil
}
