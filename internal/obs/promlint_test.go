package obs

import (
	"strings"
	"testing"

	"vdm/internal/overlay"
)

// TestPrometheusExpositionLint renders a registry exercising every metric
// kind — counters, histograms, collector samples (gauges and counters) —
// and lints the text exposition the way promtool would: every family
// announces HELP and TYPE exactly once and before its samples, no series
// repeats, and every histogram closes with a +Inf bucket whose count
// equals _count and comes with a _sum.
func TestPrometheusExpositionLint(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("vdm_events_total", "Protocol trace events by type.")
	reg.Counter("vdm_events_total", L("proto", "vdm"), L("type", "join_start")).Inc()
	reg.Counter("vdm_events_total", L("proto", "vdm"), L("type", "join_done")).Add(3)
	h := reg.Histogram("vdm_join_duration_seconds", DurationBuckets, L("proto", "vdm"), L("purpose", "join"))
	h.Observe(0.01)
	h.Observe(0.4)
	h.Observe(1e9) // beyond the last bound: only +Inf holds it
	// A labelled per-edge histogram, the shape the chunk-path tracing adds.
	hl := reg.Histogram("vdm_chunk_path_latency_ms", LatencyBucketsMS,
		L("proto", "vdm"), L("node", "3"), L("from", "1"))
	hl.Observe(2.5)
	hl.Observe(40)
	hl.Observe(1e9)
	reg.RegisterCollector(func() []Sample {
		return []Sample{
			{Name: "vdm_transport_ctrl_msgs_total", Labels: []Label{L("node", "0")}, Value: 12},
			{Name: "vdm_overhead_ratio", Value: 0.25},
		}
	})

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()

	type family struct {
		help, typ  bool
		sawSample  bool
		metricType string
	}
	families := make(map[string]*family)
	fam := func(name string) *family {
		f, ok := families[name]
		if !ok {
			f = &family{}
			families[name] = f
		}
		return f
	}
	// baseName strips the histogram sample suffixes so _bucket/_sum/_count
	// lines map back to their family.
	baseName := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if f, ok := families[base]; ok && f.metricType == "histogram" {
					return base
				}
			}
		}
		return name
	}

	seenSeries := make(map[string]bool)
	histInf := make(map[string]int64)   // family{labels} → +Inf cumulative
	histCount := make(map[string]int64) // family{labels} → _count
	histSum := make(map[string]bool)

	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			f := fam(name)
			if f.help {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			if f.typ || f.sawSample {
				t.Fatalf("line %d: HELP for %s after TYPE/samples", ln+1, name)
			}
			f.help = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			f := fam(parts[0])
			if f.typ {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			if !f.help {
				t.Fatalf("line %d: TYPE for %s without preceding HELP", ln+1, parts[0])
			}
			if f.sawSample {
				t.Fatalf("line %d: TYPE for %s after its samples", ln+1, parts[0])
			}
			f.typ = true
			f.metricType = parts[1]
		default:
			name := line
			rest := ""
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name, rest = line[:i], line[i:]
			}
			series := name + rest[:strings.LastIndex(rest, " ")+1]
			if seenSeries[series] {
				t.Fatalf("line %d: duplicate series %q", ln+1, series)
			}
			seenSeries[series] = true
			base := baseName(name)
			f, ok := families[base]
			if !ok || !f.typ {
				t.Fatalf("line %d: sample %q before HELP/TYPE of %s", ln+1, line, base)
			}
			f.sawSample = true
			if f.metricType == "histogram" {
				val := line[strings.LastIndex(line, " ")+1:]
				key := base
				if i := strings.Index(rest, "{"); i >= 0 {
					// Identify the series by its labels minus le.
					key = base + stripLE(rest[i:strings.Index(rest, "}")+1])
				}
				switch {
				case strings.HasSuffix(name, "_bucket") && strings.Contains(rest, `le="+Inf"`):
					histInf[key] = atoi(t, val)
				case strings.HasSuffix(name, "_count"):
					histCount[key] = atoi(t, val)
				case strings.HasSuffix(name, "_sum"):
					histSum[key] = true
				}
			}
		}
	}

	for name, f := range families {
		if !f.help || !f.typ {
			t.Errorf("family %s missing HELP or TYPE", name)
		}
		if !f.sawSample {
			t.Errorf("family %s announced but has no samples", name)
		}
	}
	if len(histCount) == 0 {
		t.Fatal("no histogram _count lines seen")
	}
	for key, count := range histCount {
		inf, ok := histInf[key]
		if !ok {
			t.Errorf("histogram %s has no +Inf bucket", key)
			continue
		}
		if inf != count {
			t.Errorf("histogram %s: +Inf bucket %d != _count %d", key, inf, count)
		}
		if !histSum[key] {
			t.Errorf("histogram %s has no _sum", key)
		}
	}
	// The out-of-bounds observation must be visible in +Inf but no finite
	// bucket; _count is 3.
	for key, count := range histCount {
		if count != 3 {
			t.Errorf("histogram %s _count = %d, want 3", key, count)
		}
	}
}

// TestHelpLintStandardSurface builds the full standard metric surface a
// daemon exposes — every family the trace metrics sink emits plus every
// collector sample name vdmd registers — and fails if any of them would
// scrape out with the "(no description registered)" fallback. This is the
// `make check` enforcement that new metric families ship with HELP text.
func TestHelpLintStandardSurface(t *testing.T) {
	reg := NewRegistry()
	RegisterStandardHelp(reg)
	RegisterDataplaneHelp(reg)
	RegisterFlowHelp(reg)

	// Drive every event type through the metrics sink so each sink-side
	// family registers at least one series.
	sink := NewMetricsSink(reg)
	for _, typ := range []string{
		EvJoinStart, EvJoinStep, EvJoinDecide, EvJoinConnect, EvJoinDone,
		EvJoinTimeout, EvJoinRestart, EvOrphaned, EvRefineSwitch,
		EvInfoServed, EvConnServed, EvUDPRetransmit, EvUDPDedupeDrop,
		EvUDPAck, EvMailboxDepth, EvChunkPath,
	} {
		sink.Emit(Event{Proto: "vdm", Node: 2, Type: typ, Target: 1, Value: 1, Step: 1})
	}
	// Two chunk_path samples on one edge so the jitter family registers.
	sink.Emit(Event{Proto: "vdm", Node: 2, Type: EvChunkPath, Target: 1, Value: 3, Step: 1})

	// The collector sample names the daemon exports.
	for name := range dataplaneHelp {
		n := name
		reg.RegisterCollector(func() []Sample { return []Sample{{Name: n, Value: 1}} })
	}
	for name := range flowHelp {
		n := name
		reg.RegisterCollector(func() []Sample { return []Sample{{Name: n, Value: 1}} })
	}
	RegisterCounters(reg, "vdm_transport", &overlay.Counters{})
	reg.RegisterCollector(func() []Sample {
		return []Sample{
			{Name: "vdm_udp_retransmits_sent_total", Value: 0},
			{Name: "vdm_udp_dedupe_dropped_total", Value: 0},
			{Name: "vdm_udp_acks_received_total", Value: 0},
			{Name: "vdm_mailbox_highwater", Value: 0},
		}
	})

	if missing := reg.MissingHelp(); len(missing) > 0 {
		t.Fatalf("metric families without HELP text: %v", missing)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if strings.Contains(sb.String(), "(no description registered)") {
		t.Fatal("exposition contains the fallback HELP text")
	}
}

// stripLE removes the le="..." pair from a rendered label block.
func stripLE(labels string) string {
	inner := strings.Trim(labels, "{}")
	var keep []string
	for _, pair := range strings.Split(inner, ",") {
		if !strings.HasPrefix(pair, `le=`) {
			keep = append(keep, pair)
		}
	}
	return "{" + strings.Join(keep, ",") + "}"
}

func atoi(t *testing.T, s string) int64 {
	t.Helper()
	var n int64
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("expected integer, got %q", s)
		}
		n = n*10 + int64(c-'0')
	}
	return n
}
