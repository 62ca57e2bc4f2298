// Package obs is the observability layer shared by the simulator and the
// live runtime: a lightweight metrics registry (atomic counters,
// fixed-bucket histograms, collector-read gauges, Prometheus text
// exposition) and a structured protocol event tracer whose JSONL schema
// is identical whether the events come from a virtual-time session or a
// real UDP deployment. The registry absorbs the transport-level
// overlay.Counters through a collector, so /metrics shows one coherent
// view of a running peer.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {"proto", "vdm"} or {"node", "3"}).
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Sample is one collector-produced reading folded into the exposition.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// metricKey identifies one (name, labelset) series.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + renderLabels(labels, "") + "}"
}

// renderLabels formats sorted k="v" pairs; extra, when non-empty, is a
// pre-rendered pair appended last (the histogram "le" bound).
func renderLabels(labels []Label, extra string) string {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extra != "" {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	return b.String()
}

// series is the bookkeeping shared by every registered metric.
type series struct {
	name   string
	labels []Label
}

// Registry holds named metrics and renders them as Prometheus text or a
// JSON-friendly snapshot. All methods are safe for concurrent use; the
// returned Counter/Histogram handles are lock-free on the hot path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	hists      map[string]*Histogram
	meta       map[string]series // key → identity, for ordered exposition
	help       map[string]string // family name → HELP text
	collectors []func() []Sample
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		meta:     make(map[string]series),
		help:     make(map[string]string),
	}
}

// SetHelp records the HELP text for a metric family; the exposition emits
// it before the family's TYPE line. Families without explicit help get a
// generic fallback, so every family in /metrics always carries a HELP line
// (promlint's baseline expectation).
func (r *Registry) SetHelp(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// helpFor returns the registered HELP text or a fallback. Caller holds no
// lock; the map is only written under mu, so take it here.
func (r *Registry) helpFor(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.help[name]; ok {
		return t
	}
	return name + " (no description registered)"
}

// Counter returns the counter for (name, labels), registering it on first
// use. Same name+labels always yields the same handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.meta[key] = series{name: name, labels: labels}
	}
	return c
}

// Histogram returns the fixed-bucket histogram for (name, labels),
// registering it with the given bucket upper bounds on first use (later
// calls reuse the first bounds).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[key] = h
		r.meta[key] = series{name: name, labels: labels}
	}
	return h
}

// RegisterCollector adds a function polled at exposition time; its samples
// appear alongside the registered metrics (names ending in "_total" are
// typed counter, everything else gauge). Use it to absorb accounting that
// lives outside the registry, like overlay.Counters.
func (r *Registry) RegisterCollector(fn func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// sortedKeys returns m's keys ordered by (metric name, label key) so the
// exposition groups series of one family together deterministically.
func (r *Registry) sortedKeys() []string {
	keys := make([]string, 0, len(r.meta))
	for k := range r.meta {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		mi, mj := r.meta[keys[i]], r.meta[keys[j]]
		if mi.name != mj.name {
			return mi.name < mj.name
		}
		return keys[i] < keys[j]
	})
	return keys
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	keys := r.sortedKeys()
	collectors := append([]func() []Sample(nil), r.collectors...)
	r.mu.Unlock()

	typed := make(map[string]bool)
	emitType := func(name, typ string) {
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(w, "# HELP %s %s\n", name, r.helpFor(name))
			fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		}
	}

	for _, key := range keys {
		r.mu.Lock()
		m := r.meta[key]
		c := r.counters[key]
		h := r.hists[key]
		r.mu.Unlock()
		lbl := renderLabels(m.labels, "")
		suffix := ""
		if lbl != "" {
			suffix = "{" + lbl + "}"
		}
		switch {
		case c != nil:
			emitType(m.name, "counter")
			fmt.Fprintf(w, "%s%s %d\n", m.name, suffix, c.Value())
		case h != nil:
			emitType(m.name, "histogram")
			snap := h.Snapshot()
			cum := int64(0)
			for i, b := range snap.Bounds {
				cum += snap.Counts[i]
				fmt.Fprintf(w, "%s_bucket{%s} %d\n", m.name,
					renderLabels(m.labels, fmt.Sprintf("le=%q", formatFloat(b))), cum)
			}
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", m.name,
				renderLabels(m.labels, `le="+Inf"`), snap.Count)
			fmt.Fprintf(w, "%s_sum%s %s\n", m.name, suffix, formatFloat(snap.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", m.name, suffix, snap.Count)
		}
	}

	var extra []Sample
	for _, fn := range collectors {
		extra = append(extra, fn()...)
	}
	sort.Slice(extra, func(i, j int) bool {
		if extra[i].Name != extra[j].Name {
			return extra[i].Name < extra[j].Name
		}
		return renderLabels(extra[i].Labels, "") < renderLabels(extra[j].Labels, "")
	})
	for _, s := range extra {
		typ := "gauge"
		if strings.HasSuffix(s.Name, "_total") {
			typ = "counter"
		}
		emitType(s.Name, typ)
		lbl := renderLabels(s.Labels, "")
		if lbl != "" {
			lbl = "{" + lbl + "}"
		}
		fmt.Fprintf(w, "%s%s %s\n", s.Name, lbl, formatFloat(s.Value))
	}
}

// formatFloat renders a float without superfluous exponent noise for
// integral values, matching common Prometheus client output.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Snapshot returns a JSON-friendly view of every metric keyed by its
// series identity — the /debug/vars payload.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	keys := r.sortedKeys()
	collectors := append([]func() []Sample(nil), r.collectors...)
	r.mu.Unlock()

	out := make(map[string]any, len(keys))
	for _, key := range keys {
		r.mu.Lock()
		c := r.counters[key]
		h := r.hists[key]
		r.mu.Unlock()
		switch {
		case c != nil:
			out[key] = c.Value()
		case h != nil:
			snap := h.Snapshot()
			out[key] = map[string]any{
				"count":   snap.Count,
				"sum":     snap.Sum,
				"bounds":  snap.Bounds,
				"buckets": snap.Counts,
			}
		}
	}
	for _, fn := range collectors {
		for _, s := range fn() {
			out[metricKey(s.Name, s.Labels)] = s.Value
		}
	}
	return out
}
