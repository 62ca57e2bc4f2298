package obs

import (
	"strings"
	"sync"
	"testing"

	"vdm/internal/overlay"
)

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", L("a", "1"))
	c2 := r.Counter("x_total", L("a", "1"))
	if c1 != c2 {
		t.Fatal("same name+labels returned different counter handles")
	}
	if c3 := r.Counter("x_total", L("a", "2")); c3 == c1 {
		t.Fatal("different labels shared a handle")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("joins_total", L("proto", "vdm")).Add(3)
	r.RegisterCollector(func() []Sample { return []Sample{{Name: "depth", Value: 4.5}} })
	h := r.Histogram("lat_ms", []float64{1, 10}, L("proto", "vdm"))
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE joins_total counter",
		`joins_total{proto="vdm"} 3`,
		"# TYPE depth gauge",
		"depth 4.5",
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{proto="vdm",le="1"} 1`,
		`lat_ms_bucket{proto="vdm",le="10"} 2`,
		`lat_ms_bucket{proto="vdm",le="+Inf"} 3`,
		`lat_ms_sum{proto="vdm"} 105.5`,
		`lat_ms_count{proto="vdm"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorSamplesAppearInExpositionAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var ctrs overlay.Counters
	ctrs.Ctrl.Add(4)
	ctrs.Data.Add(8)
	RegisterCounters(r, "tp", &ctrs, L("node", "3"))

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE tp_ctrl_msgs_total counter",
		`tp_ctrl_msgs_total{node="3"} 4`,
		`tp_data_chunks_total{node="3"} 8`,
		"# TYPE tp_overhead_ratio gauge",
		`tp_overhead_ratio{node="3"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	snap := r.Snapshot()
	if v, ok := snap[`tp_ctrl_msgs_total{node="3"}`]; !ok || v.(float64) != 4 {
		t.Fatalf("snapshot ctrl = %v (%v)", v, ok)
	}

	// Counters advanced between scrapes must show fresh values.
	ctrs.Ctrl.Add(6)
	b.Reset()
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `tp_ctrl_msgs_total{node="3"} 10`) {
		t.Fatal("collector did not re-read the counters")
	}
}

// TestRegistryConcurrent hammers registration and updates from many
// goroutines; run under -race this is the registry's thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c_total", L("w", "x")).Inc()
				r.Histogram("h", []float64{1, 2, 4}).Observe(float64(j % 5))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", L("w", "x")).Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("h", nil).Snapshot().Count; got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
	var b strings.Builder
	r.WritePrometheus(&b) // must not race or panic
}
