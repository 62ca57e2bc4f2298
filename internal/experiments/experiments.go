// Package experiments reproduces the figures of the paper's evaluation
// chapters. Each experiment group is a spec (figures.go): the values one
// variable sweeps, the variants compared at each value, and the session
// config of every (value, variant, repetition) cell. One runner executes
// every spec, aggregates repetitions into means with 90% confidence
// intervals — the paper's reporting style — and renders the series each
// figure plots.
package experiments

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"vdm/internal/lab"
	"vdm/internal/parallel"
	"vdm/internal/sim"
	"vdm/internal/stats"
)

// Options scale an experiment run. The paper's full scale (32 repetitions,
// 10000-second sessions) takes hours; TimeScale and Reps trade precision
// for wall-clock without changing the shapes.
type Options struct {
	Seed int64
	// Reps is the repetitions per (x value, variant); zero selects 5.
	Reps int
	// TimeScale multiplies session durations and join phases
	// (1 = the paper's timings); zero selects 1.
	TimeScale float64
	// RateScale multiplies the data chunk rate; zero selects 1.
	RateScale float64
	// Jobs caps the session worker pool: every (x value, variant,
	// repetition) cell is an independent seeded simulation, so cells run
	// concurrently and are aggregated in sweep order — the output is
	// byte-identical at any Jobs value. Zero selects GOMAXPROCS; 1 runs
	// fully serial.
	Jobs int
	// Progress, when non-nil, receives one line per finished session.
	// Lines are emitted during the deterministic aggregation phase, so
	// their order does not depend on Jobs either.
	Progress func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 1
	}
	if o.RateScale <= 0 {
		o.RateScale = 1
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	return o
}

// repSeed derives a distinct seed per cell and repetition.
func (o Options) repSeed(cell, rep int) int64 {
	return o.Seed + int64(cell)*1_000_003 + int64(rep)*7_919
}

// Point is one x-value of a figure with one summarized y-value per series.
type Point struct {
	X      float64
	Series map[string]stats.Summary
}

// Table is the data behind one figure.
type Table struct {
	ID      string // figure number, e.g. "3.25"
	Title   string
	XLabel  string
	Columns []string
	Points  []Point
}

// Format renders the table as aligned text with mean±CI90 cells.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s — %s\n", t.ID, t.Title)
	header := []string{t.XLabel}
	header = append(header, t.Columns...)
	rows := [][]string{header}
	for _, p := range t.Points {
		row := []string{trimFloat(p.X)}
		for _, c := range t.Columns {
			s, ok := p.Series[c]
			if !ok {
				row = append(row, "-")
				continue
			}
			if s.CI90 > 0 {
				row = append(row, fmt.Sprintf("%.4g ±%.2g", s.Mean, s.CI90))
			} else {
				row = append(row, fmt.Sprintf("%.4g", s.Mean))
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			b.WriteString(strings.Repeat("-", sum(widths)+2*len(widths)))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.4g", x)
	return s
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// metric reads one plotted quantity off a session's result.
type metric func(*sim.Result) float64

// col is one series of a figure whose columns are metrics.
type col struct {
	name string
	of   metric
}

// figure is one table of a spec. It plots either y, one column per
// variant, or cols, the metrics of a single variant.
type figure struct {
	id, title string
	y         metric
	cols      []col
}

// variant is one configuration a spec compares at every x value. Progress
// lines name an unnamed one by its session's protocol.
type variant struct {
	name string
	set  func(*sim.Config)
}

// spec is one experiment group. Its figures share the x axis: every x
// value runs every variant for Options.Reps repetitions, one session per
// (x, variant, repetition) cell.
type spec struct {
	group  string
	xlabel string
	figs   []figure
	xs     []float64
	// base is the group's setup; at sets the x value on it, and whatever
	// else the group holds fixed.
	base func(Options) sim.Config
	at   func(cfg *sim.Config, x float64)
	// variants are run in order at every x.
	variants []variant
	// cell numbers (x index, variant index) for repSeed; variants that
	// share a cell replay the same scenarios.
	cell func(xi, vi int) int
	// growth marks chapter 4's time axis, which no config sets: see
	// runGrowth.
	growth bool
}

// Groups lists the experiment groups in the order -all runs them.
func Groups() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.group
	}
	return names
}

// GroupFor resolves a figure id ("5.9") to its experiment group.
func GroupFor(fig string) (string, bool) {
	for _, s := range specs {
		for _, f := range s.figs {
			if f.id == fig {
				return s.group, true
			}
		}
	}
	return "", false
}

// Run executes the named experiment group.
func Run(group string, o Options) ([]*Table, error) {
	for _, s := range specs {
		if s.group != group {
			continue
		}
		if s.growth {
			return s.runGrowth(o.withDefaults())
		}
		return s.run(o.withDefaults())
	}
	names := Groups()
	sort.Strings(names)
	return nil, fmt.Errorf("experiments: unknown group %q (have %s)", group, strings.Join(names, ", "))
}

// run sweeps the x values and aggregates every session at its own x.
func (s *spec) run(o Options) ([]*Table, error) {
	cells, results, err := s.sessions(o, len(s.xs))
	if err != nil {
		return nil, err
	}
	accs := newAccumulators(len(s.xs), len(s.figs))
	for i, c := range cells {
		v, res := s.variants[c.vi], results[i]
		o.Progress("%s x=%g %s rep=%d stretch=%.2f", s.group, s.xs[c.xi], cmp.Or(v.name, string(res.Config.Protocol)), c.rep, res.Stretch)
		s.add(accs[c.xi], v.name, res)
	}
	return s.tables(s.xs, accs), nil
}

// runGrowth runs one growing session per (variant, repetition) and no x
// sweep: point i of every figure is the session's i-th measurement, taken
// after its i-th join batch.
func (s *spec) runGrowth(o Options) ([]*Table, error) {
	cells, results, err := s.sessions(o, 1)
	if err != nil {
		return nil, err
	}
	cfg := s.base(o)
	xs := make([]float64, cfg.Nodes/cfg.BatchSize)
	for i := range xs {
		xs[i] = float64(i+1) * cfg.IntervalS
	}
	accs := newAccumulators(len(xs), len(s.figs))
	for i, c := range cells {
		v, res := s.variants[c.vi], results[i]
		o.Progress("%s %s rep=%d final loss=%.3f", s.group, v.name, c.rep, res.Loss)
		for si, smp := range res.Samples[:min(len(res.Samples), len(xs))] {
			s.add(accs[si], v.name, &sim.Result{Stress: smp.Tree.Stress, Stretch: smp.Tree.Stretch, Loss: smp.Loss, Overhead: smp.Overhead})
		}
	}
	return s.tables(xs, accs), nil
}

// cell is one session of a spec: x index, variant index, repetition.
type cell struct{ xi, vi, rep int }

// sessions runs the cells of nx x values in order — x, then variant, then
// repetition — concurrently on up to o.Jobs workers, and returns them with
// their results in that order. Each cell derives all of its randomness
// from its own repSeed, and lab.Configure and sim.Run build a private
// underlay, event queue and RNG per call, so whatever the caller folds
// serially in cell order (tables, Progress lines) is byte-identical at
// any worker count.
func (s *spec) sessions(o Options, nx int) ([]cell, []*sim.Result, error) {
	var cells []cell
	for xi := 0; xi < nx; xi++ {
		for vi := range s.variants {
			for rep := 0; rep < o.Reps; rep++ {
				cells = append(cells, cell{xi, vi, rep})
			}
		}
	}
	results, err := parallel.Map(len(cells), o.Jobs, func(i int) (*sim.Result, error) {
		c := cells[i]
		cfg := s.base(o)
		if s.at != nil {
			s.at(&cfg, s.xs[c.xi])
		}
		if set := s.variants[c.vi].set; set != nil {
			set(&cfg)
		}
		cfg.Seed = o.repSeed(s.cell(c.xi, c.vi), c.rep)
		cfg, _, err := lab.Configure(cfg)
		if err != nil {
			return nil, err
		}
		return sim.Run(cfg)
	})
	return cells, results, err
}

func newAccumulators(points, figs int) [][]*stats.Accumulator {
	accs := make([][]*stats.Accumulator, points)
	for i := range accs {
		accs[i] = make([]*stats.Accumulator, figs)
		for j := range accs[i] {
			accs[i][j] = stats.NewAccumulator()
		}
	}
	return accs
}

// add records one session's values on every figure at one point.
func (s *spec) add(accs []*stats.Accumulator, variant string, res *sim.Result) {
	for fi, f := range s.figs {
		if f.y != nil {
			accs[fi].Add(variant, f.y(res))
		}
		for _, c := range f.cols {
			accs[fi].Add(c.name, c.of(res))
		}
	}
}

// tables summarizes the accumulated points into the spec's figures.
func (s *spec) tables(xs []float64, accs [][]*stats.Accumulator) []*Table {
	tables := make([]*Table, len(s.figs))
	for fi, f := range s.figs {
		t := &Table{ID: f.id, Title: f.title, XLabel: s.xlabel}
		if f.y != nil {
			for _, v := range s.variants {
				t.Columns = append(t.Columns, v.name)
			}
		}
		for _, c := range f.cols {
			t.Columns = append(t.Columns, c.name)
		}
		for xi, x := range xs {
			p := Point{X: x, Series: map[string]stats.Summary{}}
			acc := accs[xi][fi]
			for _, name := range acc.Names() {
				p.Series[name] = acc.Summary(name)
			}
			t.Points = append(t.Points, p)
		}
		tables[fi] = t
	}
	return tables
}
