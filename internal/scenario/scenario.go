// Package scenario pre-generates the join/leave script a session executes,
// the way the paper's PlanetLab main controller replays a scenario file:
// "a line in scenario file mainly has action type, node information and
// time for action". Generating the whole script up front (from a seed)
// keeps every repetition reproducible and lets the same scenario drive
// different protocols for a fair comparison.
package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

	"vdm/internal/rng"
)

// Event is one scripted action: slot joins or leaves at time T.
// Slot 0 is reserved for the source and never appears in events.
type Event struct {
	T    float64
	Join bool
	Slot int
}

// Scenario is a full session script: the pool of host slots, the ordered
// events, and the instants the session should measure at.
type Scenario struct {
	PoolSize     int // host slots including the source at slot 0
	Events       []Event
	MeasureTimes []float64
	DurationS    float64
}

// ChurnConfig parameterizes the paper's interval churn model: an initial
// population joins during the join phase; afterwards, every interval,
// ChurnPct percent of the population leaves and as many fresh (or
// returning) nodes join, keeping the population constant.
type ChurnConfig struct {
	Nodes      int     // steady-state population (excluding source)
	ChurnPct   float64 // percent of Nodes churned per interval
	JoinPhaseS float64 // initial join window (2000 s in the paper)
	IntervalS  float64 // churn interval (400 s)
	SpreadS    float64 // window the interval's churn events spread over
	SettleS    float64 // settle time before each measurement (100 s)
	DurationS  float64 // total session length (10000 s)
}

// Churn generates an interval-churn scenario.
func Churn(cfg ChurnConfig, rnd *rng.Stream) *Scenario {
	if cfg.SpreadS <= 0 {
		cfg.SpreadS = cfg.SettleS / 2
	}
	churnCount := int(math.Round(float64(cfg.Nodes) * cfg.ChurnPct / 100))
	intervals := 0
	for t := cfg.JoinPhaseS; t+cfg.IntervalS <= cfg.DurationS+1e-9; t += cfg.IntervalS {
		intervals++
	}
	// Pool sizing: enough spare slots that leavers can be replaced by
	// fresh nodes, with headroom for slot reuse.
	pool := cfg.Nodes + churnCount*2 + 4

	s := &Scenario{PoolSize: pool + 1, DurationS: cfg.DurationS}
	alive := make(map[int]bool)
	var dead []int
	for slot := 1; slot <= pool; slot++ {
		dead = append(dead, slot)
	}
	takeDead := func() int {
		i := rnd.Intn(len(dead))
		slot := dead[i]
		dead[i] = dead[len(dead)-1]
		dead = dead[:len(dead)-1]
		alive[slot] = true
		return slot
	}
	aliveList := func() []int {
		out := make([]int, 0, len(alive))
		for s := range alive {
			out = append(out, s)
		}
		sort.Ints(out)
		return out
	}

	// Initial joins spread over the first 80% of the join phase.
	for i := 0; i < cfg.Nodes && len(dead) > 0; i++ {
		s.Events = append(s.Events, Event{
			T:    rnd.Uniform(0, cfg.JoinPhaseS*0.8),
			Join: true,
			Slot: takeDead(),
		})
	}
	// A session that ends inside its join phase is never measured at
	// its end, and Check refuses a measure past the duration.
	if cfg.JoinPhaseS <= cfg.DurationS {
		s.MeasureTimes = append(s.MeasureTimes, cfg.JoinPhaseS)
	}

	for k := 0; k < intervals; k++ {
		t0 := cfg.JoinPhaseS + float64(k)*cfg.IntervalS
		// Leaves land in the first part of the spread window and joins
		// in the second, so a slot that leaves this interval can rejoin
		// in the same interval without its join preceding its leave.
		cur := aliveList()
		nLeave := churnCount
		if nLeave > len(cur) {
			nLeave = len(cur)
		}
		for _, idx := range rnd.PickN(nLeave, len(cur)) {
			slot := cur[idx]
			delete(alive, slot)
			dead = append(dead, slot)
			s.Events = append(s.Events, Event{T: t0 + rnd.Uniform(0, cfg.SpreadS*0.45), Slot: slot})
		}
		// Joins: the same number of fresh or returning nodes.
		for i := 0; i < churnCount && len(dead) > 0; i++ {
			s.Events = append(s.Events, Event{
				T:    t0 + rnd.Uniform(cfg.SpreadS*0.55, cfg.SpreadS),
				Join: true,
				Slot: takeDead(),
			})
		}
		s.MeasureTimes = append(s.MeasureTimes, t0+cfg.SpreadS+cfg.SettleS)
	}
	s.sort()
	return s
}

// LifetimeConfig parameterizes the exponential-lifetime churn model — the
// continuous alternative to the paper's interval model: peers arrive as a
// Poisson process and stay for exponentially distributed lifetimes, so
// departures are not synchronized into bursts. With arrival rate
// Nodes/MeanLifetimeS the steady-state population is Nodes.
type LifetimeConfig struct {
	Nodes         int     // steady-state population target
	MeanLifetimeS float64 // mean membership duration
	JoinPhaseS    float64 // initial population ramp-in window
	IntervalS     float64 // measurement cadence after the join phase
	SettleS       float64 // offset of each measurement inside its interval
	DurationS     float64
}

// Lifetime generates an exponential-lifetime churn scenario.
func Lifetime(cfg LifetimeConfig, rnd *rng.Stream) *Scenario {
	if cfg.MeanLifetimeS <= 0 {
		cfg.MeanLifetimeS = cfg.DurationS // effectively no churn
	}
	arrivalRate := float64(cfg.Nodes) / cfg.MeanLifetimeS
	// Slots are not reused in this model (each membership gets a fresh
	// slot), so the pool must cover the initial population plus every
	// later arrival, with headroom for the Poisson tail.
	expected := int(arrivalRate * (cfg.DurationS - cfg.JoinPhaseS))
	pool := cfg.Nodes + expected + expected/2 + 32

	s := &Scenario{PoolSize: pool + 1, DurationS: cfg.DurationS}
	type departure struct {
		t    float64
		slot int
	}
	var pending []departure
	var dead []int
	for slot := 1; slot <= pool; slot++ {
		dead = append(dead, slot)
	}
	takeDead := func() int {
		i := rnd.Intn(len(dead))
		slot := dead[i]
		dead[i] = dead[len(dead)-1]
		dead = dead[:len(dead)-1]
		return slot
	}
	admit := func(at float64) {
		if len(dead) == 0 {
			return
		}
		slot := takeDead()
		s.Events = append(s.Events, Event{T: at, Join: true, Slot: slot})
		leaveAt := at + rnd.Exp(cfg.MeanLifetimeS)
		if leaveAt < cfg.DurationS {
			pending = append(pending, departure{t: leaveAt, slot: slot})
		}
	}

	// Initial population ramps in over the join phase.
	for i := 0; i < cfg.Nodes; i++ {
		admit(rnd.Uniform(0, cfg.JoinPhaseS*0.8))
	}
	// Poisson arrivals afterwards.
	for t := cfg.JoinPhaseS + rnd.Exp(1/arrivalRate); t < cfg.DurationS; t += rnd.Exp(1 / arrivalRate) {
		admit(t)
	}
	// Departures: flush them into the event list in time order.
	sort.Slice(pending, func(i, j int) bool { return pending[i].t < pending[j].t })
	for _, d := range pending {
		s.Events = append(s.Events, Event{T: d.t, Slot: d.slot})
	}
	s.sort()

	for t := cfg.JoinPhaseS; t+cfg.IntervalS <= cfg.DurationS+1e-9; t += cfg.IntervalS {
		s.MeasureTimes = append(s.MeasureTimes, t+cfg.SettleS)
	}
	return s
}

// BatchConfig parameterizes the chapter-4 growth workload: BatchSize nodes
// join at the start of every interval and the tree is measured before the
// next batch, with no churn.
type BatchConfig struct {
	Batches   int
	BatchSize int
	IntervalS float64 // 500 s in the paper
	SpreadS   float64 // join spread inside an interval
	SettleS   float64 // measurement this long before the next interval
}

// Batch generates a chapter-4 growth scenario.
func Batch(cfg BatchConfig, rnd *rng.Stream) *Scenario {
	if cfg.SpreadS <= 0 {
		cfg.SpreadS = cfg.IntervalS / 5
	}
	if cfg.SettleS <= 0 {
		cfg.SettleS = cfg.IntervalS / 10
	}
	total := cfg.Batches * cfg.BatchSize
	s := &Scenario{
		PoolSize:  total + 1,
		DurationS: float64(cfg.Batches) * cfg.IntervalS,
	}
	slot := 1
	for k := 0; k < cfg.Batches; k++ {
		t0 := float64(k) * cfg.IntervalS
		for i := 0; i < cfg.BatchSize; i++ {
			s.Events = append(s.Events, Event{T: t0 + rnd.Uniform(0, cfg.SpreadS), Join: true, Slot: slot})
			slot++
		}
		s.MeasureTimes = append(s.MeasureTimes, t0+cfg.IntervalS-cfg.SettleS)
	}
	s.sort()
	return s
}

func (s *Scenario) sort() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].T < s.Events[j].T })
}

// Write encodes the scenario in the line format of the PlanetLab
// implementation: "<time> join|leave <slot>" plus header lines.
func (s *Scenario) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "pool %d\nduration %g\n", s.PoolSize, s.DurationS); err != nil {
		return err
	}
	for _, t := range s.MeasureTimes {
		if _, err := fmt.Fprintf(w, "measure %g\n", t); err != nil {
			return err
		}
	}
	for _, e := range s.Events {
		if _, err := fmt.Fprintf(w, "%g %s %d\n", e.T, action(e), e.Slot); err != nil {
			return err
		}
	}
	return nil
}

// Read parses the format produced by Write and rejects, naming its line,
// a script with a malformed line, an event or measure time that is not
// finite and ≥ 0, a duration that is not finite and > 0, or one that
// fails Check. A hand-written file need not list its events in time
// order: Read sorts them (stably, so events at one instant keep their
// file order) before it checks them.
func Read(r io.Reader) (*Scenario, error) {
	s := &Scenario{}
	var where scriptLines // for the checks that need the whole script
	sc := bufio.NewScanner(r)
	line := 0
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario line %d: "+format, append([]any{line}, args...)...)
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		var (
			t      float64
			action string
			slot   int
		)
		switch {
		case len(text) > 5 && text[:5] == "pool ":
			if _, err := fmt.Sscanf(text, "pool %d", &s.PoolSize); err != nil {
				return nil, bad("%w", err)
			}
			where.pool = line
		case len(text) > 9 && text[:9] == "duration ":
			if _, err := fmt.Sscanf(text, "duration %g", &s.DurationS); err != nil {
				return nil, bad("%w", err)
			}
			if !(s.DurationS > 0) || math.IsInf(s.DurationS, 1) {
				return nil, bad("duration %g is not a finite time > 0", s.DurationS)
			}
		case len(text) > 8 && text[:8] == "measure ":
			if _, err := fmt.Sscanf(text, "measure %g", &t); err != nil {
				return nil, bad("%w", err)
			}
			if !validTime(t) {
				return nil, bad("measure time %g is not a finite time ≥ 0", t)
			}
			s.MeasureTimes = append(s.MeasureTimes, t)
			where.measures = append(where.measures, line)
		default:
			if _, err := fmt.Sscanf(text, "%g %s %d", &t, &action, &slot); err != nil {
				return nil, bad("%w", err)
			}
			if action != "join" && action != "leave" {
				return nil, bad("unknown action %q", action)
			}
			if !validTime(t) {
				return nil, bad("event time %g is not a finite time ≥ 0", t)
			}
			s.Events = append(s.Events, Event{T: t, Join: action == "join", Slot: slot})
			where.events = append(where.events, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if where.pool == 0 {
		return nil, fmt.Errorf("scenario: no pool line")
	}
	if s.DurationS == 0 {
		return nil, fmt.Errorf("scenario: no duration line")
	}
	order := make([]int, len(s.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.Events[order[a]].T < s.Events[order[b]].T })
	events, lines := make([]Event, len(order)), make([]int, len(order))
	for k, i := range order {
		events[k], lines[k] = s.Events[i], where.events[i]
	}
	s.Events, where.events = events, lines
	if err := s.check(where); err != nil {
		return nil, err
	}
	return s, nil
}

// Check reports whether a session can replay the script: the pool holds
// at least slot 0, the source's; every event's slot lies in [1, pool); no
// measure time is past the duration; the events are listed in time
// order, and taken in that order a slot joins only while dead and leaves
// only while alive. Read checks every script it returns, and sim.Run
// every script a caller hands it.
func (s *Scenario) Check() error { return s.check(scriptLines{}) }

// scriptLines holds the file lines Read parsed a script's pool, events
// and measure times from, so a fault names its line; for a script built
// in memory it is empty and a fault names the element's index.
type scriptLines struct {
	pool             int
	events, measures []int
}

// at names element i of a script part ("event", "measure") in an error.
func (l scriptLines) at(lines []int, part string, i int) string {
	if lines == nil {
		return fmt.Sprintf("scenario %s %d", part, i)
	}
	return fmt.Sprintf("scenario line %d", lines[i])
}

func (s *Scenario) check(l scriptLines) error {
	if s.PoolSize < 1 {
		where := "scenario"
		if l.pool > 0 {
			where = fmt.Sprintf("scenario line %d", l.pool)
		}
		return fmt.Errorf("%s: pool %d has no slot for the source", where, s.PoolSize)
	}
	for i, t := range s.MeasureTimes {
		if t > s.DurationS {
			return fmt.Errorf("%s: measure time %g is past the duration %g",
				l.at(l.measures, "measure", i), t, s.DurationS)
		}
	}
	alive := make(map[int]bool)
	for i, e := range s.Events {
		var fault string
		switch {
		case e.Slot < 1 || e.Slot >= s.PoolSize:
			fault = fmt.Sprintf("slot %d is outside the pool's peer slots [1, %d)", e.Slot, s.PoolSize)
		case i > 0 && e.T < s.Events[i-1].T:
			fault = fmt.Sprintf("event at %g is listed after one at %g", e.T, s.Events[i-1].T)
		case e.Join == alive[e.Slot]:
			fault = fmt.Sprintf("slot %d %ss at %g while %s", e.Slot, action(e), e.T,
				map[bool]string{false: "not alive", true: "alive"}[e.Join])
		}
		if fault != "" {
			return fmt.Errorf("%s: %s", l.at(l.events, "event", i), fault)
		}
		alive[e.Slot] = e.Join
	}
	return nil
}

// action names an event's action as the script spells it.
func action(e Event) string {
	if e.Join {
		return "join"
	}
	return "leave"
}

// validTime reports whether t is a finite time ≥ 0.
func validTime(t float64) bool { return t >= 0 && !math.IsInf(t, 1) }
