package scenario

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"vdm/internal/rng"
)

func churnFixture(seed int64, nodes int, churn float64) *Scenario {
	return Churn(ChurnConfig{
		Nodes:      nodes,
		ChurnPct:   churn,
		JoinPhaseS: 2000,
		IntervalS:  400,
		SettleS:    100,
		DurationS:  10000,
	}, rng.New(seed))
}

// replay walks the events and checks membership consistency: no slot joins
// while alive, no slot leaves while dead, slot 0 never appears.
func replay(t *testing.T, s *Scenario) map[int]bool {
	t.Helper()
	alive := map[int]bool{}
	last := math.Inf(-1)
	for _, e := range s.Events {
		if e.T < last {
			t.Fatalf("events out of order: %v after %v", e.T, last)
		}
		last = e.T
		if e.Slot == 0 {
			t.Fatal("slot 0 (source) appears in events")
		}
		if e.Slot < 0 || e.Slot >= s.PoolSize {
			t.Fatalf("slot %d outside pool %d", e.Slot, s.PoolSize)
		}
		if e.Join {
			if alive[e.Slot] {
				t.Fatalf("slot %d joins while alive at t=%v", e.Slot, e.T)
			}
			alive[e.Slot] = true
		} else {
			if !alive[e.Slot] {
				t.Fatalf("slot %d leaves while dead at t=%v", e.Slot, e.T)
			}
			delete(alive, e.Slot)
		}
	}
	return alive
}

func TestChurnMembershipConsistent(t *testing.T) {
	s := churnFixture(1, 200, 10)
	alive := replay(t, s)
	// Population is restored each interval: final alive ≈ Nodes.
	if len(alive) != 200 {
		t.Fatalf("final population %d, want 200", len(alive))
	}
}

func TestChurnEventCounts(t *testing.T) {
	s := churnFixture(2, 100, 10)
	intervals := 0
	for ts := 2000.0; ts+400 <= 10000+1e-9; ts += 400 {
		intervals++
	}
	joins, leaves := 0, 0
	for _, e := range s.Events {
		if e.Join {
			joins++
		} else {
			leaves++
		}
	}
	wantChurn := 10 * intervals // 10% of 100 per interval
	if leaves != wantChurn {
		t.Fatalf("leaves = %d, want %d", leaves, wantChurn)
	}
	if joins != 100+wantChurn {
		t.Fatalf("joins = %d, want %d", joins, 100+wantChurn)
	}
}

func TestChurnZeroRate(t *testing.T) {
	s := churnFixture(3, 50, 0)
	for _, e := range s.Events {
		if !e.Join {
			t.Fatal("leave event with zero churn")
		}
	}
	if len(s.Events) != 50 {
		t.Fatalf("events = %d", len(s.Events))
	}
	// Measurements still scheduled each interval.
	if len(s.MeasureTimes) < 2 {
		t.Fatalf("measure times = %d", len(s.MeasureTimes))
	}
}

func TestChurnMeasureTimesOrdered(t *testing.T) {
	s := churnFixture(4, 100, 5)
	if !sort.Float64sAreSorted(s.MeasureTimes) {
		t.Fatal("measurement times unsorted")
	}
	if s.MeasureTimes[0] != 2000 {
		t.Fatalf("first measurement at %v, want end of join phase", s.MeasureTimes[0])
	}
	for _, mt := range s.MeasureTimes {
		if mt > s.DurationS {
			t.Fatalf("measurement %v after session end", mt)
		}
	}
}

// TestChurnShorterThanJoinPhasePassesCheck: a session that ends inside its
// join phase gets no measure at the join phase's end, so its script passes
// Check like every other generated script.
func TestChurnShorterThanJoinPhasePassesCheck(t *testing.T) {
	s := Churn(ChurnConfig{Nodes: 50, ChurnPct: 5, JoinPhaseS: 200, IntervalS: 60,
		SettleS: 20, DurationS: 120}, rng.New(7))
	if len(s.MeasureTimes) != 0 {
		t.Fatalf("measure times %v in a session of %g s", s.MeasureTimes, s.DurationS)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnInitialJoinsInsideJoinPhase(t *testing.T) {
	s := churnFixture(5, 150, 5)
	count := 0
	for _, e := range s.Events {
		if e.T < 2000 {
			if !e.Join {
				t.Fatal("leave during join phase")
			}
			count++
		}
	}
	if count != 150 {
		t.Fatalf("initial joins = %d", count)
	}
}

func TestMaxAliveWithinPool(t *testing.T) {
	s := churnFixture(6, 120, 20)
	if peak := maxAlive(s); peak >= s.PoolSize {
		t.Fatalf("peak %d exceeds pool %d", peak, s.PoolSize)
	}
}

func TestLifetimeScenarioConsistentAndSteady(t *testing.T) {
	s := Lifetime(LifetimeConfig{
		Nodes:         80,
		MeanLifetimeS: 1500,
		JoinPhaseS:    1000,
		IntervalS:     400,
		SettleS:       100,
		DurationS:     8000,
	}, rng.New(12))
	replay(t, s) // membership consistency (join/leave alternation)

	// Steady-state population stays within a band around the target.
	alive := 0
	idx := 0
	for _, mt := range s.MeasureTimes {
		for idx < len(s.Events) && s.Events[idx].T <= mt {
			if s.Events[idx].Join {
				alive++
			} else {
				alive--
			}
			idx++
		}
		if mt < 1500 {
			continue // still ramping
		}
		if alive < 40 || alive > 140 {
			t.Fatalf("population %d at t=%v far from target 80", alive, mt)
		}
	}
	if maxAlive(s) >= s.PoolSize {
		t.Fatalf("pool %d overflowed (peak %d)", s.PoolSize, maxAlive(s))
	}
}

func TestLifetimeScenarioDeparturesUnsynchronized(t *testing.T) {
	s := Lifetime(LifetimeConfig{
		Nodes:         100,
		MeanLifetimeS: 1000,
		JoinPhaseS:    500,
		IntervalS:     400,
		SettleS:       100,
		DurationS:     6000,
	}, rng.New(13))
	// Interval churn packs all leaves into the first half of the spread
	// window; exponential lifetimes must not cluster: no 10-second
	// window after the join phase should hold more than a small
	// fraction of all departures.
	leaves := 0
	bucket := map[int]int{}
	for _, e := range s.Events {
		if !e.Join && e.T > 500 {
			leaves++
			bucket[int(e.T/10)]++
		}
	}
	if leaves < 100 {
		t.Fatalf("only %d departures generated", leaves)
	}
	for w, c := range bucket {
		if c > leaves/10 {
			t.Fatalf("departure burst: %d of %d in window %d", c, leaves, w)
		}
	}
}

func TestLifetimeScenarioCodecRoundTrip(t *testing.T) {
	s := Lifetime(LifetimeConfig{
		Nodes: 30, MeanLifetimeS: 800, JoinPhaseS: 300,
		IntervalS: 200, SettleS: 50, DurationS: 2000,
	}, rng.New(14))
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(s.Events) {
		t.Fatal("events lost in round trip")
	}
}

func TestBatchScenario(t *testing.T) {
	s := Batch(BatchConfig{Batches: 10, BatchSize: 50, IntervalS: 500}, rng.New(7))
	alive := replay(t, s)
	if len(alive) != 500 {
		t.Fatalf("final population %d, want 500", len(alive))
	}
	if len(s.MeasureTimes) != 10 {
		t.Fatalf("measurements = %d, want 10", len(s.MeasureTimes))
	}
	if s.DurationS != 5000 {
		t.Fatalf("duration %v", s.DurationS)
	}
	// Batch k's joins land inside interval k.
	for _, e := range s.Events {
		if !e.Join {
			t.Fatal("leave in batch scenario")
		}
	}
	// Each measurement precedes the next batch boundary.
	for k, mt := range s.MeasureTimes {
		lo, hi := float64(k)*500, float64(k+1)*500
		if mt <= lo || mt > hi {
			t.Fatalf("measurement %d at %v outside (%v, %v]", k, mt, lo, hi)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := churnFixture(8, 60, 10)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PoolSize != s.PoolSize || got.DurationS != s.DurationS {
		t.Fatalf("header mismatch: %d/%v vs %d/%v", got.PoolSize, got.DurationS, s.PoolSize, s.DurationS)
	}
	if len(got.Events) != len(s.Events) || len(got.MeasureTimes) != len(s.MeasureTimes) {
		t.Fatal("event/measure counts differ after round trip")
	}
	for i, e := range s.Events {
		if got.Events[i] != e {
			t.Fatalf("event %d: %+v vs %+v", i, got.Events[i], e)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("12 explode 4\n")); err == nil {
		t.Fatal("unknown action accepted")
	}
	if _, err := Read(bytes.NewBufferString("pool x\n")); err == nil {
		t.Fatal("bad pool line accepted")
	}
}

// TestReadRejectsUnreplayableScripts pins the checks Read makes before a
// session replays a script. The first three once reached the simulator
// through vdmsim -scenario and panicked there: a slot beyond the pool (an
// index out of range), an event before time 0 (scheduled in the event
// queue's past) and a negative pool (a negative slice size). The last
// four ran to a normal summary: a leave of a slot that is not alive
// (also when its join sorts after it), a second join of a live slot, and
// a measure past the end of the session.
func TestReadRejectsUnreplayableScripts(t *testing.T) {
	for _, tc := range []struct{ script, want string }{
		{"pool 5\nduration 100\n10 join 99\n", "line 3: slot 99"},
		{"pool 5\nduration 100\n-3 join 1\n", "line 3: event time -3"},
		{"pool -2\nduration 100\n", "line 1: pool -2"},
		{"pool 5\nduration 100\n10 join 0\n", "line 3: slot 0"},
		{"10 join 4\n\npool 4\nduration 100\n", "line 1: slot 4"},
		{"pool 5\nduration 100\nNaN join 1\n", "line 3: event time NaN"},
		{"pool 5\nduration 100\nmeasure -1\n", "line 3: measure time -1"},
		{"pool 5\nduration 100\nmeasure +Inf\n", "line 3: measure time +Inf"},
		{"pool 5\nduration 0\n", "line 2: duration 0"},
		{"pool 5\nduration Inf\n", "line 2: duration +Inf"},
		{"duration 100\n", "no pool line"},
		{"pool 5\n", "no duration line"},
		{"pool 5\nduration 100\n10 leave 1\n", "line 3: slot 1 leaves at 10 while not alive"},
		{"pool 5\nduration 100\n30 join 1\n20 leave 1\n", "line 4: slot 1 leaves at 20 while not alive"},
		{"pool 5\nduration 100\n10 join 1\n20 join 2\n20 join 1\n", "line 5: slot 1 joins at 20 while alive"},
		{"measure 500\npool 5\nduration 100\n", "line 1: measure time 500 is past the duration 100"},
	} {
		_, err := Read(bytes.NewBufferString(tc.script))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Read(%q) = %v, want an error with %q", tc.script, err, tc.want)
		}
	}
}

// FuzzScenarioRead feeds Read arbitrary text: it must either fail, or
// return a script that passes Read's checks (tested here independently)
// and that re-encodes to the same bytes after a Write/Read round trip.
func FuzzScenarioRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Batch(BatchConfig{Batches: 2, BatchSize: 3, IntervalS: 100}, rng.New(1)).Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("pool 5\nduration 100\n10 join 99\n"))
	f.Add([]byte("pool 5\nduration 100\n-3 join 1\n"))
	f.Add([]byte("pool -2\nduration 100\n"))
	f.Add([]byte("20 leave 1\nmeasure 1e3\n\npool 3\nduration 2.5e3\n10 join 1\n"))
	f.Add([]byte("pool 5\nduration 100\n10 join 1\n10 leave 1\n10 join 1\nmeasure 100\n"))
	f.Add([]byte("pool 5\nduration 100\n10 join 1\n20 join 1\nmeasure 500\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		finite := func(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }
		if s.PoolSize < 1 || !finite(s.DurationS) || s.DurationS == 0 {
			t.Fatalf("accepted pool %d, duration %g", s.PoolSize, s.DurationS)
		}
		for _, m := range s.MeasureTimes {
			if !finite(m) {
				t.Fatalf("accepted measure time %g", m)
			}
		}
		for _, m := range s.MeasureTimes {
			if m > s.DurationS {
				t.Fatalf("accepted measure time %g past duration %g", m, s.DurationS)
			}
		}
		alive := map[int]bool{}
		for i, e := range s.Events {
			if !finite(e.T) || e.Slot < 1 || e.Slot >= s.PoolSize {
				t.Fatalf("accepted event %+v in pool %d", e, s.PoolSize)
			}
			if i > 0 && e.T < s.Events[i-1].T {
				t.Fatalf("accepted events out of time order: %+v after %+v", e, s.Events[i-1])
			}
			if e.Join == alive[e.Slot] {
				t.Fatalf("accepted event %+v with the slot alive=%v", e, alive[e.Slot])
			}
			alive[e.Slot] = e.Join
		}
		var first, second bytes.Buffer
		if err := s.Write(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read rejects Write's output: %v\n%s", err, first.Bytes())
		}
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the script:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestGeneratedScriptsSurviveCodec writes the scripts of the paper's
// configurations at seeds 1–20 and reads them back: Read accepts every
// one and returns it unchanged. Churn runs chapter 3's churn rates and
// chapter 5's PlanetLab session, Lifetime the churn-model ablation and
// Batch chapter 4's growth workload.
func TestGeneratedScriptsSurviveCodec(t *testing.T) {
	type gen struct {
		name string
		make func(*rng.Stream) *Scenario
	}
	var gens []gen
	for _, pct := range []float64{1, 3, 5, 7, 10} {
		gens = append(gens, gen{fmt.Sprintf("chapter-3 churn %g%%", pct), func(r *rng.Stream) *Scenario {
			return Churn(ChurnConfig{Nodes: 200, ChurnPct: pct, JoinPhaseS: 2000, IntervalS: 400,
				SpreadS: 50, SettleS: 100, DurationS: 10000}, r)
		}})
	}
	gens = append(gens,
		gen{"chapter-5 churn 5%", func(r *rng.Stream) *Scenario {
			return Churn(ChurnConfig{Nodes: 100, ChurnPct: 5, JoinPhaseS: 2000, IntervalS: 400,
				SpreadS: 50, SettleS: 100, DurationS: 5000}, r)
		}},
		gen{"lifetime", func(r *rng.Stream) *Scenario {
			return Lifetime(LifetimeConfig{Nodes: 200, MeanLifetimeS: 4000, JoinPhaseS: 2000,
				IntervalS: 400, SettleS: 100, DurationS: 10000}, r)
		}},
		gen{"batch", func(r *rng.Stream) *Scenario {
			return Batch(BatchConfig{Batches: 10, BatchSize: 50, IntervalS: 500, SpreadS: 100, SettleS: 50}, r)
		}},
	)
	for _, g := range gens {
		for seed := int64(1); seed <= 20; seed++ {
			s := g.make(rng.New(seed))
			var buf bytes.Buffer
			if err := s.Write(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("%s, seed %d: %v", g.name, seed, err)
			}
			if !reflect.DeepEqual(got, s) {
				t.Fatalf("%s, seed %d: the script changed in the round trip", g.name, seed)
			}
		}
	}
}

func TestChurnDeterministic(t *testing.T) {
	a := churnFixture(9, 80, 10)
	b := churnFixture(9, 80, 10)
	if len(a.Events) != len(b.Events) {
		t.Fatal("event counts differ for same seed")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// Property: membership consistency holds for arbitrary parameters, and
// the round-trip through the text codec is lossless.
func TestPropertyChurnConsistentAndCodecLossless(t *testing.T) {
	f := func(seed int64, n, c uint8) bool {
		nodes := int(n%100) + 2
		churn := float64(c % 25)
		s := Churn(ChurnConfig{
			Nodes:      nodes,
			ChurnPct:   churn,
			JoinPhaseS: 500,
			IntervalS:  200,
			SettleS:    50,
			DurationS:  2100,
		}, rng.New(seed))
		alive := map[int]bool{}
		for _, e := range s.Events {
			if e.Slot <= 0 || e.Slot >= s.PoolSize {
				return false
			}
			if e.Join {
				if alive[e.Slot] {
					return false
				}
				alive[e.Slot] = true
			} else {
				if !alive[e.Slot] {
					return false
				}
				delete(alive, e.Slot)
			}
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got.Events) != len(s.Events) {
			return false
		}
		for i := range s.Events {
			if got.Events[i] != s.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// maxAlive returns the peak number of simultaneously alive slots s's
// script produces.
func maxAlive(s *Scenario) int {
	alive, peak := 0, 0
	for _, e := range s.Events {
		if e.Join {
			alive++
			if alive > peak {
				peak = alive
			}
		} else {
			alive--
		}
	}
	return peak
}
