package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic set is 32/7.
	if got := Variance(xs); !almost(got, 32.0/7) {
		t.Fatalf("Variance = %v", got)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7)) {
		t.Fatalf("StdDev = %v", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("variance of singleton should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty Min/Max should be 0")
	}
}

func TestCI90KnownCase(t *testing.T) {
	// n=5, stddev known: CI = t(4) * s / sqrt(5), t(4)=2.132.
	xs := []float64{10, 12, 14, 16, 18}
	s := StdDev(xs)
	want := 2.132 * s / math.Sqrt(5)
	if got := CI90(xs); !almost(got, want) {
		t.Fatalf("CI90 = %v, want %v", got, want)
	}
	if CI90([]float64{5}) != 0 {
		t.Fatal("CI90 of singleton should be 0")
	}
}

func TestCI90LargeSampleUsesNormal(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 10)
	}
	want := 1.645 * StdDev(xs) / 10
	if got := CI90(xs); !almost(got, want) {
		t.Fatalf("CI90 large sample = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || !almost(s.Mean, 2) || s.Min != 1 || s.Max != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
}

func TestAccumulatorOrderAndValues(t *testing.T) {
	a := NewAccumulator()
	a.Add("b", 1)
	a.Add("a", 2)
	a.Add("b", 3)
	names := a.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("Names = %v", names)
	}
	if s := a.Summary("b"); s.N != 2 || s.Min != 1 || s.Max != 3 || !almost(s.Mean, 2) {
		t.Fatalf("Summary(b) = %+v", s)
	}
}

// Property: mean lies within [Min, Max] and CI90 is non-negative.
func TestPropertyMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6 && CI90(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
