package rng

import (
	"testing"
	"testing/quick"
)

func TestSameSeedSameStream(t *testing.T) {
	a, b := New(17), New(17)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(17, "churn")
	b := Derive(17, "churn")
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("derived stream not reproducible")
		}
	}
}

func TestDeriveNamesIndependent(t *testing.T) {
	a := Derive(17, "churn")
	b := Derive(17, "topology")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws between differently named streams", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v", v)
		}
	}
}

func TestIntBetweenInclusive(t *testing.T) {
	s := New(1)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntBetween(2, 5)
		if v < 2 || v > 5 {
			t.Fatalf("IntBetween(2,5) = %d", v)
		}
		seen[v] = true
	}
	for v := 2; v <= 5; v++ {
		if !seen[v] {
			t.Fatalf("IntBetween never produced %d", v)
		}
	}
}

func TestIntBetweenSwappedBounds(t *testing.T) {
	s := New(1)
	if v := s.IntBetween(5, 2); v < 2 || v > 5 {
		t.Fatalf("IntBetween(5,2) = %d", v)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1.01) {
			t.Fatal("Bool(>1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(1)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) frequency %.3f", frac)
	}
}

func TestPickNDistinct(t *testing.T) {
	s := New(1)
	got := s.PickN(10, 20)
	if len(got) != 10 {
		t.Fatalf("PickN returned %d values", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 20 {
			t.Fatalf("PickN value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("PickN duplicate %d", v)
		}
		seen[v] = true
	}
}

func TestPickNPanicsWhenTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).PickN(5, 3)
}

func TestNormalMoments(t *testing.T) {
	s := New(1)
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("Normal mean %.3f", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("Normal variance %.3f", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

// Property: PickN always returns n distinct in-range indices.
func TestPropertyPickN(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		total := int(a%50) + 1
		n := int(b) % (total + 1)
		got := New(seed).PickN(n, total)
		if len(got) != n {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= total || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
