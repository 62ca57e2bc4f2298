package rng

import (
	"math"
	"testing"
)

func TestKeyedDrawsAreDeterministic(t *testing.T) {
	a := KeyedU64(42, 3, 7, 1, 100)
	b := KeyedU64(42, 3, 7, 1, 100)
	if a != b {
		t.Fatal("same tuple, different values")
	}
	for _, other := range []uint64{
		KeyedU64(43, 3, 7, 1, 100), // seed
		KeyedU64(42, 4, 7, 1, 100), // a
		KeyedU64(42, 3, 8, 1, 100), // b
		KeyedU64(42, 7, 3, 1, 100), // edge direction
		KeyedU64(42, 3, 7, 2, 100), // stream
		KeyedU64(42, 3, 7, 1, 101), // draw
	} {
		if other == a {
			t.Fatal("tuple component did not perturb the value")
		}
	}
}

func TestKeyedU01Bounds(t *testing.T) {
	for n := uint64(0); n < 10000; n++ {
		u := KeyedU01(1, 2, 3, 4, n)
		if u < 0 || u >= 1 {
			t.Fatalf("KeyedU01 = %v out of [0,1)", u)
		}
	}
}

func TestKeyedNormalMoments(t *testing.T) {
	const N = 200000
	var sum, sumsq float64
	for n := uint64(0); n < N; n++ {
		z := KeyedNormal(7, 1, 2, 3, n)
		sum += z
		sumsq += z * z
	}
	mean, variance := sum/N, sumsq/N
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("variance %v, want ~1", variance)
	}
}

func TestKeyedLogNormalBounded(t *testing.T) {
	const sigma = 0.1
	lo := math.Exp(-NormalClamp * sigma)
	hi := math.Exp(NormalClamp * sigma)
	for n := uint64(0); n < 100000; n++ {
		v := KeyedLogNormal(9, 5, 6, 1, n, 0, sigma)
		if v < lo || v > hi {
			t.Fatalf("draw %d: %v outside clamp [%v, %v]", n, v, lo, hi)
		}
	}
}

func TestKeyedBoolFrequency(t *testing.T) {
	const N = 100000
	hits := 0
	for n := uint64(0); n < N; n++ {
		if KeyedBool(11, 1, 2, 1, n, 0.3) {
			hits++
		}
	}
	f := float64(hits) / N
	if math.Abs(f-0.3) > 0.01 {
		t.Fatalf("frequency %v, want ~0.3", f)
	}
}

func TestDeriveSeedMatchesDerive(t *testing.T) {
	// Derive(seed, name) must behave as New(DeriveSeed(seed, name)).
	a := Derive(123, "proto").Float64()
	b := New(DeriveSeed(123, "proto")).Float64()
	if a != b {
		t.Fatal("DeriveSeed diverges from Derive")
	}
}
