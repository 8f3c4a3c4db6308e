package rng

import (
	"math"
	"math/bits"
	"testing"
)

// TestBoundedMatchesUint64n pins Bounded's stream identity with Uint64n:
// twin generators, one sampling through Bounded.Next and one through
// Uint64n, agree on every value and on the generator state after every
// draw. The bounds cover the zero bound (no draw), powers of two, small
// odd and even degrees, and bounds near 2⁶³ and 2⁶⁴ where Lemire's
// rejection loop runs: at 2⁶³+1 about half the draws are rejected, which
// graph degrees never reach.
func TestBoundedMatchesUint64n(t *testing.T) {
	bounds := []uint64{0, 1, 2, 3, 6, 8, 47, 1023, 1<<32 + 1, 1<<63 + 1, math.MaxUint64}
	const draws = 2000
	for _, n := range bounds {
		a, b := New(n^0x5EED), New(n^0x5EED)
		s := NewBounded(n)
		if s.N() != n {
			t.Fatalf("NewBounded(%d).N() = %d", n, s.N())
		}
		rejections := 0
		for i := 0; i < draws; i++ {
			if n != 0 && n&(n-1) != 0 {
				if _, lo := bits.Mul64(a.Clone().Uint64(), n); lo < -n%n {
					rejections++
				}
			}
			got, want := s.Next(a), b.Uint64n(n)
			if got != want {
				t.Fatalf("bound %d draw %d: Next = %d, Uint64n = %d", n, i, got, want)
			}
			if a.State() != b.State() {
				t.Fatalf("bound %d draw %d: generator states diverged", n, i)
			}
		}
		if n == 1<<63+1 && rejections < draws/4 {
			t.Fatalf("bound 2^63+1: %d rejections in %d draws, want about half", rejections, draws)
		}
	}
}

// coinProbs are the Coin test probabilities: the smallest positive
// float64, 2⁻⁵³ (threshold 1), dyadic and non-dyadic values, the largest
// float64 below 1, and 100 random values.
func coinProbs() []float64 {
	ps := []float64{5e-324, 1.0 / (1 << 53), 0.1, 0.25, 0.5, 0.9, math.Nextafter(1, 0)}
	r := New(0xC014)
	for len(ps) < 107 {
		if p := r.Float64(); p > 0 {
			ps = append(ps, p)
		}
	}
	return ps
}

// TestCoinMatchesBernoulli: twin generators, one flipping Coin.Hit on
// Uint64 draws and one calling Bernoulli, agree on every flip and on the
// generator state after it.
func TestCoinMatchesBernoulli(t *testing.T) {
	for _, p := range coinProbs() {
		c := NewCoin(p)
		a, b := New(math.Float64bits(p)), New(math.Float64bits(p))
		for i := 0; i < 1000; i++ {
			got, want := c.Hit(a.Uint64()) == 1, b.Bernoulli(p)
			if got != want {
				t.Fatalf("p = %v draw %d: Hit = %v, Bernoulli = %v", p, i, got, want)
			}
			if a.State() != b.State() {
				t.Fatalf("p = %v draw %d: generator states diverged", p, i)
			}
		}
	}
}

// TestCoinBoundary checks Hit at the draws a random flip almost never
// lands on: every top-53-bit value m within 2 of p·2⁵³, under several low
// bits, must fire exactly when Float64 of that draw is below p. An
// off-by-one threshold (a floor for the ceiling, or <= for <) fails here
// and nowhere else, since a random flip meets it with probability 2⁻⁵³.
func TestCoinBoundary(t *testing.T) {
	for _, p := range coinProbs() {
		c := NewCoin(p)
		edge := p * (1 << 53)
		lo := math.Max(math.Floor(edge)-2, 0)
		hi := math.Min(math.Ceil(edge)+2, 1<<53-1)
		for m := uint64(lo); m <= uint64(hi); m++ {
			want := float64(m)*(1.0/(1<<53)) < p
			for _, low := range []uint64{0, 1, 0x7FF} {
				if got := c.Hit(m<<11 | low); (got == 1) != want || got > 1 {
					t.Fatalf("p = %v m = %d low = %#x: Hit = %d, Float64 < p is %v", p, m, low, got, want)
				}
			}
		}
	}
}

// TestNewCoinDomain: NewCoin refuses every p at which Bernoulli draws
// nothing.
func TestNewCoinDomain(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCoin(%v) did not panic", p)
				}
			}()
			NewCoin(p)
		}()
	}
}
