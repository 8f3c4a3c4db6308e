package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Bounded is a precomputed uniform sampler over [0, n) for a bound that is
// fixed across many draws — the shape of neighbour sampling on a regular
// graph, where every vertex shares one degree and the inner loop draws
// millions of indices against it.
//
// Next consumes the underlying generator exactly like Uint64n(n): the same
// number of Uint64 draws in the same order, producing the same values. That
// stream-identity is load-bearing — the native process engines use Bounded
// in their hot loops while the differential test harness replays the same
// seeds through the reference implementations, which call Uint64n. What
// Bounded removes is the per-call work that does not depend on the draw:
// the power-of-two test and the (2^64 - n) mod n rejection threshold, both
// hoisted to construction time.
//
// The zero value is a sampler over the degenerate bound 0 and always
// returns 0 without consuming the generator, matching Uint64n(0).
type Bounded struct {
	n      uint64
	mask   uint64 // n-1 when n is a power of two
	thresh uint64 // Lemire rejection threshold otherwise
	pow2   bool
}

// NewBounded returns a sampler over [0, n).
func NewBounded(n uint64) Bounded {
	b := Bounded{n: n}
	if n == 0 {
		return b
	}
	if n&(n-1) == 0 {
		b.pow2 = true
		b.mask = n - 1
		return b
	}
	b.thresh = -n % n // (2^64 - n) mod n, computed in uint64 arithmetic
	return b
}

// N returns the bound the sampler was constructed with.
func (b Bounded) N() uint64 { return b.n }

// Mask returns (n-1, true) when the bound is a power of two. Hot loops use
// it to specialize sampling to an inline `r.Uint64() & mask` — the exact
// computation Next performs on the pow2 path, minus the call.
func (b Bounded) Mask() (uint64, bool) { return b.mask, b.pow2 }

// Next returns a uniformly distributed integer in [0, b.N()), drawing from
// r exactly as r.Uint64n(b.N()) would.
func (b Bounded) Next(r *Rand) uint64 {
	if b.pow2 {
		return r.Uint64() & b.mask
	}
	if b.n == 0 {
		return 0
	}
	v := r.Uint64()
	hi, lo := bits.Mul64(v, b.n)
	// Uint64n only compares against the threshold when lo < n; since
	// thresh < n, folding the guard into one loop rejects the same draws.
	for lo < b.thresh {
		v = r.Uint64()
		hi, lo = bits.Mul64(v, b.n)
	}
	return hi
}

// Coin is a precomputed Bernoulli(p) test for a probability fixed across
// many flips — the shape of the fractional branching coin, which every
// active vertex (cobra) or candidate (bips) flips once per round against
// the same ρ.
//
// Hit(x) returns 1 exactly when Bernoulli(p) would return true had its one
// Uint64 draw been x, and 0 otherwise. That identity is load-bearing in the
// same way as Bounded's: the native process engines flip Coins on draws
// they take with Uint64 or bulk-generate with FillUint64, while the
// differential test harness replays the same seeds through the reference
// implementations, which call Bernoulli. It rests on how Float64 builds its
// value: float64(x>>11)·2⁻⁵³, where both the conversion (53 bits) and the
// scaling (a power of two) are exact, so Float64() < p holds iff
// x>>11 < p·2⁵³, which for an integer x>>11 holds iff x>>11 < ⌈p·2⁵³⌉. The
// ceiling is computed exactly too: p·2⁵³ only rescales p's exponent.
// What Coin removes is the float conversion and the compare's branch: Hit
// is one subtraction and one shift, so a flip can feed index arithmetic
// instead of a mispredicting branch.
type Coin struct {
	t uint64 // ⌈p·2⁵³⌉, in [1, 2⁵³ − 1] for 0 < p < 1
}

// NewCoin returns the coin for 0 < p < 1, the range in which Bernoulli
// draws. It panics for any other p, NaN included: outside that range
// Bernoulli answers without consuming the generator, which no flip of a
// drawn value can reproduce.
func NewCoin(p float64) Coin {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("rng: NewCoin(%v), need 0 < p < 1", p))
	}
	return Coin{t: uint64(math.Ceil(p * (1 << 53)))}
}

// Hit returns 1 when Bernoulli(p) would fire on the draw x, else 0. The
// top 53 bits m = x>>11 lie below 2⁵³ and so does the threshold t, so
// m − t wraps to a value with its top bit set exactly when m < t.
func (c Coin) Hit(x uint64) uint64 {
	return ((x >> 11) - c.t) >> 63
}
