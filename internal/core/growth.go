package core

import (
	"fmt"
	"math"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// Lemma1Bound returns the paper's lower bound on E(|A_{t+1}| | A_t = A)
// for an r-regular graph with second eigenvalue lambda (in absolute value):
//
//	Lemma 1    (K >= 2):        |A|·(1 + (1-λ²)·(1-|A|/n))
//	Corollary 1 (K = 1, ρ > 0): |A|·(1 + ρ·(1-λ²)·(1-|A|/n))
//
// For K >= 2 the extra pushes beyond the second only help, so the K = 2
// bound remains valid. For K = 1 with ρ = 0 the process is a plain random
// walk and the lemma gives no growth (factor 0).
func Lemma1Bound(sizeA, n int, lambda float64, branch Branching) float64 {
	a := float64(sizeA)
	frac := (1 - lambda*lambda) * (1 - a/float64(n))
	switch {
	case branch.K >= 2:
		return a * (1 + frac)
	case branch.Rho > 0:
		return a * (1 + branch.Rho*frac)
	default:
		return a
	}
}

// ExactExpectedGrowth evaluates E(|A_{t+1}| | A_t = A) in closed form from
// equation (3) of the paper:
//
//	E = 1 + Σ_{u ∈ Γ(A)∖{source}} (1 - (1-d_A(u)/d(u))^K·(1-ρ·d_A(u)/d(u)))
//
// at O(Σ_{v∈A} deg(v)) cost. A must not contain duplicates; source must be
// a member of A.
func ExactExpectedGrowth(g *graph.Graph, source int32, a []int32, branch Branching) (float64, error) {
	if err := branch.Validate(); err != nil {
		return 0, err
	}
	n := g.N()
	if source < 0 || int(source) >= n {
		return 0, fmt.Errorf("core: source %d out of range [0,%d)", source, n)
	}
	inA := make([]bool, n)
	srcOK := false
	for _, v := range a {
		if v < 0 || int(v) >= n {
			return 0, fmt.Errorf("core: vertex %d out of range [0,%d)", v, n)
		}
		if inA[v] {
			return 0, fmt.Errorf("core: duplicate vertex %d in A", v)
		}
		inA[v] = true
		if v == source {
			srcOK = true
		}
	}
	if !srcOK {
		return 0, fmt.Errorf("core: source %d not in A", source)
	}
	// d_A(u) for u ∈ Γ(A) via one pass over the edges leaving A, summed
	// in discovery order: float addition is not associative, so a fixed
	// order is what makes the result bit-reproducible.
	dA := make([]int32, n)
	gamma := make([]int32, 0, len(a))
	for _, v := range a {
		for _, u := range g.Neighbors(v) {
			if dA[u] == 0 {
				gamma = append(gamma, u)
			}
			dA[u]++
		}
	}
	expected := 1.0 // the persistent source
	for _, u := range gamma {
		if u == source {
			continue
		}
		expected += infectProb(int(dA[u]), g.Degree(u), branch)
	}
	return expected, nil
}

// Lemma2MGF holds a Monte-Carlo estimate of the exponential-moment
// sequence at the heart of the paper's Lemma 2:
//
//	G_t(φ) = E[ e^{-φ(|A_t|-|A_0|)} · 1{|A_s| < m+1 for all s ≤ t-1} ],
//
// which the paper proves satisfies G_t(φ) ≤ exp(t·(log(1+x) - x)) for
// φ = log(1+x), x = (1-λ)/2, and m ≤ n/2. The estimate lets the proof's
// engine be checked empirically, not just its conclusion.
type Lemma2MGF struct {
	Phi float64
	X   float64
	M   int
	// G[t] is the Monte-Carlo estimate of G_t(φ); SE[t] its standard error.
	G  []float64
	SE []float64
}

// Bound returns the paper's upper bound exp(t·(log(1+x)-x)) on G_t(φ).
func (l Lemma2MGF) Bound(t int) float64 {
	return math.Exp(float64(t) * (math.Log(1+l.X) - l.X))
}

// EstimateLemma2MGF runs `trials` independent registry bips processes
// from source, each stepped to the horizon tMax even past full infection,
// and estimates G_t(φ) for t = 0..tMax with φ = log(1+x), x = (1-λ)/2,
// small-set threshold m. Used by experiment E15 to validate the Lemma 2
// supermartingale argument directly.
func EstimateLemma2MGF(g *graph.Graph, source int32, branch Branching, lambda float64, m, tMax, trials int, seed uint64) (Lemma2MGF, error) {
	if trials < 1 {
		return Lemma2MGF{}, fmt.Errorf("core: trials = %d, need >= 1", trials)
	}
	if tMax < 0 {
		return Lemma2MGF{}, fmt.Errorf("core: negative horizon %d", tMax)
	}
	if lambda < 0 || lambda >= 1 {
		return Lemma2MGF{}, fmt.Errorf("core: lambda = %v outside [0,1)", lambda)
	}
	if m < 1 || m > g.N()/2 {
		return Lemma2MGF{}, fmt.Errorf("core: small-set threshold m = %d outside [1, n/2]", m)
	}
	x := (1 - lambda) / 2
	out := Lemma2MGF{
		Phi: math.Log(1 + x),
		X:   x,
		M:   m,
		G:   make([]float64, tMax+1),
		SE:  make([]float64, tMax+1),
	}
	b, err := newEngine(process.BIPS, g, branch)
	if err != nil {
		return Lemma2MGF{}, err
	}
	sums := make([]float64, tMax+1)
	sumSqs := make([]float64, tMax+1)
	r := rng.NewStream(seed, 0x1e2)
	for i := 0; i < trials; i++ {
		if err := b.Reset(source); err != nil {
			return Lemma2MGF{}, err
		}
		a0 := float64(b.ReachedCount())
		alive := true // 1{E_{t-1}}: all sizes so far < m+1
		for t := 0; t <= tMax; t++ {
			if t > 0 {
				// The indicator freezes once any prior size exceeds m.
				if b.ReachedCount() >= m+1 {
					alive = false
				}
				b.Step(r)
			}
			if alive {
				v := math.Exp(-out.Phi * (float64(b.ReachedCount()) - a0))
				sums[t] += v
				sumSqs[t] += v * v
			}
		}
	}
	n := float64(trials)
	for t := 0; t <= tMax; t++ {
		mean := sums[t] / n
		out.G[t] = mean
		variance := sumSqs[t]/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		out.SE[t] = math.Sqrt(variance / n)
	}
	return out, nil
}

// RandomInfectedSet draws a uniformly random subset of V of the given size
// containing source, for conditioned growth experiments.
func RandomInfectedSet(g *graph.Graph, source int32, size int, r *rng.Rand) ([]int32, error) {
	n := g.N()
	if size < 1 || size > n {
		return nil, fmt.Errorf("core: set size %d out of range [1,%d]", size, n)
	}
	perm := make([]int32, 0, n-1)
	for v := int32(0); v < int32(n); v++ {
		if v != source {
			perm = append(perm, v)
		}
	}
	r.ShuffleInt32s(perm)
	set := make([]int32, 0, size)
	set = append(set, source)
	set = append(set, perm[:size-1]...)
	return set, nil
}
