package core

import (
	"math"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/spectral"
	"cobrawalk/internal/stats"
)

func TestLemma1BoundFormula(t *testing.T) {
	// k >= 2: |A|(1 + (1-λ²)(1-|A|/n)).
	got := Lemma1Bound(10, 100, 0.5, Branching{K: 2})
	want := 10 * (1 + 0.75*0.9)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Lemma1Bound = %v, want %v", got, want)
	}
	// Corollary 1: factor ρ.
	got = Lemma1Bound(10, 100, 0.5, Branching{K: 1, Rho: 0.4})
	want = 10 * (1 + 0.4*0.75*0.9)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Corollary1 bound = %v, want %v", got, want)
	}
	// Plain walk (k=1, ρ=0): no growth guarantee.
	if got := Lemma1Bound(10, 100, 0.5, Branching{K: 1}); got != 10 {
		t.Fatalf("k=1 bound = %v, want 10", got)
	}
	// Full set: factor collapses to |A|.
	if got := Lemma1Bound(100, 100, 0.5, Branching{K: 2}); got != 100 {
		t.Fatalf("full-set bound = %v, want 100", got)
	}
}

func TestExactExpectedGrowthK2Formula(t *testing.T) {
	// Hand-check on K4 with A = {0}: Γ(A)\{0} = {1,2,3}, each with
	// d_A = 1, deg = 3: E = 1 + 3·(1-(2/3)²) = 1 + 3·5/9 = 8/3.
	g := mustGraph(t)(graph.Complete(4))
	got, err := ExactExpectedGrowth(g, 0, []int32{0}, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 3*(1-4.0/9)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("E growth = %v, want %v", got, want)
	}
}

func TestExactExpectedGrowthValidation(t *testing.T) {
	g := mustGraph(t)(graph.Complete(4))
	if _, err := ExactExpectedGrowth(g, 0, []int32{1}, DefaultBranching); err == nil {
		t.Fatal("source not in A should fail")
	}
	if _, err := ExactExpectedGrowth(g, 0, []int32{0, 0}, DefaultBranching); err == nil {
		t.Fatal("duplicates should fail")
	}
	if _, err := ExactExpectedGrowth(g, 0, []int32{0, 9}, DefaultBranching); err == nil {
		t.Fatal("out-of-range vertex should fail")
	}
	if _, err := ExactExpectedGrowth(g, 9, []int32{9}, DefaultBranching); err == nil {
		t.Fatal("out-of-range source should fail")
	}
	if _, err := ExactExpectedGrowth(g, 0, []int32{0}, Branching{K: 0}); err == nil {
		t.Fatal("bad branching should fail")
	}
}

// TestLemma1HoldsExactly verifies the paper's Lemma 1 deterministically:
// the exact one-step expectation must dominate the spectral lower bound for
// random infected sets of every size, on several regular graphs.
func TestLemma1HoldsExactly(t *testing.T) {
	r := rng.New(5)
	graphs := []*graph.Graph{
		mustGraph(t)(graph.Complete(24)),
		mustGraph(t)(graph.Petersen()),
		mustGraph(t)(graph.Cycle(30)),
		mustGraph(t)(graph.Hypercube(5)),
		mustGraph(t)(graph.Paley(29)),
	}
	rr := rng.New(17)
	for _, g := range graphs {
		lambda, err := spectral.LambdaMax(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		n := g.N()
		for _, size := range []int{1, 2, n / 4, n / 2, (3 * n) / 4, n} {
			if size < 1 {
				continue
			}
			for rep := 0; rep < 3; rep++ {
				set, err := RandomInfectedSet(g, 0, size, rr)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := ExactExpectedGrowth(g, 0, set, DefaultBranching)
				if err != nil {
					t.Fatal(err)
				}
				bound := Lemma1Bound(size, n, lambda, DefaultBranching)
				if exact < bound-1e-9 {
					t.Errorf("%s |A|=%d: exact E = %.6f < bound %.6f (λ=%.4f)",
						g.Name(), size, exact, bound, lambda)
				}
			}
		}
		_ = r
	}
}

// TestCorollary1HoldsExactly repeats the Lemma 1 check in the fractional
// branching regime of Corollary 1.
func TestCorollary1HoldsExactly(t *testing.T) {
	g := mustGraph(t)(graph.Paley(29))
	lambda, err := spectral.LambdaMax(g)
	if err != nil {
		t.Fatal(err)
	}
	br := Branching{K: 1, Rho: 0.5}
	rr := rng.New(23)
	for _, size := range []int{1, 5, 14, 25} {
		set, err := RandomInfectedSet(g, 0, size, rr)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactExpectedGrowth(g, 0, set, br)
		if err != nil {
			t.Fatal(err)
		}
		bound := Lemma1Bound(size, g.N(), lambda, br)
		if exact < bound-1e-9 {
			t.Errorf("|A|=%d: exact E = %.6f < Corollary 1 bound %.6f", size, exact, bound)
		}
	}
}

// TestSampleGrowthMatchesExact cross-validates the closed-form one-step
// expectation against the registry bips engine: Reset to A (source
// first), one Step, read |A_1|.
func TestSampleGrowthMatchesExact(t *testing.T) {
	g := mustGraph(t)(graph.Petersen())
	rr := rng.New(3)
	set, err := RandomInfectedSet(g, 0, 4, rr)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactExpectedGrowth(g, 0, set, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	b, err := process.New(process.BIPS, g, process.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewStream(11, 0x9c0147)
	var s stats.Stream
	for range 5000 {
		if err := b.Reset(set...); err != nil {
			t.Fatal(err)
		}
		b.Step(r)
		s.Add(float64(b.ReachedCount()))
	}
	if d := math.Abs(s.Mean() - exact); d > 5*s.SE()+1e-9 {
		t.Fatalf("sampled mean %.4f vs exact %.4f (%.1f SE)", s.Mean(), exact, d/s.SE())
	}
}

// TestExactExpectedGrowthRepeatable pins bit-identical results across
// calls. The d(u) = 63 denominators of K64 make the per-vertex terms
// non-dyadic, so the float sum depends on its order; the closed form
// sums in Γ(A) discovery order, which is fixed by the set and the graph.
func TestExactExpectedGrowthRepeatable(t *testing.T) {
	g := mustGraph(t)(graph.Complete(64))
	set, err := RandomInfectedSet(g, 0, 48, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	br := Branching{K: 1, Rho: 0.5}
	first, err := ExactExpectedGrowth(g, 0, set, br)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		got, err := ExactExpectedGrowth(g, 0, set, br)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d returned %v, first call %v", i, got, first)
		}
	}
}

func TestRandomInfectedSet(t *testing.T) {
	g := mustGraph(t)(graph.Complete(10))
	r := rng.New(2)
	set, err := RandomInfectedSet(g, 3, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 5 || set[0] != 3 {
		t.Fatalf("set = %v", set)
	}
	seen := map[int32]bool{}
	for _, v := range set {
		if seen[v] {
			t.Fatalf("duplicate in set: %v", set)
		}
		seen[v] = true
	}
	if _, err := RandomInfectedSet(g, 0, 0, r); err == nil {
		t.Fatal("size 0 should fail")
	}
	if _, err := RandomInfectedSet(g, 0, 11, r); err == nil {
		t.Fatal("size > n should fail")
	}
	full, err := RandomInfectedSet(g, 0, 10, r)
	if err != nil || len(full) != 10 {
		t.Fatalf("full set: %v %v", full, err)
	}
}

// TestGrowthDrivesCoverOnExpander ties Lemma 1 to Theorem 2 empirically:
// on an expander the measured per-round growth factor of small infected
// sets should comfortably exceed 1.
func TestGrowthDrivesCoverOnExpander(t *testing.T) {
	r := rng.New(9)
	g, err := graph.RandomRegularConnected(256, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := spectral.LambdaMax(g)
	if err != nil {
		t.Fatal(err)
	}
	set, err := RandomInfectedSet(g, 0, 16, r)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactExpectedGrowth(g, 0, set, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	bound := Lemma1Bound(16, 256, lambda, DefaultBranching)
	if exact < bound-1e-9 {
		t.Fatalf("growth %v below Lemma 1 bound %v", exact, bound)
	}
	if factor := exact / 16; factor < 1.2 {
		t.Fatalf("expander growth factor %.3f too small", factor)
	}
}
