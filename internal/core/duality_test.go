package core

import (
	"math"
	"testing"

	"cobrawalk/internal/graph"
)

func mustGraph(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatalf("graph construction: %v", err)
		}
		return g
	}
}

// TestExactDualityTheorem4 is the strongest check in the repository: it
// computes both sides of Theorem 4 exactly (no Monte Carlo) over the full
// subset space of small graphs and asserts they agree to floating-point
// accuracy, for every start set C and every horizon t.
func TestExactDualityTheorem4(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (*graph.Graph, error)
	}{
		{"K4", func() (*graph.Graph, error) { return graph.Complete(4) }},
		{"C5", func() (*graph.Graph, error) { return graph.Cycle(5) }},
		{"C6-bipartite", func() (*graph.Graph, error) { return graph.Cycle(6) }},
		{"K33", func() (*graph.Graph, error) { return graph.CompleteBipartite(3, 3) }},
		{"prism", graph.PrismGraph},
		{"petersen", graph.Petersen},
		{"Q3", func() (*graph.Graph, error) { return graph.Hypercube(3) }},
		// Theorem 4's proof never uses regularity, so the duality should
		// hold on irregular graphs too; the star is the extreme case.
		{"star-irregular", func() (*graph.Graph, error) { return graph.Star(6) }},
		{"path-irregular", func() (*graph.Graph, error) { return graph.Path(5) }},
	}
	branchings := []Branching{
		{K: 1},
		{K: 2},
		{K: 3},
		{K: 1, Rho: 0.3},
		{K: 2, Rho: 0.7},
	}
	for _, tc := range cases {
		g := mustGraph(t)(tc.mk())
		tMax := 8
		if g.N() > 8 {
			tMax = 6
		}
		for _, br := range branchings {
			ed, err := ComputeExactDuality(g, 0, tMax, br)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, br, err)
			}
			if errMax := ed.MaxAbsError(); errMax > 1e-10 {
				t.Errorf("%s %s: Theorem 4 violated: max |Δ| = %.3e", tc.name, br, errMax)
			}
		}
	}
}

func TestExactDualityDifferentSources(t *testing.T) {
	g := mustGraph(t)(graph.Petersen())
	for _, v := range []int32{0, 4, 9} {
		ed, err := ComputeExactDuality(g, v, 6, DefaultBranching)
		if err != nil {
			t.Fatal(err)
		}
		if errMax := ed.MaxAbsError(); errMax > 1e-10 {
			t.Errorf("source %d: max |Δ| = %.3e", v, errMax)
		}
	}
}

func TestExactDualityStructure(t *testing.T) {
	g := mustGraph(t)(graph.Complete(4))
	ed, err := ComputeExactDuality(g, 0, 5, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	size := 1 << 4
	for c := 0; c < size; c++ {
		// t = 0: survival is exactly 1[v ∉ C] (v = 0 is bit 0).
		want := 1.0
		if c&1 != 0 {
			want = 0
		}
		if ed.CobraSurvival[0][c] != want {
			t.Fatalf("h_0[%b] = %v, want %v", c, ed.CobraSurvival[0][c], want)
		}
		// Sets containing v have survival 0 at every t.
		for tt := 0; tt <= ed.T; tt++ {
			if c&1 != 0 && ed.CobraSurvival[tt][c] != 0 {
				t.Fatalf("h_%d[%b] = %v, want 0 (v ∈ C)", tt, c, ed.CobraSurvival[tt][c])
			}
			// Probabilities lie in [0, 1].
			if p := ed.CobraSurvival[tt][c]; p < -1e-12 || p > 1+1e-12 {
				t.Fatalf("h_%d[%b] = %v outside [0,1]", tt, c, p)
			}
		}
		// The empty set never hits: survival identically 1 (up to the
		// accumulated roundoff of the Möbius transforms).
		if math.Abs(ed.CobraSurvival[ed.T][0]-1) > 1e-9 {
			t.Fatalf("empty-set survival = %v, want 1", ed.CobraSurvival[ed.T][0])
		}
	}
	// Survival from a singleton decays with t (monotone non-increasing).
	prev := 1.0
	for tt := 0; tt <= ed.T; tt++ {
		cur := ed.CobraSurvival[tt][1<<1] // C = {1}
		if cur > prev+1e-12 {
			t.Fatalf("survival increased at t=%d: %v > %v", tt, cur, prev)
		}
		prev = cur
	}
	// On K4 from one vertex, survival should decay fast: after 5 rounds
	// the hit probability is overwhelming.
	if final := ed.CobraSurvival[5][1<<1]; final > 0.05 {
		t.Fatalf("K4 survival after 5 rounds = %v, expected < 0.05", final)
	}
}

func TestExactDualityMarginals(t *testing.T) {
	g := mustGraph(t)(graph.Cycle(5))
	ed, err := ComputeExactDuality(g, 0, 6, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	surv := ed.MarginalSurvival(2)
	excl := ed.MarginalExclusion(2)
	if len(surv) != 7 || len(excl) != 7 {
		t.Fatalf("marginal lengths: %d, %d", len(surv), len(excl))
	}
	for i := range surv {
		if math.Abs(surv[i]-excl[i]) > 1e-10 {
			t.Fatalf("marginal duality broken at t=%d: %v vs %v", i, surv[i], excl[i])
		}
	}
	if surv[0] != 1 {
		t.Fatalf("P(Hit > 0) = %v for u != v, want 1", surv[0])
	}
}

func TestExactDualityValidation(t *testing.T) {
	g := mustGraph(t)(graph.Complete(4))
	if _, err := ComputeExactDuality(g, -1, 3, DefaultBranching); err == nil {
		t.Fatal("bad vertex should fail")
	}
	if _, err := ComputeExactDuality(g, 0, -1, DefaultBranching); err == nil {
		t.Fatal("negative horizon should fail")
	}
	if _, err := ComputeExactDuality(g, 0, 3, Branching{K: 0}); err == nil {
		t.Fatal("bad branching should fail")
	}
	big := mustGraph(t)(graph.Complete(MaxExactVertices + 1))
	if _, err := ComputeExactDuality(big, 0, 1, DefaultBranching); err == nil {
		t.Fatal("oversized graph should fail")
	}
	iso := mustGraph(t)(graph.FromEdges("iso", 3, [][2]int32{{0, 1}}))
	if _, err := ComputeExactDuality(iso, 0, 1, DefaultBranching); err == nil {
		t.Fatal("isolated vertex should fail")
	}
}

// TestMonteCarloDuality validates the sampled estimator against the exact
// values: every per-t estimate must sit within 5 standard errors of the
// exact probability on both sides.
func TestMonteCarloDuality(t *testing.T) {
	g := mustGraph(t)(graph.Petersen())
	const u, v = 3, 0
	const tMax = 6
	const trials = 4000
	ed, err := ComputeExactDuality(g, v, tMax, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateDuality(g, u, v, tMax, trials, DefaultBranching, 42)
	if err != nil {
		t.Fatal(err)
	}
	exactSurv := ed.MarginalSurvival(u)
	for tt := 0; tt <= tMax; tt++ {
		se := est.CobraSE[tt]
		if se == 0 {
			se = 1.0 / trials
		}
		if d := math.Abs(est.CobraSurvival[tt] - exactSurv[tt]); d > 5*se+1e-9 {
			t.Errorf("COBRA estimate at t=%d: %.4f vs exact %.4f (%.1f SE)", tt, est.CobraSurvival[tt], exactSurv[tt], d/se)
		}
		seB := est.BipsSE[tt]
		if seB == 0 {
			seB = 1.0 / trials
		}
		if d := math.Abs(est.BipsExclusion[tt] - exactSurv[tt]); d > 5*seB+1e-9 {
			t.Errorf("BIPS estimate at t=%d: %.4f vs exact %.4f (%.1f SE)", tt, est.BipsExclusion[tt], exactSurv[tt], d/seB)
		}
	}
	// The two Monte-Carlo sides agree within a max-z of ~4 (they are
	// independent estimates of the same quantity).
	if z := est.MaxZScore(); z > 4.5 {
		t.Errorf("duality max z-score = %.2f", z)
	}
	if est.MaxAbsDiff() > 0.05 {
		t.Errorf("duality max abs diff = %.4f", est.MaxAbsDiff())
	}
}

func TestEstimateDualityValidation(t *testing.T) {
	g := mustGraph(t)(graph.Complete(4))
	if _, err := EstimateDuality(g, 0, 1, -1, 10, DefaultBranching, 1); err == nil {
		t.Fatal("negative horizon should fail")
	}
	if _, err := EstimateDuality(g, 0, 1, 3, 0, DefaultBranching, 1); err == nil {
		t.Fatal("zero trials should fail")
	}
	if _, err := EstimateDuality(g, 0, 9, 3, 10, DefaultBranching, 1); err == nil {
		t.Fatal("bad vertex should fail")
	}
}

func TestEstimateDualitySelfPair(t *testing.T) {
	// u == v: Hit is 0 immediately and u = v ∈ A_t always, so both sides
	// are identically 0.
	g := mustGraph(t)(graph.Complete(6))
	est, err := EstimateDuality(g, 2, 2, 4, 200, DefaultBranching, 7)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= 4; tt++ {
		if est.CobraSurvival[tt] != 0 || est.BipsExclusion[tt] != 0 {
			t.Fatalf("self-pair side nonzero at t=%d: %+v", tt, est)
		}
	}
	if est.MaxAbsDiff() != 0 || est.MaxZScore() != 0 {
		t.Fatalf("self-pair diff: %v z: %v", est.MaxAbsDiff(), est.MaxZScore())
	}
}

func TestDualityFractionalBranchingMonteCarlo(t *testing.T) {
	// Corollary 1 regime: branching 1+ρ. Cross-validate MC duality on the
	// prism graph.
	g := mustGraph(t)(graph.PrismGraph())
	br := Branching{K: 1, Rho: 0.4}
	ed, err := ComputeExactDuality(g, 0, 5, br)
	if err != nil {
		t.Fatal(err)
	}
	if errMax := ed.MaxAbsError(); errMax > 1e-10 {
		t.Fatalf("exact duality (1+ρ): %.3e", errMax)
	}
	est, err := EstimateDuality(g, 4, 0, 5, 3000, br, 13)
	if err != nil {
		t.Fatal(err)
	}
	exact := ed.MarginalSurvival(4)
	for tt := 0; tt <= 5; tt++ {
		se := math.Hypot(est.CobraSE[tt], est.BipsSE[tt])
		if se == 0 {
			se = 1e-3
		}
		if d := math.Abs(est.CobraSurvival[tt] - exact[tt]); d > 5*se+1e-9 {
			t.Errorf("t=%d: COBRA MC %.4f vs exact %.4f", tt, est.CobraSurvival[tt], exact[tt])
		}
	}
}
