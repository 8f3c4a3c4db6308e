package core

import (
	"math"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/spectral"
)

func TestEstimateLemma2MGFValidation(t *testing.T) {
	g := mustGraph(t)(graph.Complete(16))
	if _, err := EstimateLemma2MGF(g, 0, DefaultBranching, 0.5, 8, 5, 0, 1); err == nil {
		t.Fatal("zero trials should fail")
	}
	if _, err := EstimateLemma2MGF(g, 0, DefaultBranching, 0.5, 8, -1, 10, 1); err == nil {
		t.Fatal("negative horizon should fail")
	}
	if _, err := EstimateLemma2MGF(g, 0, DefaultBranching, 1.0, 8, 5, 10, 1); err == nil {
		t.Fatal("lambda = 1 should fail")
	}
	if _, err := EstimateLemma2MGF(g, 0, DefaultBranching, 0.5, 9, 5, 10, 1); err == nil {
		t.Fatal("m > n/2 should fail")
	}
	if _, err := EstimateLemma2MGF(g, 0, DefaultBranching, 0.5, 0, 5, 10, 1); err == nil {
		t.Fatal("m < 1 should fail")
	}
}

// TestLemma2MGFBoundHolds is the proof-engine check: on an expander, the
// Monte-Carlo exponential moment must stay below the paper's per-round
// contraction bound at every horizon.
func TestLemma2MGFBoundHolds(t *testing.T) {
	g := mustGraph(t)(graph.Paley(101))
	lambda, err := spectral.LambdaMax(g)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4000
	const tMax = 10
	mgf, err := EstimateLemma2MGF(g, 0, DefaultBranching, lambda, g.N()/2, tMax, trials, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mgf.G[0] != 1 {
		t.Fatalf("G_0 = %v, want exactly 1", mgf.G[0])
	}
	for tt := 0; tt <= tMax; tt++ {
		bound := mgf.Bound(tt)
		if mgf.G[tt] > bound+3*mgf.SE[tt]+1e-12 {
			t.Fatalf("Lemma 2 bound violated at t=%d: G=%v > bound=%v (SE %v)", tt, mgf.G[tt], bound, mgf.SE[tt])
		}
	}
	// The moment must actually decay (contraction, not just a bound).
	if mgf.G[tMax] >= mgf.G[1] {
		t.Fatalf("no contraction: G_%d = %v >= G_1 = %v", tMax, mgf.G[tMax], mgf.G[1])
	}
}

func TestLemma2MGFBoundFormula(t *testing.T) {
	l := Lemma2MGF{X: 0.25}
	if got := l.Bound(0); got != 1 {
		t.Fatalf("Bound(0) = %v, want 1", got)
	}
	want := math.Exp(2 * (math.Log(1.25) - 0.25))
	if math.Abs(l.Bound(2)-want) > 1e-12 {
		t.Fatalf("Bound(2) = %v, want %v", l.Bound(2), want)
	}
	// The bound is strictly decreasing in t for x > 0.
	if l.Bound(3) >= l.Bound(2) {
		t.Fatal("bound not decreasing")
	}
}
