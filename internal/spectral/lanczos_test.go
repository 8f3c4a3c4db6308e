package spectral

import (
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// consecutive returns the circulant offsets 1..j.
func consecutive(j int) []int {
	offs := make([]int, j)
	for i := range offs {
		offs[i] = i + 1
	}
	return offs
}

// assertExtremes checks extremes' λ_2 and λ_n against the dense spectrum
// eig (descending) at kernelTol.
func assertExtremes(t *testing.T, g *graph.Graph, eig []float64) {
	t.Helper()
	l2, ln, _, err := extremes(g)
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	if !approxEq(l2, eig[1], kernelTol) || !approxEq(ln, eig[len(eig)-1], kernelTol) {
		t.Fatalf("%s: Lanczos (λ2, λn) = (%.17g, %.17g), dense (%.17g, %.17g)",
			g.Name(), l2, ln, eig[1], eig[len(eig)-1])
	}
}

// TestExtremesStopsOnResidual pins the measured stop: on graphs whose
// extreme eigenvalues converge well inside the Krylov space, extremes
// stops on the residual bound within a quarter of the n-1 steps that end
// the run otherwise. A stop on successive estimates or on the wrong
// Ritz-vector entry runs past it.
func TestExtremesStopsOnResidual(t *testing.T) {
	for _, g := range []*graph.Graph{
		mustG(t)(graph.Torus(1023, 3)),
		mustG(t)(graph.Torus(511, 7)),
		mustG(t)(graph.RandomRegularConnected(2048, 8, rng.New(3))),
	} {
		_, _, k, err := extremes(g)
		if err != nil {
			t.Fatal(err)
		}
		if limit := (g.N() - 1) / 4; k > limit {
			t.Errorf("%s: extremes stopped after %d steps, want <= %d", g.Name(), k, limit)
		}
	}
}
