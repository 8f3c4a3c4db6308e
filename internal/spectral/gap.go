package spectral

import (
	"fmt"
	"math"

	"cobrawalk/internal/graph"
)

// Report collects the spectral quantities of a graph that parameterise the
// paper's bounds.
type Report struct {
	N int // vertices
	M int // edges
	// Degree is the common degree for regular graphs, -1 otherwise.
	Degree int
	// Lambda2 is the second-largest eigenvalue of the transition matrix.
	Lambda2 float64
	// LambdaN is the smallest eigenvalue (= -1 iff bipartite, for
	// connected graphs).
	LambdaN float64
	// LambdaMax = max(|Lambda2|, |LambdaN|) is the λ in Theorems 1-3.
	LambdaMax float64
	// Gap is 1 - LambdaMax, the quantity the paper's cover-time bound
	// O(log n / Gap³) is stated in.
	Gap float64
	// GapL2 is 1 - Lambda2, the "lazy" gap that ignores the bipartite end
	// of the spectrum.
	GapL2 float64
	// MixingTimeUB is the standard upper bound log(n·√2)/Gap on the
	// ε=½ mixing time of the lazy walk, +Inf when Gap = 0.
	MixingTimeUB float64
	// CheegerLo and CheegerHi bound the conductance Φ(G) via the Cheeger
	// inequalities GapL2/2 ≤ Φ ≤ √(2·GapL2).
	CheegerLo, CheegerHi float64
	Connected            bool
	Bipartite            bool
}

// TheoremT returns the paper's Theorem 1/2 time scale T = log(n)/(1-λ)³
// for this graph, or +Inf if the gap is zero.
func (r Report) TheoremT() float64 {
	if r.Gap <= 0 {
		return math.Inf(1)
	}
	return math.Log(float64(r.N)) / (r.Gap * r.Gap * r.Gap)
}

// SatisfiesGapCondition reports whether the graph meets the paper's
// hypothesis 1-λ >> √(log n / n) with the given constant factor C (the
// paper requires 1-λ ≥ C·√(log n / n) for suitably large C).
func (r Report) SatisfiesGapCondition(c float64) bool {
	n := float64(r.N)
	if n < 2 {
		return false
	}
	return r.Gap >= c*math.Sqrt(math.Log(n)/n)
}

func (r Report) String() string {
	deg := "irregular"
	if r.Degree >= 0 {
		deg = fmt.Sprintf("%d-regular", r.Degree)
	}
	return fmt.Sprintf("spectral{n=%d m=%d %s λ2=%.6f λn=%.6f λmax=%.6f gap=%.6f conn=%v bip=%v}",
		r.N, r.M, deg, r.Lambda2, r.LambdaN, r.LambdaMax, r.Gap, r.Connected, r.Bipartite)
}

// snapToZero collapses values within eigensolver roundoff of zero, so that
// structurally-zero gaps (bipartite or disconnected graphs) are reported as
// exactly zero rather than ±1e-16.
func snapToZero(x float64) float64 {
	if math.Abs(x) < 1e-9 {
		return 0
	}
	return x
}

// Analyze computes the full spectral report for a graph. The signed
// extremes λ_2 and λ_n come from extremes' Lanczos run at every graph
// size, in O(n) memory and O(k·m + k²) time for its k steps. The
// structural fields (N, M, Degree, Connected, Bipartite) are filled in
// before the spectral solve, so they hold even when it fails, as it does
// with ErrIsolatedVertex on a graph with a degree-0 vertex.
func Analyze(g *graph.Graph) (Report, error) {
	rep := Report{
		N:         g.N(),
		M:         g.M(),
		Degree:    -1,
		Connected: g.IsConnected(),
		Bipartite: g.IsBipartite(),
	}
	if deg, err := g.Regularity(); err == nil {
		rep.Degree = deg
	}
	if g.N() == 0 {
		return rep, fmt.Errorf("spectral: empty graph")
	}
	if g.N() == 1 {
		rep.Gap, rep.GapL2 = 1, 1
		rep.MixingTimeUB = 0
		return rep, nil
	}
	l2, ln, _, err := extremes(g)
	if err != nil {
		return rep, err
	}
	rep.Lambda2 = l2
	rep.LambdaN = ln
	rep.LambdaMax = math.Max(math.Abs(l2), math.Abs(ln))
	rep.Gap = snapToZero(1 - rep.LambdaMax)
	rep.GapL2 = snapToZero(1 - rep.Lambda2)
	if rep.Gap > 0 {
		rep.MixingTimeUB = math.Log(float64(rep.N)*math.Sqrt2) / rep.Gap
	} else {
		rep.MixingTimeUB = math.Inf(1)
	}
	rep.CheegerLo = rep.GapL2 / 2
	rep.CheegerHi = math.Sqrt(2 * rep.GapL2)
	return rep, nil
}
