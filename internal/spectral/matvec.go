// Package spectral computes the spectral quantities the paper's bounds are
// parameterised by: the second-largest-in-absolute-value eigenvalue λ of the
// random-walk transition matrix P, the spectral gap 1-λ, and derived
// estimates (mixing time, Cheeger conductance bounds).
//
// For a regular graph, P = A/r is symmetric and its top eigenvector is the
// constant vector. For general graphs the package operates on the
// symmetrically normalised adjacency N = D^{-1/2} A D^{-1/2}, which is
// similar to P (identical spectrum) and symmetric, with top eigenvector
// proportional to (√deg(x)). There are two paths. A matrix-free Lanczos
// run in O(n) memory, which stops on a measured residual, gives λ_2 and
// λ_n at any size; LambdaMax and Analyze both read it. A dense
// Householder reduction gives the whole spectrum (DenseSpectrum, up to
// 1500 vertices). Both finish with one tridiagonal QL solve.
package spectral

import (
	"errors"
	"fmt"
	"math"

	"cobrawalk/internal/graph"
)

// ErrIsolatedVertex is returned when the graph has a degree-0 vertex, for
// which the random-walk transition matrix is undefined.
var ErrIsolatedVertex = errors.New("spectral: graph has an isolated vertex")

// operator is a matrix-free symmetric linear operator on R^n, precomputed
// from a graph: it applies N = D^{-1/2} A D^{-1/2}.
type operator struct {
	g          *graph.Graph
	invSqrtDeg []float64
	// top is the unit top eigenvector of N (eigenvalue 1 for connected
	// graphs): top[x] ∝ √deg(x).
	top []float64
}

// newOperator validates the graph and precomputes normalisation vectors.
func newOperator(g *graph.Graph) (*operator, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("spectral: empty graph")
	}
	op := &operator{
		g:          g,
		invSqrtDeg: make([]float64, n),
		top:        make([]float64, n),
	}
	var norm float64
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		if d == 0 {
			return nil, fmt.Errorf("%w: vertex %d", ErrIsolatedVertex, v)
		}
		op.invSqrtDeg[v] = 1 / math.Sqrt(float64(d))
		op.top[v] = math.Sqrt(float64(d))
		norm += float64(d)
	}
	norm = math.Sqrt(norm)
	for v := range op.top {
		op.top[v] /= norm
	}
	return op, nil
}

// Apply computes y = N·x. x and y must have length N() and must not alias.
func (op *operator) Apply(x, y []float64) {
	g := op.g
	n := g.N()
	for v := 0; v < n; v++ {
		var sum float64
		for _, u := range g.Neighbors(int32(v)) {
			sum += x[u] * op.invSqrtDeg[u]
		}
		y[v] = sum * op.invSqrtDeg[v]
	}
}

// DeflateTop removes from x its component along the top eigenvector, in
// place, leaving x in the invariant subspace carrying the eigenvalues
// λ_2 ≥ ... ≥ λ_n.
func (op *operator) DeflateTop(x []float64) {
	var dot float64
	for i, t := range op.top {
		dot += x[i] * t
	}
	for i, t := range op.top {
		x[i] -= dot * t
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func scale(a []float64, c float64) {
	for i := range a {
		a[i] *= c
	}
}

// axpy computes y += c*x.
func axpy(c float64, x, y []float64) {
	for i := range y {
		y[i] += c * x[i]
	}
}
