package spectral

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cobrawalk/internal/graph"
)

// denseLimit caps the dense path, which holds the n×n matrix (18 MB at
// the cap) and spends O(n³) reducing it: 0.3 s at n = 1024 on a 2-core
// VM and 1 s at the cap.
const denseLimit = 1500

// DenseSpectrum returns all eigenvalues of the normalised adjacency
// N = D^{-1/2} A D^{-1/2} (equal to the spectrum of the random-walk
// transition matrix P), sorted in non-increasing order. Householder
// reflections reduce the dense N to tridiagonal form and the Lanczos
// path's QL solve (tridiagEigenvalues) finishes it. Exact up to
// floating-point roundoff; limited to n <= 1500 vertices.
func DenseSpectrum(g *graph.Graph) ([]float64, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("spectral: empty graph")
	}
	if n > denseLimit {
		return nil, fmt.Errorf("spectral: dense solver limited to n <= %d, got %d", denseLimit, n)
	}
	op, err := newOperator(g)
	if err != nil {
		return nil, err
	}
	// The dense symmetric matrix N, row-major.
	a := make([]float64, n*n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			a[v*n+int(u)] = op.invSqrtDeg[v] * op.invSqrtDeg[u]
		}
	}
	d, e := tridiagonalize(a, n)
	if err := tridiagEigenvalues(d, e); err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	return d, nil
}

// tridiagonalize destroys the symmetric n×n row-major matrix a and
// returns the diagonal d and subdiagonal e (e[k] couples d[k] and d[k+1];
// e[n-1] is workspace) of a tridiagonal matrix with the same eigenvalues.
// It works from the last row up, as EISPACK's tred1 does: step k reflects
// x = row k left of the diagonal onto its last entry with H = I - x·xᵀ/h
// and applies H·B·H to the leading k×k block B as the rank-2 update
// B -= x·wᵀ + w·xᵀ. The large entries thus gather at the bottom right,
// the grading the QL solve expects. Only lower triangles are read and
// written, row by row. No transforms are kept: eigenvalues only.
func tridiagonalize(a []float64, n int) (d, e []float64) {
	d = make([]float64, n)
	e = make([]float64, n)
	w := make([]float64, n)
	for k := n - 1; k > 0; k-- {
		d[k] = a[k*n+k]
		x, p := a[k*n:k*n+k], w[:k]
		var sigma float64
		for _, xi := range x {
			sigma += xi * xi
		}
		last := x[k-1]
		if sigma == last*last {
			e[k-1] = last // row k is already tridiagonal
			continue
		}
		alpha := -math.Copysign(math.Sqrt(sigma), last)
		e[k-1] = alpha
		h := sigma - last*alpha
		x[k-1] -= alpha
		// p = B·x/h, from B's lower triangle.
		clear(p)
		for i := range k {
			row, xi := a[i*n:i*n+i+1], x[i]
			var s float64
			for j, b := range row[:i] {
				s += b * x[j]
				p[j] += b * xi
			}
			p[i] += s + row[i]*xi
		}
		var px float64
		for i := range p {
			p[i] /= h
			px += p[i] * x[i]
		}
		// w = p - (pᵀx/2h)·x, then B -= x·wᵀ + w·xᵀ.
		c := px / (2 * h)
		for i := range p {
			p[i] -= c * x[i]
		}
		for i := range k {
			row, xi, wi := a[i*n:i*n+i+1], x[i], p[i]
			for j := range row {
				row[j] -= xi*p[j] + wi*x[j]
			}
		}
	}
	d[0] = a[0]
	return d, e
}
