package spectral

import (
	"errors"
	"fmt"
	"math"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// Options configures LambdaMax's power iteration. The zero value selects
// the defaults.
type Options struct {
	// MaxIter bounds power-iteration steps (default 50000).
	MaxIter int
	// Tol is the convergence tolerance on eigenvalue estimates
	// (default 1e-11).
	Tol float64
}

func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return 50000
	}
	return o.MaxIter
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-11
	}
	return o.Tol
}

// lanczosSteps caps extremes' Krylov basis (at most n-1 vectors). Memory
// use is O(lanczosSteps·n) because the basis is stored for full
// reorthogonalization.
const lanczosSteps = 96

// extremes returns λ_2 (largest eigenvalue of the transition matrix after
// the trivial eigenvalue 1) and λ_n (the smallest), computed by Lanczos
// iteration with full reorthogonalization against both the Krylov basis and
// the deflated top eigenvector. For n == 1 both are 0 by convention.
func extremes(g *graph.Graph) (lambda2, lambdaN float64, err error) {
	n := g.N()
	if n == 0 {
		return 0, 0, errors.New("spectral: empty graph")
	}
	if n == 1 {
		return 0, 0, nil
	}
	op, err := newOperator(g)
	if err != nil {
		return 0, 0, err
	}
	steps := min(lanczosSteps, n-1)
	r := rng.New(0)

	basis := make([][]float64, 0, steps)
	v := randomUnitDeflated(op, r)
	w := make([]float64, n)
	alphas := make([]float64, 0, steps)
	betas := make([]float64, 0, steps) // betas[j] couples v_j and v_{j+1}

	for j := 0; j < steps; j++ {
		basis = append(basis, v)
		op.Apply(v, w)
		alpha := dot(w, v)
		alphas = append(alphas, alpha)
		// w -= alpha*v_j + beta_{j-1}*v_{j-1}, then full reorthogonalization
		// (two passes of classical Gram-Schmidt) against the whole basis and
		// the deflated top vector, which keeps the Krylov space clean of the
		// trivial eigenvalue.
		axpy(-alpha, v, w)
		if j > 0 {
			axpy(-betas[j-1], basis[j-1], w)
		}
		for pass := 0; pass < 2; pass++ {
			op.DeflateTop(w)
			for _, b := range basis {
				axpy(-dot(w, b), b, w)
			}
		}
		beta := norm2(w)
		if beta < 1e-14 {
			// Invariant subspace exhausted: the Ritz values are exact.
			break
		}
		betas = append(betas, beta)
		next := make([]float64, n)
		copy(next, w)
		scale(next, 1/beta)
		v = next
	}

	m := len(alphas)
	d := make([]float64, m)
	e := make([]float64, m)
	copy(d, alphas)
	copy(e, betas)
	if err := tridiagEigenvalues(d, e); err != nil {
		return 0, 0, fmt.Errorf("spectral: Lanczos Ritz solve: %w", err)
	}
	lambda2, lambdaN = d[0], d[0]
	for _, x := range d[1:] {
		if x > lambda2 {
			lambda2 = x
		}
		if x < lambdaN {
			lambdaN = x
		}
	}
	// Clamp to the valid range [-1, 1] to absorb roundoff.
	lambda2 = clamp(lambda2, -1, 1)
	lambdaN = clamp(lambdaN, -1, 1)
	return lambda2, lambdaN, nil
}

// LambdaMax returns λ = max_{i>=2} |λ_i|, the quantity the paper's bounds
// depend on, via power iteration on N² restricted to the complement of the
// top eigenvector. Squaring makes the dominant eigenvalue λ² non-negative,
// which avoids sign oscillation when λ_n = -λ_2. Works at any graph size
// with O(n) memory.
func LambdaMax(g *graph.Graph, opt Options) (float64, error) {
	n := g.N()
	if n == 0 {
		return 0, errors.New("spectral: empty graph")
	}
	if n == 1 {
		return 0, nil
	}
	op, err := newOperator(g)
	if err != nil {
		return 0, err
	}
	r := rng.New(0)
	v := randomUnitDeflated(op, r)
	tmp := make([]float64, n)
	w := make([]float64, n)
	tol := opt.tol()
	maxIter := opt.maxIter()
	prev := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		op.Apply(v, tmp)
		op.Apply(tmp, w)
		op.DeflateTop(w)
		lambdaSq := dot(w, v) // Rayleigh quotient of N² at unit v
		nw := norm2(w)
		if nw < 1e-300 {
			// v lies in the kernel of N²: all deflated eigenvalues are 0.
			return 0, nil
		}
		scale(w, 1/nw)
		v, w = w, v
		if math.Abs(lambdaSq-prev) < tol {
			return math.Sqrt(math.Max(lambdaSq, 0)), nil
		}
		prev = lambdaSq
	}
	// Power iteration converged too slowly (tightly clustered spectrum);
	// the last Rayleigh quotient still lower-bounds λ² and is accurate to
	// O(residual²). Report it rather than failing.
	return math.Sqrt(math.Max(prev, 0)), nil
}

func randomUnitDeflated(op *operator, r *rng.Rand) []float64 {
	v := make([]float64, len(op.top))
	for {
		for i := range v {
			v[i] = r.NormFloat64()
		}
		op.DeflateTop(v)
		if nv := norm2(v); nv > 1e-9 {
			scale(v, 1/nv)
			return v
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
