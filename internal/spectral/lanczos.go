package spectral

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// ritzTol is extremes' measured stop. An extreme Ritz value is converged
// once its residual bound β_k·|s_k| or its distance to the next Ritz
// value falls below it; N has norm 1, so the bound is absolute.
const ritzTol = 1e-10

// extremes returns λ_2 (the largest eigenvalue of the transition matrix
// after the trivial eigenvalue 1) and λ_n (the smallest), and the number
// of Lanczos steps k it took. It runs the plain Lanczos three-term
// recurrence on N, re-deflating the top eigenvector from every new vector
// and keeping no Krylov basis: three n-vectors beside the operator's two,
// and the coefficients α, β of the tridiagonal T_k. At step counts 1.25×
// apart it takes T_k's extreme Ritz values from tridiagEigenvalues, and
// it stops when each of them is converged (see ritz), when β_k vanishes
// (T_k's eigenvalues are then exact), or at k = n-1. Without
// reorthogonalisation Lanczos repeats a converged Ritz value, λ = 1 on a
// disconnected graph for one, and the twin half of ritz's test is what
// stops it there. Cost is O(k·m) for the recurrence plus O(k²) per check.
// For n == 1 both extremes are 0 by convention.
func extremes(g *graph.Graph) (lambda2, lambdaN float64, k int, err error) {
	n := g.N()
	if n == 0 {
		return 0, 0, 0, errors.New("spectral: empty graph")
	}
	if n == 1 {
		return 0, 0, 0, nil
	}
	op, err := newOperator(g)
	if err != nil {
		return 0, 0, 0, err
	}
	prev := make([]float64, n)
	v := randomUnitDeflated(op, rng.New(0))
	w := make([]float64, n)
	var alphas, betas []float64 // betas[j] couples v_j and v_{j+1}
	check := 1
	for k = 1; ; k++ {
		// w = N·v_k - β_{k-1}·v_{k-1} - α_k·v_k, deflated.
		op.Apply(v, w)
		if k > 1 {
			axpy(-betas[k-2], prev, w)
		}
		alpha := dot(w, v)
		axpy(-alpha, v, w)
		op.DeflateTop(w)
		beta := norm2(w)
		alphas, betas = append(alphas, alpha), append(betas, beta)
		if exact := beta < 1e-14 || k == n-1; exact || k == check {
			lo, hi, converged, err := ritz(alphas, betas)
			if err != nil {
				return 0, 0, k, fmt.Errorf("spectral: Lanczos Ritz solve: %w", err)
			}
			if exact || converged {
				// Clamp to [-1, 1] to absorb roundoff.
				return clamp(hi, -1, 1), clamp(lo, -1, 1), k, nil
			}
			check = max(k+1, k*5/4)
		}
		scale(w, 1/beta)
		prev, v, w = v, w, prev
	}
}

// ritz returns the extreme eigenvalues lo and hi of T_k (diagonal alphas,
// off-diagonal betas[:k-1]) and whether both are converged: each has a
// residual bound β_k·|s_k| below ritzTol, where s_k is the last entry of
// its unit Ritz vector and β_k = betas[k-1], or a Ritz twin within
// ritzTol.
func ritz(alphas, betas []float64) (lo, hi float64, converged bool, err error) {
	k := len(alphas)
	d, e := slices.Clone(alphas), make([]float64, k)
	copy(e, betas[:k-1])
	if err := tridiagEigenvalues(d, e); err != nil {
		return 0, 0, false, err
	}
	slices.Sort(d)
	lo, hi = d[0], d[k-1]
	resid := betas[k-1]
	converged = (k > 1 && d[1]-lo < ritzTol || resid*ritzTail(alphas, betas, lo, -1) < ritzTol) &&
		(k > 1 && hi-d[k-2] < ritzTol || resid*ritzTail(alphas, betas, hi, 1) < ritzTol)
	return lo, hi, converged, nil
}

// ritzTail returns |s_k|, the last entry of the unit eigenvector of T_k
// (diagonal alphas, off-diagonal betas[:k-1]) for its extreme eigenvalue
// theta, where side is +1 for the largest and -1 for the smallest. It
// runs three steps of inverse iteration on M = side·(θ'I - T_k), with the
// shift θ' = theta + side·1e-12 just outside the spectrum: M is then
// positive definite, so its LDLᵀ factorisation needs no pivoting.
func ritzTail(alphas, betas []float64, theta, side float64) float64 {
	k := len(alphas)
	shift := theta + side*1e-12
	piv, l, x := make([]float64, k), make([]float64, k), make([]float64, k)
	piv[0] = side * (shift - alphas[0])
	for i := 1; i < k; i++ {
		l[i-1] = -side * betas[i-1] / piv[i-1]
		piv[i] = side*(shift-alphas[i]) - betas[i-1]*betas[i-1]/piv[i-1]
	}
	for i := range x {
		x[i] = 1
	}
	for range 3 {
		// x = M⁻¹x: L·y = x, D·z = y, Lᵀ·x = z.
		for i := 1; i < k; i++ {
			x[i] -= l[i-1] * x[i-1]
		}
		for i := range x {
			x[i] /= piv[i]
		}
		for i := k - 2; i >= 0; i-- {
			x[i] -= l[i] * x[i+1]
		}
		scale(x, 1/norm2(x))
	}
	return math.Abs(x[k-1])
}

// LambdaMax returns λ = max(|λ_2|, |λ_n|), the quantity the paper's
// bounds depend on, from the same Lanczos run (extremes) that Analyze
// uses. It works at any graph size with O(n) memory.
func LambdaMax(g *graph.Graph) (float64, error) {
	l2, ln, _, err := extremes(g)
	if err != nil {
		return 0, err
	}
	return math.Max(math.Abs(l2), math.Abs(ln)), nil
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
