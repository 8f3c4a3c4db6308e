package spectral

import (
	"errors"
	"math"
)

// tridiagEigenvalues computes, in place, the eigenvalues of the symmetric
// tridiagonal matrix with diagonal d (length n) and subdiagonal e (length
// n, with e[n-1] ignored and used as workspace). On return d holds the
// eigenvalues in unspecified order. This is the classic implicit-shift QL
// iteration (EISPACK tql1 / Numerical Recipes tqli, eigenvalues only).
func tridiagEigenvalues(d, e []float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	if len(e) < n {
		return errors.New("spectral: subdiagonal workspace too short")
	}
	// e[i] couples d[i] and d[i+1]; e[n-1] = 0 acts as a sentinel.
	e[n-1] = 0
	// A subdiagonal element is negligible against its two diagonal
	// neighbours or, as in tql1, against the whole matrix. The first test
	// alone never passes next to an eigenvalue 0 inside an O(1) block,
	// where roundoff holds the element near eps·‖T‖.
	var norm float64
	for i := range d {
		norm = max(norm, math.Abs(d[i])+math.Abs(e[i]))
	}
	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Find the first small subdiagonal element at or after l.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 2.3e-16*max(dd, norm) {
					break
				}
			}
			if m == l {
				break // d[l] has converged
			}
			iter++
			if iter > 50 {
				return errors.New("spectral: tridiagonal QL failed to converge")
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover from underflow: annihilate the tiny element
					// and restart this eigenvalue.
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if i == l {
					d[l] -= p
					e[l] = g
					e[m] = 0
				}
			}
		}
	}
	return nil
}
