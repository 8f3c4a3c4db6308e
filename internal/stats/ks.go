package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// KS2 returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F_a(x) − F_b(x)| of the samples' empirical distribution
// functions. Both functions are evaluated after every tied value at a
// point has been counted: infection and cover times are integers with
// many ties, and a merge that stepped through a tie one value at a time
// would read a spurious gap inside it. The inputs are not modified. It
// returns ErrEmpty when either sample is empty and an error on NaN.
func KS2(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmpty
	}
	if slices.ContainsFunc(a, math.IsNaN) || slices.ContainsFunc(b, math.IsNaN) {
		return 0, errors.New("stats: KS2 sample holds NaN")
	}
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	na, nb := float64(len(a)), float64(len(b))
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/na-float64(j)/nb))
	}
	// Once one sample is used up its function is 1, and the other's only
	// climbs towards 1 from here, so the gap cannot widen.
	return d, nil
}

// KSCritical returns the critical D of the two-sample Kolmogorov–Smirnov
// test at significance alpha for samples of n and m observations, in the
// large-sample form c(α)·√((n+m)/(n·m)) with c(α) = √(−ln(α/2)/2). Two
// samples of one distribution exceed it with probability about alpha.
func KSCritical(n, m int, alpha float64) (float64, error) {
	if n < 1 || m < 1 {
		return 0, ErrEmpty
	}
	if !(alpha > 0 && alpha < 1) {
		return 0, fmt.Errorf("stats: KS significance %v outside (0,1)", alpha)
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/(float64(n)*float64(m))), nil
}
