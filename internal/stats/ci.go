package stats

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval for a point estimate.
type Interval struct {
	Point  float64
	Lo, Hi float64
	Level  float64 // e.g. 0.95
}

func (iv Interval) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] @%.0f%%", iv.Point, iv.Lo, iv.Hi, iv.Level*100)
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

func errBadLevel(level float64) error {
	return fmt.Errorf("stats: confidence level %v outside (0,1)", level)
}

// zQuantile returns the standard normal quantile for the given two-sided
// confidence level via Acklam's rational approximation of the inverse
// normal CDF (absolute error < 1.2e-9, ample for CI construction).
func zQuantile(level float64) float64 {
	p := 1 - (1-level)/2 // upper-tail point, e.g. 0.975 for level 0.95
	return invNormCDF(p)
}

// invNormCDF is Acklam's inverse normal CDF approximation.
func invNormCDF(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p == 0.5 {
			return 0
		}
		return math.NaN()
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
