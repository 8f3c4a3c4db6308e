package stats

import (
	"fmt"
	"math"
)

// Fit is an ordinary-least-squares line y = Slope·x + Intercept with its
// coefficient of determination.
type Fit struct {
	Slope, Intercept float64
	R2               float64
	N                int
}

func (f Fit) String() string {
	return fmt.Sprintf("y = %.4g·x + %.4g (R²=%.4f, n=%d)", f.Slope, f.Intercept, f.R2, f.N)
}

// Predict evaluates the fitted line at x.
func (f Fit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }

// LinearFit fits y = a·x + b by least squares. It needs at least two
// points with non-constant x.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return Fit{}, fmt.Errorf("stats: need >= 2 points, got %d", n)
	}
	mx, my := mean(xs), mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: degenerate fit: x is constant")
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx, N: n}
	if syy == 0 {
		fit.R2 = 1 // constant y fitted exactly by zero slope
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// mean is the plain left-to-right sum over len(xs).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// FitLogN fits y = a·log₂(n) + b for positive sample sizes ns. It is the
// harness's test for "is this cover time Θ(log n)": a high R² with stable
// slope across doublings supports a logarithmic law.
func FitLogN(ns []float64, ys []float64) (Fit, error) {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		if n <= 0 {
			return Fit{}, fmt.Errorf("stats: non-positive n[%d] = %v in log fit", i, n)
		}
		xs[i] = math.Log2(n)
	}
	return LinearFit(xs, ys)
}

// PowerFit fits y = c·x^p by least squares in log-log space and returns
// (p, c, R²). All inputs must be positive. Used for the grid/torus scaling
// law Õ(n^{1/d}) and the λ-sweep exponent of experiment E7.
type PowerLaw struct {
	Exponent float64
	Coeff    float64
	R2       float64
	N        int
}

func (p PowerLaw) String() string {
	return fmt.Sprintf("y = %.4g·x^%.4f (R²=%.4f, n=%d)", p.Coeff, p.Exponent, p.R2, p.N)
}

// Predict evaluates the power law at x.
func (p PowerLaw) Predict(x float64) float64 { return p.Coeff * math.Pow(x, p.Exponent) }

// FitPower fits y = c·x^p via regression of log y on log x.
func FitPower(xs, ys []float64) (PowerLaw, error) {
	if len(xs) != len(ys) {
		return PowerLaw{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return PowerLaw{}, fmt.Errorf("stats: power fit needs positive data, got (%v, %v) at %d", xs[i], ys[i], i)
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	f, err := LinearFit(lx, ly)
	if err != nil {
		return PowerLaw{}, err
	}
	return PowerLaw{Exponent: f.Slope, Coeff: math.Exp(f.Intercept), R2: f.R2, N: f.N}, nil
}

// CompareFits reports which of two candidate models explains ys better, by
// comparing residual sums of squares of (already-fitted) predictions. It
// returns the ratio RSS(a)/RSS(b); values < 1 favour model a. Used by
// experiment E8 to contrast the log n law (this paper) against the log² n
// law (Dutta et al.'s earlier bound) on expanders.
func CompareFits(ys, predA, predB []float64) (float64, error) {
	if len(ys) != len(predA) || len(ys) != len(predB) {
		return 0, fmt.Errorf("stats: length mismatch")
	}
	if len(ys) == 0 {
		return 0, ErrEmpty
	}
	var rssA, rssB float64
	for i := range ys {
		da, db := ys[i]-predA[i], ys[i]-predB[i]
		rssA += da * da
		rssB += db * db
	}
	if rssB == 0 {
		if rssA == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	return rssA / rssB, nil
}
