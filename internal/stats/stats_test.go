package stats

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cobrawalk/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// digestOf folds xs into a fresh Digest and snapshots it.
func digestOf(t *testing.T, xs []float64) DigestSummary {
	t.Helper()
	d := NewDigest()
	for _, x := range xs {
		d.Add(x)
	}
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSummarizeKnown(t *testing.T) {
	s := digestOf(t, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || !approx(s.Mean, 5, 1e-12) {
		t.Fatalf("mean: %+v", s)
	}
	// Sample variance with n-1 denominator: Σ(x-5)² = 32, 32/7.
	if !approx(s.Variance, 32.0/7, 1e-12) {
		t.Fatalf("variance = %v, want %v", s.Variance, 32.0/7)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("range: %+v", s)
	}
	// The sketch median is the rank-⌈N/2⌉ order statistic, 4, within α.
	if !approx(s.P50, 4, DefaultSketchAlpha*4) {
		t.Fatalf("median = %v, want 4 within α", s.P50)
	}
	if !approx(s.SE, s.Std/math.Sqrt(8), 1e-12) {
		t.Fatalf("SE = %v", s.SE)
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String: %s", s.String())
	}
}

func TestSummarizeSingleAndEmpty(t *testing.T) {
	s := digestOf(t, []float64{3.5})
	if s.Mean != 3.5 || s.Variance != 0 || s.Min != 3.5 || s.Max != 3.5 ||
		!approx(s.P50, 3.5, DefaultSketchAlpha*3.5) {
		t.Fatalf("singleton summary: %+v", s)
	}
	if _, err := NewDigest().Summary(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: %v", err)
	}
}

// TestQuantile pins the sketch's rank rule: the q-th quantile is the
// order statistic of rank max(1, ⌈q·N⌉), to within α.
func TestQuantile(t *testing.T) {
	sk := NewDefaultSketch()
	if _, err := sk.Quantile(0.5); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty should fail with ErrEmpty")
	}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		sk.Add(x)
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.25, 2}, {0.5, 3}, {0.7, 4}, {0.75, 4}, {1, 5},
	}
	for _, tc := range cases {
		got, err := sk.Quantile(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, tc.want, DefaultSketchAlpha*tc.want) {
			t.Fatalf("Quantile(%v) = %v, want %v within α", tc.q, got, tc.want)
		}
	}
	if _, err := sk.Quantile(1.5); err == nil {
		t.Fatal("q > 1 should fail")
	}
}

func TestQuantilePropertyMonotone(t *testing.T) {
	f := func(seed uint32) bool {
		rr := rng.New(uint64(seed))
		n := rr.Intn(50) + 1
		sk := NewDefaultSketch()
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			x := rr.Float64() * 100
			sk.Add(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v, err := sk.Quantile(q)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		// The extreme quantiles are the extreme observations, within α.
		q0, _ := sk.Quantile(0)
		q1, _ := sk.Quantile(1)
		return approx(q0, lo, DefaultSketchAlpha*lo) && approx(q1, hi, DefaultSketchAlpha*hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInvNormCDF(t *testing.T) {
	// Known standard normal quantiles.
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.841344746, 1.0},
		{0.025, -1.959964},
		{0.0001, -3.719016},
	}
	for _, tc := range cases {
		if got := invNormCDF(tc.p); !approx(got, tc.want, 1e-4) {
			t.Fatalf("invNormCDF(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(invNormCDF(0)) || !math.IsNaN(invNormCDF(1)) {
		t.Fatal("edge probabilities should be NaN")
	}
}

// TestNormalCI checks DigestSummary.CI, the one normal-approximation
// interval.
func TestNormalCI(t *testing.T) {
	r := rng.New(4)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = r.NormFloat64() + 5
	}
	iv, err := digestOf(t, xs).CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(5) {
		t.Fatalf("CI %v should contain the true mean 5", iv)
	}
	if iv.Hi-iv.Lo > 0.2 {
		t.Fatalf("CI too wide: %v", iv)
	}
	if iv.Lo >= iv.Point || iv.Point >= iv.Hi || iv.Level != 0.95 {
		t.Fatalf("CI ordering broken: %v", iv)
	}
	if _, err := digestOf(t, xs).CI(1.5); err == nil {
		t.Fatal("bad level should fail")
	}
	if _, err := (DigestSummary{}).CI(0.95); err == nil {
		t.Fatal("empty should fail")
	}
}

func TestNormalCICoverage(t *testing.T) {
	// Empirical coverage of the 90% CI over repeated sampling should be
	// near 0.9. 400 experiments of 50 samples each.
	r := rng.New(5)
	covered := 0
	const experiments = 400
	for e := 0; e < experiments; e++ {
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.NormFloat64() * 2
		}
		iv, err := digestOf(t, xs).CI(0.90)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(0) {
			covered++
		}
	}
	rate := float64(covered) / experiments
	if rate < 0.84 || rate > 0.96 {
		t.Fatalf("90%% CI empirical coverage = %.3f", rate)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(f.Slope, 2, 1e-12) || !approx(f.Intercept, 3, 1e-12) || !approx(f.R2, 1, 1e-12) {
		t.Fatalf("fit: %+v", f)
	}
	if !approx(f.Predict(10), 23, 1e-12) {
		t.Fatalf("predict: %v", f.Predict(10))
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point should fail")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x should fail")
	}
	// Constant y fits exactly with slope 0.
	f, err := LinearFit([]float64{1, 2, 3}, []float64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if f.Slope != 0 || f.R2 != 1 {
		t.Fatalf("constant-y fit: %+v", f)
	}
}

func TestFitLogN(t *testing.T) {
	// y = 3·log2(n) + 1.
	ns := []float64{256, 512, 1024, 2048, 4096}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 3*math.Log2(n) + 1
	}
	f, err := FitLogN(ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(f.Slope, 3, 1e-10) || !approx(f.Intercept, 1, 1e-9) {
		t.Fatalf("log fit: %+v", f)
	}
	if _, err := FitLogN([]float64{0, 2}, []float64{1, 2}); err == nil {
		t.Fatal("n = 0 should fail")
	}
}

func TestFitPower(t *testing.T) {
	// y = 5·x^0.5.
	xs := []float64{1, 4, 9, 16, 25}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * math.Sqrt(x)
	}
	p, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.Exponent, 0.5, 1e-10) || !approx(p.Coeff, 5, 1e-9) || !approx(p.R2, 1, 1e-10) {
		t.Fatalf("power fit: %+v", p)
	}
	if !approx(p.Predict(100), 50, 1e-8) {
		t.Fatalf("predict: %v", p.Predict(100))
	}
	if _, err := FitPower([]float64{-1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("negative x should fail")
	}
}

func TestCompareFits(t *testing.T) {
	ys := []float64{1, 2, 3}
	perfect := []float64{1, 2, 3}
	off := []float64{2, 3, 4}
	ratio, err := CompareFits(ys, perfect, off)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 0 {
		t.Fatalf("perfect model ratio = %v, want 0", ratio)
	}
	ratio, err = CompareFits(ys, off, perfect)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ratio, 1) {
		t.Fatalf("ratio against perfect baseline = %v, want +Inf", ratio)
	}
	ratio, err = CompareFits(ys, perfect, perfect)
	if err != nil || ratio != 1 {
		t.Fatalf("both perfect: %v, %v", ratio, err)
	}
	if _, err := CompareFits(ys, perfect, []float64{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := CompareFits(nil, nil, nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty should fail")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1, 3, 5, 7, 9, -2, 15} {
		h.Add(x)
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
	// -2 clamps into bin 0, 15 into bin 4.
	if h.Counts[0] != 3 { // 0.5, 1, -2
		t.Fatalf("bin0 = %d, want 3 (counts %v)", h.Counts[0], h.Counts)
	}
	if h.Counts[4] != 2 { // 9, 15
		t.Fatalf("bin4 = %d, want 2 (counts %v)", h.Counts[4], h.Counts)
	}
	if !approx(h.BinCenter(0), 1, 1e-12) || !approx(h.BinCenter(4), 9, 1e-12) {
		t.Fatalf("bin centers: %v %v", h.BinCenter(0), h.BinCenter(4))
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Fatalf("render produced no bars:\n%s", out)
	}
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("zero bins should fail")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("hi == lo should fail")
	}
}

// Property: DigestSummary invariants hold for arbitrary samples. The
// moments and extremes are exact; the sketch quantiles are ordered and
// sit within α of the sample's range.
func TestSummaryInvariantsQuick(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := r.Intn(100) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 50
		}
		s := digestOf(t, xs)
		return s.Mean >= s.Min && s.Mean <= s.Max && s.Variance >= 0 &&
			s.P50 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 &&
			s.P50 >= s.Min-DefaultSketchAlpha*math.Abs(s.Min) &&
			s.P99 <= s.Max+DefaultSketchAlpha*math.Abs(s.Max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
