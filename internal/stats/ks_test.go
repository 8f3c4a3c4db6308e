package stats

import (
	"errors"
	"math"
	"testing"
)

// ksCase is one row of the two-sample table: two samples and the D
// they must give.
type ksCase struct {
	name string
	a, b []float64
	want float64
}

func runKS2(t *testing.T, tc ksCase) {
	t.Helper()
	t.Run(tc.name, func(t *testing.T) {
		for _, order := range []struct {
			name string
			a, b []float64
		}{{"a,b", tc.a, tc.b}, {"b,a", tc.b, tc.a}} {
			got, err := KS2(order.a, order.b)
			if err != nil {
				t.Fatalf("KS2(%s): %v", order.name, err)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("KS2(%s) = %v, want %v", order.name, got, tc.want)
			}
		}
	})
}

func TestKS2(t *testing.T) {
	tests := []ksCase{
		{name: "identical", a: []float64{3, 1, 2, 2, 5}, b: []float64{5, 2, 3, 1, 2}, want: 0},
		{name: "same law, different sizes", a: []float64{1, 2}, b: []float64{1, 1, 2, 2}, want: 0},
		{name: "disjoint", a: []float64{1, 2, 3}, b: []float64{4, 5}, want: 1},
		{name: "shifted with ties", a: []float64{1, 2, 2, 3}, b: []float64{2, 3, 3, 4}, want: 0.5},
		// A merge that steps through the tie at 1 one value at a time
		// reads F_a = 1 against F_b = 0 inside it, and D = 1.
		{name: "tie across samples", a: []float64{1, 1}, b: []float64{1, 2}, want: 0.5},
		{name: "unsorted input", a: []float64{3, 1, 2}, b: []float64{2, 2, 2}, want: 1.0 / 3},
	}
	for _, tc := range tests {
		runKS2(t, tc)
	}
}

func TestKS2DoesNotMutateInput(t *testing.T) {
	a, b := []float64{3, 1, 2}, []float64{9, 7, 8}
	if _, err := KS2(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0] != 3 || b[0] != 9 {
		t.Fatalf("KS2 sorted its inputs: %v %v", a, b)
	}
}

func TestKS2Errors(t *testing.T) {
	if _, err := KS2(nil, []float64{1}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty a: %v", err)
	}
	if _, err := KS2([]float64{1}, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty b: %v", err)
	}
	if _, err := KS2([]float64{1, math.NaN()}, []float64{1}); err == nil {
		t.Fatal("NaN accepted")
	}
}

// TestKSCritical checks c(α) at the usual levels (n = m = 2, where
// √((n+m)/(n·m)) = 1) and the critical D of the repository's two
// distribution checks.
func TestKSCritical(t *testing.T) {
	tests := []struct {
		name  string
		n, m  int
		alpha float64
		want  float64
		tol   float64
	}{
		{name: "c(0.05)", n: 2, m: 2, alpha: 0.05, want: 1.358, tol: 5e-4},
		{name: "c(0.01)", n: 2, m: 2, alpha: 0.01, want: 1.628, tol: 5e-4},
		{name: "c(0.001)", n: 2, m: 2, alpha: 0.001, want: 1.949, tol: 5e-4},
		{name: "400 vs 400 at 0.001", n: 400, m: 400, alpha: 0.001, want: 0.138, tol: 5e-4},
		{name: "2000 vs 2000 at 0.001", n: 2000, m: 2000, alpha: 0.001, want: 0.0616, tol: 5e-5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := KSCritical(tc.n, tc.m, tc.alpha)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > tc.tol {
				t.Fatalf("KSCritical(%d, %d, %v) = %v, want %v", tc.n, tc.m, tc.alpha, got, tc.want)
			}
		})
	}
	for _, bad := range []struct {
		n, m  int
		alpha float64
	}{{0, 5, 0.05}, {5, 0, 0.05}, {5, 5, 0}, {5, 5, 1}, {5, 5, math.NaN()}} {
		if _, err := KSCritical(bad.n, bad.m, bad.alpha); err == nil {
			t.Errorf("KSCritical(%d, %d, %v) accepted", bad.n, bad.m, bad.alpha)
		}
	}
}
