package spectral

import (
	"math"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

const eigTol = 1e-9

func mustG(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatalf("graph construction: %v", err)
		}
		return g
	}
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// assertSpectrum checks a computed spectrum against the expected multiset
// (both sorted descending) within tolerance.
func assertSpectrum(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("spectrum length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !approxEq(got[i], want[i], tol) {
			t.Fatalf("eigenvalue[%d] = %.12f, want %.12f (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestDenseSpectrumComplete(t *testing.T) {
	// K_n transition eigenvalues: 1 once, -1/(n-1) with multiplicity n-1.
	for _, n := range []int{2, 3, 5, 10, 25} {
		g := mustG(t)(graph.Complete(n))
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		assertExtremes(t, g, eig)
		want := make([]float64, n)
		want[0] = 1
		for i := 1; i < n; i++ {
			want[i] = -1 / float64(n-1)
		}
		assertSpectrum(t, eig, want, eigTol)
	}
}

func TestDenseSpectrumCycle(t *testing.T) {
	// C_n eigenvalues: cos(2πk/n), k = 0..n-1.
	for _, n := range []int{3, 4, 6, 9, 16} {
		g := mustG(t)(graph.Cycle(n))
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		assertExtremes(t, g, eig)
		want := make([]float64, 0, n)
		for k := 0; k < n; k++ {
			want = append(want, math.Cos(2*math.Pi*float64(k)/float64(n)))
		}
		sortDesc(want)
		assertSpectrum(t, eig, want, eigTol)
	}
}

func TestDenseSpectrumHypercube(t *testing.T) {
	// Q_d eigenvalues: (d-2i)/d with multiplicity C(d,i).
	for _, d := range []int{2, 3, 4, 5} {
		g := mustG(t)(graph.Hypercube(d))
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		assertExtremes(t, g, eig)
		var want []float64
		binom := 1
		for i := 0; i <= d; i++ {
			for j := 0; j < binom; j++ {
				want = append(want, float64(d-2*i)/float64(d))
			}
			binom = binom * (d - i) / (i + 1)
		}
		sortDesc(want)
		assertSpectrum(t, eig, want, eigTol)
	}
}

func TestDenseSpectrumPetersen(t *testing.T) {
	g := mustG(t)(graph.Petersen())
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	assertExtremes(t, g, eig)
	want := []float64{1}
	for i := 0; i < 5; i++ {
		want = append(want, 1.0/3)
	}
	for i := 0; i < 4; i++ {
		want = append(want, -2.0/3)
	}
	assertSpectrum(t, eig, want, eigTol)
}

func TestDenseSpectrumCompleteBipartite(t *testing.T) {
	// K_{a,b} normalised spectrum: {1, 0 (×(a+b-2)), -1}.
	g := mustG(t)(graph.CompleteBipartite(3, 4))
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	assertExtremes(t, g, eig)
	want := make([]float64, 7)
	want[0], want[6] = 1, -1
	assertSpectrum(t, eig, want, eigTol)
}

func TestDenseSpectrumStar(t *testing.T) {
	// The star is K_{1,m}: {1, 0 (×(m-1)), -1}. Exercises irregular
	// normalisation.
	g := mustG(t)(graph.Star(6))
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	assertExtremes(t, g, eig)
	want := make([]float64, 6)
	want[0], want[5] = 1, -1
	assertSpectrum(t, eig, want, eigTol)
}

func TestDenseSpectrumPaley(t *testing.T) {
	// Paley(q) adjacency eigenvalues (q-1)/2 and (-1±√q)/2; divide by
	// degree (q-1)/2 for the transition spectrum.
	q := 13
	g := mustG(t)(graph.Paley(q))
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	assertExtremes(t, g, eig)
	deg := float64(q-1) / 2
	plus := (-1 + math.Sqrt(float64(q))) / 2 / deg
	minus := (-1 - math.Sqrt(float64(q))) / 2 / deg
	if !approxEq(eig[0], 1, eigTol) {
		t.Fatalf("λ1 = %v", eig[0])
	}
	// (q-1)/2 eigenvalues at plus, (q-1)/2 at minus.
	for i := 1; i <= (q-1)/2; i++ {
		if !approxEq(eig[i], plus, eigTol) {
			t.Fatalf("λ%d = %.12f, want %.12f", i, eig[i], plus)
		}
	}
	for i := (q+1)/2 + 1; i < q; i++ {
		if !approxEq(eig[i], minus, eigTol) {
			t.Fatalf("λ%d = %.12f, want %.12f", i, eig[i], minus)
		}
	}
}

func TestDenseSpectrumTorus(t *testing.T) {
	// Torus(a,b) eigenvalues: (cos(2πi/a) + cos(2πj/b))/2.
	a, b := 4, 5
	g := mustG(t)(graph.Torus(a, b))
	eig, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	assertExtremes(t, g, eig)
	var want []float64
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			want = append(want, (math.Cos(2*math.Pi*float64(i)/float64(a))+math.Cos(2*math.Pi*float64(j)/float64(b)))/2)
		}
	}
	sortDesc(want)
	assertSpectrum(t, eig, want, eigTol)
}

func TestSpectrumBasicInvariants(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 5; trial++ {
		g, err := graph.RandomRegularConnected(60, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		assertExtremes(t, g, eig)
		// λ1 = 1; all eigenvalues in [-1, 1]; trace = 0 (no self-loops).
		if !approxEq(eig[0], 1, eigTol) {
			t.Fatalf("λ1 = %v, want 1", eig[0])
		}
		trace := 0.0
		for _, l := range eig {
			if l < -1-eigTol || l > 1+eigTol {
				t.Fatalf("eigenvalue %v outside [-1,1]", l)
			}
			trace += l
		}
		if !approxEq(trace, 0, 1e-7) {
			t.Fatalf("trace = %v, want 0", trace)
		}
		// trace(N²) = Σλ² = n/r for r-regular simple graphs.
		sumSq := 0.0
		for _, l := range eig {
			sumSq += l * l
		}
		if want := float64(g.N()) / 4.0; !approxEq(sumSq, want, 1e-7) {
			t.Fatalf("Σλ² = %v, want %v", sumSq, want)
		}
	}
}

// TestDisconnectedLambda2IsOne: on a disconnected graph the deflated
// operator keeps the eigenvalue 1 of a second component, so λ_2 = 1. On
// the union of two random 4-regular graphs Lanczos reaches it long before
// the Krylov space is exhausted, and then repeats it.
func TestDisconnectedLambda2IsOne(t *testing.T) {
	r := rng.New(41)
	a := mustG(t)(graph.RandomRegularConnected(150, 4, r))
	b := mustG(t)(graph.RandomRegularConnected(200, 4, r))
	var union [][2]int32
	a.Edges(func(u, v int32) bool { union = append(union, [2]int32{u, v}); return true })
	b.Edges(func(u, v int32) bool { union = append(union, [2]int32{u + 150, v + 150}); return true })
	for _, g := range []*graph.Graph{
		mustG(t)(graph.FromEdges("2tri", 6, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})),
		mustG(t)(graph.FromEdges("two-rand-reg", 350, union)),
	} {
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(eig[1], 1, eigTol) {
			t.Fatalf("%s: disconnected λ2 = %v, want 1", g.Name(), eig[1])
		}
		assertExtremes(t, g, eig)
	}
}

func TestExtremesMatchesDense(t *testing.T) {
	// Lanczos on mid-size graphs must match the dense solver's extremes
	// to roundoff.
	r := rng.New(17)
	graphs := []*graph.Graph{
		mustG(t)(graph.RandomRegularConnected(200, 6, r)),
		mustG(t)(graph.Torus(10, 12)),
		mustG(t)(graph.Circulant(150, []int{1, 2, 3})),
		mustG(t)(graph.Hypercube(7)),
		mustG(t)(graph.CompleteBipartite(40, 40)),
	}
	for _, g := range graphs {
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatalf("%s: dense: %v", g.Name(), err)
		}
		assertExtremes(t, g, eig)
	}
}

// TestExtremesSmallGraphDensePath: small graphs no longer take a dense
// branch inside extremes; on Petersen, Lanczos meets an invariant subspace
// after two steps and its Ritz values are the exact extremes.
func TestExtremesSmallGraphDensePath(t *testing.T) {
	g := mustG(t)(graph.Petersen())
	l2, ln, _, err := extremes(g)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(l2, 1.0/3, eigTol) || !approxEq(ln, -2.0/3, eigTol) {
		t.Fatalf("Petersen extremes = (%v, %v), want (1/3, -2/3)", l2, ln)
	}
}

func TestExtremesSingleVertex(t *testing.T) {
	g, err := graph.FromEdges("k1", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// K1's vertex is isolated, but extremes returns the documented n == 1
	// convention before it builds the operator.
	if l2, ln, _, err := extremes(g); err != nil || l2 != 0 || ln != 0 {
		t.Fatalf("extremes(K1) = (%v, %v, %v), want (0, 0, nil)", l2, ln, err)
	}
}

// TestLambdaMaxKnown runs both λ entry points, LambdaMax and Analyze,
// on graphs with closed-form spectra: small graphs on which Lanczos meets
// an invariant subspace, two odd cycles, and E7's quick-scale tori and
// circulants, whose clustered top eigenvalues a stop on successive
// estimates or a fixed step cap leaves up to 1e-4 short.
func TestLambdaMaxKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want []float64 // the transition spectrum, descending
	}{
		{"petersen", mustG(t)(graph.Petersen()), repeated(1, 1, 1.0/3, 5, -2.0/3, 4)},
		{"K10", mustG(t)(graph.Complete(10)), repeated(1, 1, -1.0/9, 9)},
		{"C12", mustG(t)(graph.Cycle(12)), circulantSpectrum(12, []int{1})}, // bipartite: λn = -1
		{"C15", mustG(t)(graph.Cycle(15)), circulantSpectrum(15, []int{1})},
		{"K55", mustG(t)(graph.CompleteBipartite(5, 5)), repeated(1, 1, 0, 8, -1, 1)},
		{"Q4", mustG(t)(graph.Hypercube(4)), hypercubeSpectrum(4)},
		{"C101", mustG(t)(graph.Cycle(101)), circulantSpectrum(101, []int{1})},
		{"C1001", mustG(t)(graph.Cycle(1001)), circulantSpectrum(1001, []int{1})},
		{"torus-63x65", mustG(t)(graph.Torus(63, 65)), torusSpectrum(63, 65)},
		{"torus-127x31", mustG(t)(graph.Torus(127, 31)), torusSpectrum(127, 31)},
		{"torus-255x15", mustG(t)(graph.Torus(255, 15)), torusSpectrum(255, 15)},
		{"torus-511x7", mustG(t)(graph.Torus(511, 7)), torusSpectrum(511, 7)},
		{"torus-1023x3", mustG(t)(graph.Torus(1023, 3)), torusSpectrum(1023, 3)},
		{"circulant-1024-2", mustG(t)(graph.Circulant(1024, consecutive(2))), circulantSpectrum(1024, consecutive(2))},
		{"circulant-1024-4", mustG(t)(graph.Circulant(1024, consecutive(4))), circulantSpectrum(1024, consecutive(4))},
		{"circulant-1024-8", mustG(t)(graph.Circulant(1024, consecutive(8))), circulantSpectrum(1024, consecutive(8))},
		{"circulant-1024-16", mustG(t)(graph.Circulant(1024, consecutive(16))), circulantSpectrum(1024, consecutive(16))},
		{"circulant-1024-32", mustG(t)(graph.Circulant(1024, consecutive(32))), circulantSpectrum(1024, consecutive(32))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l2, ln := tc.want[1], tc.want[len(tc.want)-1]
			lmax := math.Max(math.Abs(l2), math.Abs(ln))
			got, err := LambdaMax(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(got, lmax, kernelTol) {
				t.Errorf("LambdaMax = %.17g, want %.17g (off by %.2g)", got, lmax, got-lmax)
			}
			rep, err := Analyze(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(rep.Lambda2, l2, kernelTol) || !approxEq(rep.LambdaN, ln, kernelTol) ||
				!approxEq(rep.LambdaMax, lmax, kernelTol) {
				t.Errorf("Analyze (λ2, λn, λmax) = (%.17g, %.17g, %.17g), want (%.17g, %.17g, %.17g)",
					rep.Lambda2, rep.LambdaN, rep.LambdaMax, l2, ln, lmax)
			}
		})
	}
}

func TestLambdaMaxMatchesDenseOnRandom(t *testing.T) {
	r := rng.New(77)
	for _, deg := range []int{3, 5, 8} {
		g, err := graph.RandomRegularConnected(120, deg, r)
		if err != nil {
			t.Fatal(err)
		}
		eig, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		assertExtremes(t, g, eig)
		want := math.Max(math.Abs(eig[1]), math.Abs(eig[len(eig)-1]))
		got, err := LambdaMax(g)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(got, want, kernelTol) {
			t.Fatalf("deg %d: λmax power %.10f vs dense %.10f", deg, got, want)
		}
	}
}

func TestRandomRegularNearRamanujan(t *testing.T) {
	// Random r-regular graphs satisfy λ ≤ (2√(r-1) + o(1))/r w.h.p.
	// (Friedman's theorem). Allow 20% slack for finite n.
	r := rng.New(5)
	for _, deg := range []int{4, 8, 16} {
		g, err := graph.RandomRegularConnected(400, deg, r)
		if err != nil {
			t.Fatal(err)
		}
		lmax, err := LambdaMax(g)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * math.Sqrt(float64(deg-1)) / float64(deg) * 1.2
		if lmax > bound {
			t.Errorf("deg %d: λmax = %.4f exceeds Ramanujan-ish bound %.4f", deg, lmax, bound)
		}
		if lmax <= 0 {
			t.Errorf("deg %d: λmax = %v not positive", deg, lmax)
		}
	}
}

func TestOperatorErrors(t *testing.T) {
	if _, err := newOperator(&graph.Graph{}); err == nil {
		t.Fatal("empty graph should fail")
	}
	g, err := graph.FromEdges("iso", 3, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newOperator(g); err == nil {
		t.Fatal("isolated vertex should fail")
	}
	if _, err := DenseSpectrum(g); err == nil {
		t.Fatal("DenseSpectrum should propagate isolated-vertex error")
	}
}

func TestDenseLimit(t *testing.T) {
	r := rng.New(3)
	g, err := graph.RandomRegular(denseLimit+2, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DenseSpectrum(g); err == nil {
		t.Fatal("dense solver should refuse n > denseLimit")
	}
}

func TestAnalyzePetersen(t *testing.T) {
	g := mustG(t)(graph.Petersen())
	rep, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 10 || rep.M != 15 || rep.Degree != 3 {
		t.Fatalf("report basics: %+v", rep)
	}
	if !approxEq(rep.Lambda2, 1.0/3, eigTol) || !approxEq(rep.LambdaN, -2.0/3, eigTol) {
		t.Fatalf("extremes: %+v", rep)
	}
	if !approxEq(rep.LambdaMax, 2.0/3, eigTol) || !approxEq(rep.Gap, 1.0/3, eigTol) {
		t.Fatalf("gap: %+v", rep)
	}
	if !rep.Connected || rep.Bipartite {
		t.Fatalf("flags: %+v", rep)
	}
	// T = log(10)/(1/3)³ = 27·log 10.
	if want := 27 * math.Log(10); !approxEq(rep.TheoremT(), want, 1e-6) {
		t.Fatalf("TheoremT = %v, want %v", rep.TheoremT(), want)
	}
	if !rep.SatisfiesGapCondition(0.5) {
		t.Fatal("Petersen should satisfy modest gap condition")
	}
	// Cheeger sandwich must be ordered.
	if rep.CheegerLo > rep.CheegerHi {
		t.Fatalf("Cheeger bounds inverted: %+v", rep)
	}
}

func TestAnalyzeBipartiteFlags(t *testing.T) {
	g := mustG(t)(graph.Hypercube(5))
	rep, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Bipartite {
		t.Fatal("hypercube should be flagged bipartite")
	}
	if !approxEq(rep.LambdaN, -1, 1e-7) || !approxEq(rep.LambdaMax, 1, 1e-7) {
		t.Fatalf("bipartite extremes: %+v", rep)
	}
	if !math.IsInf(rep.MixingTimeUB, 1) {
		t.Fatalf("MixingTimeUB should be +Inf at gap 0, got %v", rep.MixingTimeUB)
	}
	if !math.IsInf(rep.TheoremT(), 1) {
		t.Fatal("TheoremT should be +Inf at gap 0")
	}
}

func TestAnalyzeLargeUsesLanczos(t *testing.T) {
	r := rng.New(11)
	g, err := graph.RandomRegularConnected(600, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LambdaMax <= 0 || rep.LambdaMax >= 1 {
		t.Fatalf("λmax = %v out of (0,1)", rep.LambdaMax)
	}
	// λ ≈ 2√7/8 ≈ 0.66 for random 8-regular graphs, so the gap is ≈ 0.34.
	if rep.Gap <= 0.25 || rep.Gap >= 0.45 {
		t.Fatalf("8-regular expander gap = %v, expected ≈ 0.34", rep.Gap)
	}
}

func TestTridiagEigenvaluesKnown(t *testing.T) {
	// 2x2: [[2,1],[1,2]] has eigenvalues 1 and 3.
	d := []float64{2, 2}
	e := []float64{1, 0}
	if err := tridiagEigenvalues(d, e); err != nil {
		t.Fatal(err)
	}
	sortDesc(d)
	if !approxEq(d[0], 3, eigTol) || !approxEq(d[1], 1, eigTol) {
		t.Fatalf("2x2 eigenvalues = %v, want [3 1]", d)
	}
	// Free Laplacian-like chain: tridiag(diag=0, off=1) of size n has
	// eigenvalues 2cos(kπ/(n+1)).
	n := 7
	d = make([]float64, n)
	e = make([]float64, n)
	for i := range e {
		e[i] = 1
	}
	if err := tridiagEigenvalues(d, e); err != nil {
		t.Fatal(err)
	}
	sortDesc(d)
	for k := 1; k <= n; k++ {
		want := 2 * math.Cos(float64(k)*math.Pi/float64(n+1))
		if !approxEq(d[k-1], want, eigTol) {
			t.Fatalf("chain eigenvalue %d = %.12f, want %.12f", k, d[k-1], want)
		}
	}
	// Empty and singleton inputs are fine.
	if err := tridiagEigenvalues(nil, nil); err != nil {
		t.Fatal(err)
	}
	single := []float64{5}
	if err := tridiagEigenvalues(single, []float64{0}); err != nil || single[0] != 5 {
		t.Fatalf("singleton: %v %v", single, err)
	}
	// Workspace too short must error.
	if err := tridiagEigenvalues([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("short workspace should fail")
	}
}

func sortDesc(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j-1] < x[j]; j-- {
			x[j-1], x[j] = x[j], x[j-1]
		}
	}
}
