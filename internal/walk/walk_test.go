package walk

import (
	"math"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

func mk(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStationaryDistribution(t *testing.T) {
	g := mk(t)(graph.Star(5))
	pi, err := StationaryDistribution(g)
	if err != nil {
		t.Fatal(err)
	}
	// Star K_{1,4}: centre has degree 4 of 8 total: π = 1/2; leaves 1/8.
	if !approx(pi[0], 0.5, 1e-12) {
		t.Fatalf("centre π = %v", pi[0])
	}
	for v := 1; v < 5; v++ {
		if !approx(pi[v], 0.125, 1e-12) {
			t.Fatalf("leaf π = %v", pi[v])
		}
	}
	sum := 0.0
	for _, p := range pi {
		sum += p
	}
	if !approx(sum, 1, 1e-12) {
		t.Fatalf("π sums to %v", sum)
	}
	if _, err := StationaryDistribution(&graph.Graph{}); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestHittingTimesCompleteGraph(t *testing.T) {
	// K_n: expected hitting time between distinct vertices is exactly n-1.
	for _, n := range []int{3, 5, 10, 25} {
		g := mk(t)(graph.Complete(n))
		h, err := ExpectedHittingTimes(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h[0] != 0 {
			t.Fatalf("h[target] = %v", h[0])
		}
		for v := 1; v < n; v++ {
			if !approx(h[v], float64(n-1), 1e-8) {
				t.Fatalf("K%d: h[%d] = %v, want %d", n, v, h[v], n-1)
			}
		}
	}
}

func TestHittingTimesCycle(t *testing.T) {
	// C_n: h(u, v) = k(n-k) where k is the cyclic distance.
	n := 12
	g := mk(t)(graph.Cycle(n))
	h, err := ExpectedHittingTimes(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < n; v++ {
		k := v
		if n-v < k {
			k = n - v
		}
		want := float64(k * (n - k))
		if !approx(h[v], want, 1e-8) {
			t.Fatalf("C%d: h[%d] = %v, want %v", n, v, h[v], want)
		}
	}
}

func TestHittingTimesPath(t *testing.T) {
	// Path P_n with target endpoint 0 and a reflecting right endpoint:
	// the difference recurrence d[u+1] = d[u] - 2 with d[n-1] = 1 gives
	// h(u, 0) = u·(2(n-1) - u); the far endpoint hits at (n-1)².
	n := 9
	g := mk(t)(graph.Path(n))
	h, err := ExpectedHittingTimes(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		want := float64(u * (2*(n-1) - u))
		if !approx(h[u], want, 1e-8) {
			t.Fatalf("P%d: h[%d] = %v, want %v", n, u, h[u], want)
		}
	}
	if !approx(h[n-1], float64((n-1)*(n-1)), 1e-8) {
		t.Fatalf("endpoint hitting %v, want %d", h[n-1], (n-1)*(n-1))
	}
}

func TestHittingTimesValidation(t *testing.T) {
	g := mk(t)(graph.Complete(4))
	if _, err := ExpectedHittingTimes(g, -1); err == nil {
		t.Fatal("bad target should fail")
	}
	disc := mk(t)(graph.FromEdges("2e", 4, [][2]int32{{0, 1}, {2, 3}}))
	if _, err := ExpectedHittingTimes(disc, 0); err == nil {
		t.Fatal("disconnected graph should fail")
	}
	iso := mk(t)(graph.FromEdges("iso", 3, [][2]int32{{0, 1}}))
	if _, err := ExpectedHittingTimes(iso, 0); err == nil {
		t.Fatal("isolated vertex should fail")
	}
}

func TestHittingTimesMatchSimulation(t *testing.T) {
	// Cross-validate the exact solver against the COBRA k=1 simulator
	// (which is a simple random walk) on the Petersen graph.
	g := mk(t)(graph.Petersen())
	h, err := ExpectedHittingTimes(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := process.New(process.Cobra, g, process.Config{Branching: process.Branching{K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	visited := c.(process.Reacher)
	r := rng.New(3)
	const trials = 3000
	const start = 7
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		if err := c.Reset(start); err != nil {
			t.Fatal(err)
		}
		for !visited.Reached(0) {
			if c.Round() >= 1<<20 {
				t.Fatal("capped hit")
			}
			c.Step(r)
		}
		hit := c.Round()
		sum += float64(hit)
		sumSq += float64(hit) * float64(hit)
	}
	mean := sum / trials
	se := math.Sqrt((sumSq/trials - mean*mean) / trials)
	if d := math.Abs(mean - h[start]); d > 5*se {
		t.Fatalf("simulated hitting %.3f vs exact %.3f (%.1f SE)", mean, h[start], d/se)
	}
}

func TestPairwiseHittingTimes(t *testing.T) {
	g := mk(t)(graph.Cycle(8))
	hit, err := PairwiseHittingTimes(g)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric for vertex-transitive graphs; diagonal zero.
	for u := 0; u < 8; u++ {
		if hit[u][u] != 0 {
			t.Fatalf("diagonal not zero: %v", hit[u][u])
		}
		for v := 0; v < 8; v++ {
			if !approx(hit[u][v], hit[v][u], 1e-8) {
				t.Fatalf("cycle hitting asymmetric: %v vs %v", hit[u][v], hit[v][u])
			}
		}
	}
	big := mk(t)(graph.Cycle(401))
	if _, err := PairwiseHittingTimes(big); err == nil {
		t.Fatal("oversized pairwise solve should fail")
	}
}

func TestMatthewsBoundsSandwichSimulatedCover(t *testing.T) {
	// The Matthews bounds must sandwich the empirical mean cover time of a
	// single random walk. Check on C16, K12 and Petersen.
	cases := []*graph.Graph{
		mk(t)(graph.Cycle(16)),
		mk(t)(graph.Complete(12)),
		mk(t)(graph.Petersen()),
	}
	r := rng.New(5)
	for _, g := range cases {
		hit, err := PairwiseHittingTimes(g)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := MatthewsBounds(hit)
		if err != nil {
			t.Fatal(err)
		}
		if lo > hi {
			t.Fatalf("%s: bounds inverted: %v > %v", g.Name(), lo, hi)
		}
		w, err := process.New(process.KWalk, g, process.Config{Branching: process.Branching{K: 1}})
		if err != nil {
			t.Fatal(err)
		}
		const trials = 400
		sum := 0.0
		for i := 0; i < trials; i++ {
			res, err := process.Run(w, r, 0, 0)
			if err != nil || !res.Done {
				t.Fatalf("%s: walk failed: %v", g.Name(), err)
			}
			sum += float64(res.Rounds)
		}
		mean := sum / trials
		// Allow 5% slack for Monte-Carlo error on the boundary.
		if mean < lo*0.95 || mean > hi*1.05 {
			t.Fatalf("%s: simulated cover %.1f outside Matthews [%.1f, %.1f]", g.Name(), mean, lo, hi)
		}
	}
}

func TestMatthewsBoundsValidation(t *testing.T) {
	if _, _, err := MatthewsBounds(nil); err == nil {
		t.Fatal("empty matrix should fail")
	}
	if _, _, err := MatthewsBounds([][]float64{{0}, {0}}); err == nil {
		t.Fatal("ragged matrix should fail")
	}
}

// TestCobraK1MeanCoverMatchesWalkTheory ties the ends together: COBRA with
// k = 1 on the cycle must exhibit the classical Θ(n²) cover time, here
// against the exact expectation n(n-1)/2.
func TestCobraK1MeanCoverMatchesWalkTheory(t *testing.T) {
	n := 16
	g := mk(t)(graph.Cycle(n))
	c, err := process.New(process.Cobra, g, process.Config{Branching: process.Branching{K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	const trials = 600
	sum := 0.0
	for i := 0; i < trials; i++ {
		res, err := process.Run(c, r, 0, 0)
		if err != nil || !res.Done {
			t.Fatal("run failed")
		}
		sum += float64(res.Rounds)
	}
	mean := sum / trials
	want := float64(n*(n-1)) / 2
	if math.Abs(mean-want)/want > 0.1 {
		t.Fatalf("COBRA k=1 cycle cover mean %.1f, theory %.1f", mean, want)
	}
}
