package cobrawalk_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"cobrawalk"
)

func TestFacadeEndToEnd(t *testing.T) {
	r := cobrawalk.NewRand(1)
	g, err := cobrawalk.RandomRegularConnected(256, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cobrawalk.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gap <= 0 || rep.Gap >= 1 {
		t.Fatalf("gap = %v", rep.Gap)
	}

	proc, err := cobrawalk.NewProcess("cobra", g, cobrawalk.ProcessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cobrawalk.RunProcess(proc, r, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Rounds < int(math.Log2(256)) {
		t.Fatalf("cover result: %+v", res)
	}

	col := cobrawalk.NewMetricsCollector(g.N())
	epi, err := cobrawalk.NewProcess("bips", g, cobrawalk.ProcessConfig{Observer: col.Observe})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := cobrawalk.RunProcessCollect(context.Background(), epi, col, r, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bres.Done {
		t.Fatalf("infection result: %+v", bres)
	}
	phases := cobrawalk.DetectPhases(col.Active(), g.N(), 16)
	if phases.Full != bres.Rounds {
		t.Fatalf("phases: %+v for a %d-round run", phases, bres.Rounds)
	}
}

func TestFacadeDuality(t *testing.T) {
	g, err := cobrawalk.Petersen()
	if err != nil {
		t.Fatal(err)
	}
	ed, err := cobrawalk.ComputeExactDuality(g, 0, 5, cobrawalk.DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	if ed.MaxAbsError() > 1e-10 {
		t.Fatalf("duality error %v", ed.MaxAbsError())
	}
	if cobrawalk.MaxExactVertices < 10 {
		t.Fatal("exact solver limit regressed below Petersen size")
	}
}

func TestFacadeGrowthBound(t *testing.T) {
	g, err := cobrawalk.Complete(16)
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := cobrawalk.LambdaMax(g)
	if err != nil {
		t.Fatal(err)
	}
	set := []int32{0, 1, 2}
	exact, err := cobrawalk.ExactExpectedGrowth(g, 0, set, cobrawalk.DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	bound := cobrawalk.Lemma1Bound(3, 16, lambda, cobrawalk.DefaultBranching)
	if exact < bound-1e-9 {
		t.Fatalf("Lemma 1 violated via facade: %v < %v", exact, bound)
	}
}

// TestFacadeBaselines drives the baseline protocols the paper positions
// COBRA against through the process registry.
func TestFacadeBaselines(t *testing.T) {
	g, err := cobrawalk.Complete(32)
	if err != nil {
		t.Fatal(err)
	}
	r := cobrawalk.NewRand(2)
	for _, tc := range []struct {
		name   string
		cfg    cobrawalk.ProcessConfig
		rounds int // exact round count, or 0 for any
	}{
		{"push", cobrawalk.ProcessConfig{}, 0},
		{"flood", cobrawalk.ProcessConfig{}, 1},
		{"kwalk", cobrawalk.ProcessConfig{Branching: cobrawalk.Branching{K: 4}}, 0},
	} {
		p, err := cobrawalk.NewProcess(tc.name, g, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cobrawalk.RunProcess(p, r, 0, 0)
		if err != nil || !res.Done || (tc.rounds > 0 && res.Rounds != tc.rounds) {
			t.Fatalf("%s: %+v, %v", tc.name, res, err)
		}
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g, err := cobrawalk.Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cobrawalk.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := cobrawalk.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 9 || h.M() != 9 {
		t.Fatalf("round trip: %v", h)
	}
}

func TestFacadeSpectrum(t *testing.T) {
	g, err := cobrawalk.Petersen()
	if err != nil {
		t.Fatal(err)
	}
	eig, err := cobrawalk.Spectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(eig) != 10 || math.Abs(eig[0]-1) > 1e-9 {
		t.Fatalf("spectrum: %v", eig)
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := cobrawalk.NewBuilder(3, 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g, err := b.Build("triangle")
	if err != nil || g.M() != 3 {
		t.Fatalf("builder: %v, %v", g, err)
	}
}

func TestFacadeWalkTheory(t *testing.T) {
	g, err := cobrawalk.Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cobrawalk.ExpectedHittingTimes(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h[5]-9) > 1e-8 {
		t.Fatalf("K10 hitting time = %v, want 9", h[5])
	}
	hit, err := cobrawalk.PairwiseHittingTimes(g)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := cobrawalk.MatthewsBounds(hit)
	if err != nil || lo > hi {
		t.Fatalf("Matthews bounds (%v, %v): %v", lo, hi, err)
	}
	pi, err := cobrawalk.StationaryDistribution(g)
	if err != nil || math.Abs(pi[0]-0.1) > 1e-12 {
		t.Fatalf("stationary: %v, %v", pi, err)
	}
	gini, err := cobrawalk.Gini([]float64{1, 1, 1})
	if err != nil || gini != 0 {
		t.Fatalf("Gini: %v, %v", gini, err)
	}
}

func TestFacadeStreams(t *testing.T) {
	a := cobrawalk.NewRandStream(9, 0)
	b := cobrawalk.NewRandStream(9, 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("streams look identical")
	}
}

// ExampleNewProcess demonstrates the basic cover-time workflow.
func ExampleNewProcess() {
	g, err := cobrawalk.Complete(64)
	if err != nil {
		panic(err)
	}
	proc, err := cobrawalk.NewProcess("cobra", g, cobrawalk.ProcessConfig{}) // branching k = 2
	if err != nil {
		panic(err)
	}
	res, err := cobrawalk.RunProcess(proc, cobrawalk.NewRand(1), 0, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("covered:", res.Done, "in O(log n) rounds:", res.Rounds <= 30)
	// Output: covered: true in O(log n) rounds: true
}

// ExampleComputeExactDuality verifies Theorem 4 on a small graph.
func ExampleComputeExactDuality() {
	g, err := cobrawalk.Petersen()
	if err != nil {
		panic(err)
	}
	ed, err := cobrawalk.ComputeExactDuality(g, 0, 6, cobrawalk.DefaultBranching)
	if err != nil {
		panic(err)
	}
	fmt.Println("Theorem 4 max error below 1e-10:", ed.MaxAbsError() < 1e-10)
	// Output: Theorem 4 max error below 1e-10: true
}

// ExampleRunProcessCollect demonstrates the dual epidemic process with
// its |A_t| trajectory recorded by a metrics collector.
func ExampleRunProcessCollect() {
	g, err := cobrawalk.Complete(64)
	if err != nil {
		panic(err)
	}
	col := cobrawalk.NewMetricsCollector(g.N())
	epi, err := cobrawalk.NewProcess("bips", g, cobrawalk.ProcessConfig{Observer: col.Observe})
	if err != nil {
		panic(err)
	}
	res, err := cobrawalk.RunProcessCollect(context.Background(), epi, col, cobrawalk.NewRand(1), 0, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("fully infected:", res.Done, "source in A_0:", col.Active()[0] == 1)
	// Output: fully infected: true source in A_0: true
}

// TestFacadeStreamingStats exercises the streaming aggregation exports:
// a Digest fed a sample must agree with the sample's exact mean, extremes
// and p95 (sorted, interpolated), and quantile sketches must merge
// exactly.
func TestFacadeStreamingStats(t *testing.T) {
	r := cobrawalk.NewRand(5)
	xs := make([]float64, 5000)
	d := cobrawalk.NewDigest()
	var sum float64
	for i := range xs {
		xs[i] = 10 + 100*r.Float64()
		d.Add(xs[i])
		sum += xs[i]
	}
	mean := sum / float64(len(xs))
	sort.Float64s(xs)
	pos := 0.95 * float64(len(xs)-1)
	lo := int(pos)
	p95 := xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != len(xs) || s.Min != xs[0] || s.Max != xs[len(xs)-1] {
		t.Fatalf("digest %+v, exact N %d range [%v, %v]", s, len(xs), xs[0], xs[len(xs)-1])
	}
	if math.Abs(s.Mean-mean) > 1e-9*mean {
		t.Fatalf("digest mean %v, exact %v", s.Mean, mean)
	}
	if math.Abs(s.P95-p95) > 0.03*p95 {
		t.Fatalf("digest p95 %v, exact %v", s.P95, p95)
	}

	sk, err := cobrawalk.NewQuantileSketch(0.02)
	if err != nil {
		t.Fatal(err)
	}
	sk.Add(1)
	sk.Add(2)
	if sk.N() != 2 {
		t.Fatalf("sketch N = %d", sk.N())
	}
	h, err := cobrawalk.NewHistogram(0, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(3)
	h.AddN(7, 2)
	if h.Total() != 3 {
		t.Fatalf("hist total = %d", h.Total())
	}
}

func TestFacadeSweep(t *testing.T) {
	spec := cobrawalk.SweepSpec{
		Families:   []string{"complete"},
		Sizes:      []int{16},
		Processes:  []string{"cobra", "push"},
		Branchings: []cobrawalk.Branching{{K: 2}},
		Trials:     4,
		Seed:       3,
	}
	rep, err := cobrawalk.RunSweep(context.Background(), spec, cobrawalk.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	for _, res := range rep.Results {
		s := res.Metric(cobrawalk.SweepMetricRounds)
		if s.N != 4 || s.Mean <= 0 {
			t.Fatalf("point %s: %+v", res.ID, s)
		}
	}
	if len(cobrawalk.SweepFamilies()) == 0 || len(cobrawalk.SweepProcesses()) == 0 || len(cobrawalk.SweepMetrics()) == 0 {
		t.Fatal("empty sweep registries")
	}
	brs, err := cobrawalk.ParseBranchings("1+0.25")
	if err != nil || len(brs) != 1 || brs[0].Rho != 0.25 {
		t.Fatalf("ParseBranchings: %v, %v", brs, err)
	}
	ms, err := cobrawalk.ParseMetrics("rounds,coverage")
	if err != nil || len(ms) != 2 {
		t.Fatalf("ParseMetrics: %v, %v", ms, err)
	}
}

// TestFacadeMetricsCollector drives a collected run through the facade
// exports end to end: collector, trajectory digest, quantile bands.
func TestFacadeMetricsCollector(t *testing.T) {
	g, err := cobrawalk.RandomRegularConnected(64, 4, cobrawalk.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	col := cobrawalk.NewMetricsCollector(g.N())
	p, err := cobrawalk.NewProcess("bips", g, cobrawalk.ProcessConfig{Observer: col.Observe})
	if err != nil {
		t.Fatal(err)
	}
	td := cobrawalk.NewTrajectoryDigest()
	r := cobrawalk.NewRand(7)
	for i := 0; i < 5; i++ {
		res, err := cobrawalk.RunProcessCollect(context.Background(), p, col, r, 0, 0)
		if err != nil || !res.Done {
			t.Fatalf("collected run: %+v %v", res, err)
		}
		td.AddTrial(col.Active())
	}
	s, err := td.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if td.N() != 5 || len(s.Rounds) < 2 || s.Mean[0] != 1 {
		t.Fatalf("degenerate trajectory summary %+v", s)
	}
	if s.P50[0] < 0.97 || s.P50[0] > 1.03 { // sketch quantiles are 1%-accurate
		t.Fatalf("start-column p50 = %v, want ≈ 1", s.P50[0])
	}
}
