package core

import (
	"math"
	"testing"
	"testing/quick"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// TestExactDualityRelabelInvariance: both sides of Theorem 4 are graph
// invariants, so relabelling the graph must permute the marginal series
// without changing the values.
func TestExactDualityRelabelInvariance(t *testing.T) {
	g := mustGraph(t)(graph.PrismGraph())
	r := rng.New(4)
	permInts := r.Perm(g.N())
	perm := make([]int32, g.N())
	for i, p := range permInts {
		perm[i] = int32(p)
	}
	h, err := graph.Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	const v, u = 0, 3
	const horizon = 6
	edG, err := ComputeExactDuality(g, v, horizon, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	edH, err := ComputeExactDuality(h, perm[v], horizon, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	sg := edG.MarginalSurvival(u)
	sh := edH.MarginalSurvival(perm[u])
	for tt := range sg {
		if math.Abs(sg[tt]-sh[tt]) > 1e-10 {
			t.Fatalf("relabel changed survival at t=%d: %v vs %v", tt, sg[tt], sh[tt])
		}
	}
}

// TestExactDualityRandomGraphsQuick: Theorem 4 must hold on arbitrary
// connected graphs without isolated vertices — fuzz over random graphs and
// branching factors.
func TestExactDualityRandomGraphsQuick(t *testing.T) {
	f := func(seed uint32, kRaw, rhoRaw uint8) bool {
		r := rng.New(uint64(seed))
		// Draw a random graph on 5-8 vertices with no isolated vertex.
		n := 5 + r.Intn(4)
		var g *graph.Graph
		for tries := 0; ; tries++ {
			var err error
			g, err = graph.ErdosRenyi(n, 0.45, r)
			if err != nil {
				return false
			}
			if g.MinDegree() > 0 {
				break
			}
			if tries > 100 {
				return false
			}
		}
		branch := Branching{K: 1 + int(kRaw%3), Rho: float64(rhoRaw%10) / 10}
		ed, err := ComputeExactDuality(g, int32(r.Intn(n)), 5, branch)
		if err != nil {
			return false
		}
		return ed.MaxAbsError() < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverTimeRelabelInvariance: the cover-time distribution is invariant
// under relabelling; compare means statistically.
func TestCoverTimeRelabelInvariance(t *testing.T) {
	r := rng.New(5)
	g, err := graph.RandomRegularConnected(128, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	permInts := r.Perm(g.N())
	perm := make([]int32, g.N())
	for i, p := range permInts {
		perm[i] = int32(p)
	}
	h, err := graph.Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	meanCover := func(gr *graph.Graph, start int32, seed uint64) (mean, se float64) {
		c, err := process.New(process.Cobra, gr, process.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rr := rng.New(seed)
		const trials = 300
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			res, err := process.Run(c, rr, 0, start)
			if err != nil || !res.Done {
				t.Fatalf("run failed: %v", err)
			}
			x := float64(res.Rounds)
			sum += x
			sumSq += x * x
		}
		mean = sum / trials
		se = math.Sqrt((sumSq/trials - mean*mean) / trials)
		return mean, se
	}
	m1, se1 := meanCover(g, 0, 11)
	m2, se2 := meanCover(h, perm[0], 12)
	if d := math.Abs(m1 - m2); d > 5*math.Hypot(se1, se2) {
		t.Fatalf("relabel shifted mean cover: %.3f vs %.3f", m1, m2)
	}
}

// TestBipsStochasticMonotonicity: adding seeds to A_0 cannot slow the
// epidemic — infection times from a larger seed set are stochastically
// dominated. Compare means.
func TestBipsStochasticMonotonicity(t *testing.T) {
	r := rng.New(6)
	g, err := graph.RandomRegularConnected(256, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	meanInfec := func(extra []int32, seed uint64) (mean, se float64) {
		b, err := process.New(process.BIPS, g, process.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rr := rng.New(seed)
		const trials = 200
		starts := append([]int32{0}, extra...)
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			res, err := process.Run(b, rr, 1<<16, starts...)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatal("uninfected run")
			}
			x := float64(res.Rounds)
			sum += x
			sumSq += x * x
		}
		mean = sum / trials
		se = math.Sqrt((sumSq/trials - mean*mean) / trials)
		return mean, se
	}
	mSmall, seSmall := meanInfec(nil, 21)
	big := make([]int32, 0, 64)
	for v := int32(1); v <= 64; v++ {
		big = append(big, v)
	}
	mBig, seBig := meanInfec(big, 22)
	if mBig > mSmall+3*math.Hypot(seSmall, seBig) {
		t.Fatalf("65 seeds slower than 1 seed: %.3f vs %.3f", mBig, mSmall)
	}
	if mBig >= mSmall {
		t.Fatalf("no speedup from 65 seeds: %.3f vs %.3f", mBig, mSmall)
	}
}
