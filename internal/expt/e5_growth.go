package expt

import (
	"context"
	"io"
	"math"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/spectral"
)

// e5Experiment reproduces Lemma 1 and Corollary 1: the one-step expected
// growth of the BIPS infected set satisfies
//
//	E(|A_{t+1}| | A_t = A) >= |A|·(1 + c·(1-λ²)·(1-|A|/n)),
//
// with c = 1 for k = 2 and c = ρ for branching 1+ρ. For random infected
// sets across a grid of sizes the exact conditional expectation (computed
// in closed form, no sampling) is compared with the spectral bound; the
// margin column is exact/bound - 1, which the lemma requires to be >= 0.
// A third estimate cross-checks the closed form against the simulator
// itself: the registry bips process is Reset to the same set and stepped
// once, and the sampled mean |A_1| must track the exact expectation —
// tying the lemma's algebra to the process layer every other experiment
// runs on.
func e5Experiment() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "One-step growth bound for BIPS (Lemma 1, Corollary 1)",
		Claim: "Lemma 1: E(|A_{t+1}| | A_t=A) ≥ |A|(1+(1-λ²)(1-|A|/n)); Corollary 1 scales the gain by ρ.",
		Run:   runE5,
	}
}

// sampledGrowth estimates E(|A_1| | A_0 = set) by driving the registry
// bips process: Reset to the set (set[0] is the persistent source), one
// Step, read |A_1|; averaged over samples draws.
func sampledGrowth(p process.Process, set []int32, samples int, r *rng.Rand) (float64, error) {
	var sum float64
	for i := 0; i < samples; i++ {
		if err := p.Reset(set...); err != nil {
			return 0, err
		}
		p.Step(r)
		sum += float64(p.ReachedCount())
	}
	return sum / float64(samples), nil
}

func runE5(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	gr := rng.NewStream(p.Seed, 0xe5)
	n := pick(p.Scale, 256, 1024, 4096)
	repeats := pick(p.Scale, 3, 5, 10)

	expander, err := graph.RandomRegularConnected(n, 8, gr)
	if err != nil {
		return err
	}
	side := intSqrt(n)
	torus, err := graph.Torus(side, side)
	if err != nil {
		return err
	}
	complete, err := graph.Complete(pick(p.Scale, 64, 128, 256))
	if err != nil {
		return err
	}
	graphs := []*graph.Graph{expander, torus, complete}

	samples := pick(p.Scale, 24, 48, 96)

	branchings := []core.Branching{{K: 2}, {K: 1, Rho: 0.5}}
	tbl := NewTable("E5: exact E(|A_{t+1}|) vs spectral lower bound, random sets",
		"graph", "branching", "λmax", "|A|/n", "exact E", "sampled E", "bound", "margin", "min-margin-ok")
	for _, g := range graphs {
		lambda, err := spectral.LambdaMax(g)
		if err != nil {
			return err
		}
		gn := g.N()
		for _, br := range branchings {
			proc, err := process.New(process.BIPS, g, process.Config{Branching: br})
			if err != nil {
				return err
			}
			for _, fracPct := range []int{1, 10, 25, 50, 75, 95} {
				if err := ctx.Err(); err != nil {
					return err
				}
				size := gn * fracPct / 100
				if size < 1 {
					size = 1
				}
				worstMargin := math.Inf(1)
				var worstExact, worstBound, worstSampled float64
				for rep := 0; rep < repeats; rep++ {
					set, err := core.RandomInfectedSet(g, 0, size, gr)
					if err != nil {
						return err
					}
					exact, err := core.ExactExpectedGrowth(g, 0, set, br)
					if err != nil {
						return err
					}
					sampled, err := sampledGrowth(proc, set, samples, gr)
					if err != nil {
						return err
					}
					bound := core.Lemma1Bound(size, gn, lambda, br)
					margin := exact/bound - 1
					if margin < worstMargin {
						worstMargin, worstExact, worstBound, worstSampled = margin, exact, bound, sampled
					}
				}
				ok := "yes"
				if worstMargin < -1e-9 {
					ok = "VIOLATED"
				}
				tbl.AddRow(g.Name(), br.String(), f4(lambda),
					f2(float64(size)/float64(gn)), f2(worstExact), f2(worstSampled), f2(worstBound),
					f4(worstMargin), ok)
			}
		}
	}
	tbl.AddNote("margin = exact/bound - 1; Lemma 1 asserts margin ≥ 0 for every set A (worst of %d random sets shown)", repeats)
	tbl.AddNote("sampled E = mean |A_1| over %d one-step bips runs from the same set (process-layer cross-check of the closed form)", samples)
	return tbl.Emit(w, p)
}
