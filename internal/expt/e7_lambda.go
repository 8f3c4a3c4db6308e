package expt

import (
	"context"
	"io"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/spectral"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// e7Experiment probes the (1-λ) dependence of Theorems 1-2. The bound is
// O(log n/(1-λ)³); sweeping graphs of (nearly) fixed size but shrinking
// spectral gap — tori with increasingly skewed aspect ratios and
// consecutive-offset circulants — and regressing cover time against
// 1/(1-λ) in log-log space yields the empirical exponent. The paper's
// cubic is an upper bound, so the measured exponent must not exceed ~3;
// empirically it is much closer to 1-2, i.e. the bound is conservative.
func e7Experiment() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Spectral-gap dependence: cover time vs 1/(1-λ)",
		Claim: "Theorems 1-2 bound cover/infection time by O(log n · (1-λ)^{-3}); the exponent 3 is an upper bound.",
		Run:   runE7,
	}
}

// oddify rounds n down to the nearest odd integer >= 3.
func oddify(n int) int {
	if n%2 == 0 {
		n--
	}
	if n < 3 {
		n = 3
	}
	return n
}

func runE7(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	trials := pick(p.Scale, 15, 40, 80)

	// Family A: tori with a sweep of aspect ratios at (nearly) fixed n.
	// Sides are forced odd: an even cycle factor would make the torus
	// bipartite (λ_n = -1, so λ_max = 1 regardless of the aspect), which
	// is the separate scope boundary studied in E10.
	nTarget := pick(p.Scale, 1024, 4096, 16384)
	var graphs []*graph.Graph
	for _, aspect := range []int{1, 2, 4, 8, 16} {
		long := oddify(intSqrt(nTarget) * aspect)
		short := oddify(nTarget / long)
		if short < 3 {
			continue
		}
		g, err := graph.Torus(long, short)
		if err != nil {
			return err
		}
		graphs = append(graphs, g)
	}
	// Family B: circulants with consecutive offsets 1..j at fixed n:
	// larger j widens the gap. j starts at 2 because offsets {1, 2}
	// introduce triangles, keeping the family non-bipartite even for
	// even n (j = 1 is the plain even cycle, which is bipartite).
	cn := pick(p.Scale, 512, 1024, 2048)
	for _, j := range []int{2, 4, 8, 16, 32} {
		offs := make([]int, j)
		for i := range offs {
			offs[i] = i + 1
		}
		g, err := graph.Circulant(cn, offs)
		if err != nil {
			return err
		}
		graphs = append(graphs, g)
	}

	tbl := NewTable("E7: cover time vs spectral gap (COBRA k=2)",
		"graph", "n", "λmax", "1/(1-λ)", "mean cover", "p95")
	var invGaps, means []float64
	for _, g := range graphs {
		if err := ctx.Err(); err != nil {
			return err
		}
		lambda, err := spectral.LambdaMax(g)
		if err != nil {
			return err
		}
		gap := 1 - lambda
		if gap <= 1e-9 {
			continue // bipartite/disconnected instances are out of scope here
		}
		res, err := sweep.Ensemble(ctx, g, sweep.Point{
			Process: process.Cobra, Branching: core.DefaultBranching, Trials: trials,
			Seed: p.Seed, MaxRounds: process.DefaultMaxRounds, Metrics: roundsOnly,
		}, sweep.Options{TrialWorkers: p.Workers})
		if err != nil {
			return err
		}
		s := res.Metric(sweep.MetricRounds)
		tbl.AddRow(g.Name(), d(g.N()), f4(lambda), f2(1/gap), f2(s.Mean), f1(s.P95))
		invGaps = append(invGaps, 1/gap)
		means = append(means, s.Mean)
	}
	if len(invGaps) >= 3 {
		pw, err := stats.FitPower(invGaps, means)
		if err != nil {
			return err
		}
		tbl.AddNote("power fit: cover ≈ %.2f · (1/(1-λ))^%.3f (R²=%.4f)", pw.Coeff, pw.Exponent, pw.R2)
		verdict := "consistent with the O((1-λ)^{-3}) upper bound"
		if pw.Exponent > 3.2 {
			verdict = "EXCEEDS the cubic bound — investigate"
		}
		tbl.AddNote("measured exponent %.3f: %s", pw.Exponent, verdict)
	}
	return tbl.Emit(w, p)
}
