package expt

import (
	"context"
	"io"
	"math"

	"cobrawalk/internal/core"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// e2Experiment reproduces Theorem 2: the BIPS infection time with k = 2 on
// regular expanders is O(log n) in expectation and w.h.p. The table
// reports mean, p95 and max infection times over doubling n (the w.h.p.
// claim shows up as max/mean staying O(1)) and fits the logarithmic law.
func e2Experiment() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "BIPS k=2 infection time on expanders is O(log n), whp concentrated",
		Claim: "Theorem 2: infec(v) = O(log n/(1-λ)³) in expectation and with probability ≥ 1-O(1/n³).",
		Run:   runE2,
	}
}

func runE2(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	sizes := pick(p.Scale,
		[]int{128, 256, 512},
		[]int{256, 512, 1024, 2048, 4096},
		[]int{1024, 2048, 4096, 8192, 16384, 32768})
	trials := pick(p.Scale, 20, 50, 100)

	families := []family{randomRegularFamily(4), randomRegularFamily(12), completeFamily()}
	completeCap := pick(p.Scale, 512, 2048, 4096)

	tbl := NewTable("E2: BIPS k=2 infection time",
		"family", "n", "λmax", "trials", "mean", "p95", "max", "max/mean", "mean/log2(n)")
	for _, fam := range families {
		var ns, means []float64
		gr := rng.NewStream(p.Seed, 0xe2)
		for _, n := range sizes {
			if fam.name == "complete" && n > completeCap {
				continue
			}
			g, err := fam.build(n, gr)
			if err != nil {
				return err
			}
			res, err := sweep.Ensemble(ctx, g, sweep.Point{
				Process: process.BIPS, Branching: core.DefaultBranching, Trials: trials,
				Seed: p.Seed ^ 0xb195, MaxRounds: 1 << 16, Metrics: roundsOnly, MeasureLambda: true,
			}, sweep.Options{TrialWorkers: p.Workers})
			if err != nil {
				return err
			}
			s := res.Metric(sweep.MetricRounds)
			tbl.AddRow(fam.name, d(g.N()), f4(res.Lambda), d(trials),
				f2(s.Mean), f1(s.P95), f1(s.Max), f2(s.Max/s.Mean),
				f2(s.Mean/math.Log2(float64(g.N()))))
			ns = append(ns, float64(g.N()))
			means = append(means, s.Mean)
		}
		if len(ns) >= 2 {
			fit, err := stats.FitLogN(ns, means)
			if err != nil {
				return err
			}
			tbl.AddNote("%-12s infec ≈ %.3f·log₂(n) %+.3f  (R²=%.4f)", fam.name, fit.Slope, fit.Intercept, fit.R2)
		}
	}
	tbl.AddNote("duality check: Theorem 4 implies E2 means track E1 means on matching families")
	return tbl.Emit(w, p)
}
