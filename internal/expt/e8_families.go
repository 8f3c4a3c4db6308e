package expt

import (
	"context"
	"io"
	"math"

	"cobrawalk/internal/process"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// e8Experiment reproduces the prior results of Dutta et al. (SPAA'13)
// quoted in the paper's introduction, and the paper's improvement over
// them:
//
//	(i)   K_n: COBRA covers in O(log n) rounds;
//	(ii)  constant-degree expanders: Dutta et al. proved O(log² n), this
//	      paper improves it to O(log n);
//	(iii) d-dimensional grids/tori: Õ(n^{1/d}).
//
// Each family is one declarative sweep; the table fits each family's
// scaling law from the sweep records, and for the expander family it
// additionally contrasts the a·log n and a·log² n models by residual sum
// of squares — the paper predicts the linear-in-log model explains the data
// at least as well.
func e8Experiment() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Family scaling laws: K_n, expanders (log vs log²), 2-D torus",
		Claim: "Dutta et al. results quoted in §1 + Theorem 1's improvement from O(log²n) to O(log n) on expanders.",
		Run:   runE8,
	}
}

func runE8(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	trials := pick(p.Scale, 20, 50, 100)
	sizesExp := pick(p.Scale,
		[]int{128, 256, 512, 1024},
		[]int{256, 512, 1024, 2048, 4096, 8192},
		[]int{1024, 2048, 4096, 8192, 16384, 32768, 65536})
	sizesK := pick(p.Scale,
		[]int{64, 128, 256, 512},
		[]int{128, 256, 512, 1024, 2048},
		[]int{256, 512, 1024, 2048, 4096})
	sizesTorus := pick(p.Scale,
		[]int{144, 256, 529, 1024},
		[]int{256, 1024, 4096, 9216},
		[]int{1024, 4096, 16384, 65536})

	tbl := NewTable("E8: COBRA k=2 cover-time scaling by family",
		"family", "n", "mean", "p95", "mean/log2(n)", "mean/√n")

	collect := func(name, fam string, degrees []int, sizes []int) (ns, means []float64, err error) {
		rep, err := sweep.Run(ctx, sweep.Spec{
			Name:      name,
			Families:  []string{fam},
			Sizes:     sizes,
			Degrees:   degrees,
			Trials:    trials,
			Seed:      p.Seed,
			MaxRounds: process.DefaultMaxRounds,
		}, sweep.Options{TrialWorkers: p.Workers})
		if err != nil {
			return nil, nil, err
		}
		for _, res := range rep.Results {
			fn := float64(res.GraphN)
			s := res.Metric(sweep.MetricRounds)
			tbl.AddRow(familyLabel(res.Point), d(res.GraphN), f2(s.Mean), f1(s.P95),
				f2(s.Mean/math.Log2(fn)), f4(s.Mean/math.Sqrt(fn)))
			ns = append(ns, fn)
			means = append(means, s.Mean)
		}
		return ns, means, nil
	}

	// (i) Complete graphs: O(log n).
	nsK, meansK, err := collect("e8-complete", "complete", nil, sizesK)
	if err != nil {
		return err
	}
	fitK, err := stats.FitLogN(nsK, meansK)
	if err != nil {
		return err
	}
	tbl.AddNote("K_n:      cover ≈ %.3f·log₂(n) %+.2f (R²=%.4f) — Dutta et al. (i)", fitK.Slope, fitK.Intercept, fitK.R2)

	// (ii) Constant-degree expanders: log vs log² model comparison.
	nsE, meansE, err := collect("e8-expander", "rand-reg", []int{3}, sizesExp)
	if err != nil {
		return err
	}
	fitLog, err := stats.FitLogN(nsE, meansE)
	if err != nil {
		return err
	}
	// log² model: regress on (log₂ n)².
	xs2 := make([]float64, len(nsE))
	for i, n := range nsE {
		l := math.Log2(n)
		xs2[i] = l * l
	}
	fitLog2, err := stats.LinearFit(xs2, meansE)
	if err != nil {
		return err
	}
	predLog := make([]float64, len(nsE))
	predLog2 := make([]float64, len(nsE))
	for i := range nsE {
		predLog[i] = fitLog.Predict(math.Log2(nsE[i]))
		predLog2[i] = fitLog2.Predict(xs2[i])
	}
	ratio, err := stats.CompareFits(meansE, predLog, predLog2)
	if err != nil {
		return err
	}
	tbl.AddNote("rand-3-reg: log model R²=%.4f, log² model R²=%.4f, RSS(log)/RSS(log²)=%.3f", fitLog.R2, fitLog2.R2, ratio)
	tbl.AddNote("Theorem 1 (this paper) predicts the O(log n) law suffices where Dutta et al. only proved O(log² n)")

	// (iii) 2-D torus: Õ(n^{1/2}).
	nsT, meansT, err := collect("e8-torus", "torus-2d", nil, sizesTorus)
	if err != nil {
		return err
	}
	pw, err := stats.FitPower(nsT, meansT)
	if err != nil {
		return err
	}
	tbl.AddNote("torus-2d: cover ≈ %.2f·n^%.3f (R²=%.4f) — Dutta et al. (iii) predicts exponent ≈ 1/2 up to log factors", pw.Coeff, pw.Exponent, pw.R2)
	return tbl.Emit(w, p)
}
