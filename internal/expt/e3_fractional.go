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

// e3Experiment reproduces Theorem 3 / Corollary 1: COBRA with fractional
// branching factor 1+ρ covers expanders in O(log n) rounds for any
// constant ρ > 0, with the constant scaling like 1/ρ (Corollary 1's growth
// factor is ρ(1-λ²) per round). The table sweeps ρ on a random 8-regular
// expander and reports the per-ρ logarithmic fit plus slope·ρ, which the
// corollary predicts to be roughly constant.
func e3Experiment() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "Fractional branching 1+ρ still covers in O(log n); constant ∝ 1/ρ",
		Claim: "Theorem 3 + Corollary 1: cov(v) = O(log n) whp for branching 1+ρ, any constant ρ > 0.",
		Run:   runE3,
	}
}

func runE3(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	sizes := pick(p.Scale,
		[]int{128, 256, 512},
		[]int{256, 512, 1024, 2048},
		[]int{1024, 2048, 4096, 8192, 16384})
	trials := pick(p.Scale, 20, 50, 100)
	rhos := []float64{0.1, 0.25, 0.5, 0.9}

	tbl := NewTable("E3: COBRA with branching 1+ρ on rand-8-reg",
		"ρ", "n", "λmax", "mean", "p95", "mean/log2(n)")
	fam := randomRegularFamily(8)
	type fitRow struct {
		rho float64
		fit stats.Fit
	}
	var fits []fitRow
	for _, rho := range rhos {
		branch := core.Branching{K: 1, Rho: rho}
		var ns, means []float64
		gr := rng.NewStream(p.Seed, 0xe3)
		for _, n := range sizes {
			g, err := fam.build(n, gr)
			if err != nil {
				return err
			}
			res, err := sweep.Ensemble(ctx, g, sweep.Point{
				Process: process.Cobra, Branching: branch, Trials: trials,
				Seed: p.Seed, MaxRounds: 1 << 18, Metrics: roundsOnly, MeasureLambda: true,
			}, sweep.Options{TrialWorkers: p.Workers})
			if err != nil {
				return err
			}
			s := res.Metric(sweep.MetricRounds)
			tbl.AddRow(f2(rho), d(g.N()), f4(res.Lambda), f2(s.Mean), f1(s.P95),
				f2(s.Mean/math.Log2(float64(g.N()))))
			ns = append(ns, float64(g.N()))
			means = append(means, s.Mean)
		}
		if len(ns) >= 2 {
			fit, err := stats.FitLogN(ns, means)
			if err != nil {
				return err
			}
			fits = append(fits, fitRow{rho, fit})
			tbl.AddNote("ρ=%.2f: cover ≈ %.3f·log₂(n) %+.2f (R²=%.4f); slope·ρ = %.3f",
				rho, fit.Slope, fit.Intercept, fit.R2, fit.Slope*rho)
		}
	}
	if len(fits) >= 2 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, fr := range fits {
			v := fr.fit.Slope * fr.rho
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		tbl.AddNote("Corollary 1 prediction: slope·ρ ≈ const; measured spread %.3f..%.3f", lo, hi)
	}
	return tbl.Emit(w, p)
}
