package expt

import (
	"context"
	"fmt"
	"io"
	"math"

	"cobrawalk/internal/core"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// e6Experiment reproduces the three-phase structure of the proof of
// Theorem 2: Lemma 2 (grow A_t from 1 past m = Θ(log n)), Lemma 3 (from m
// to 9n/10), Lemma 4 (finish). Each phase's round count is measured on
// random 8-regular expanders over doubling n and fitted against log n —
// all three lemmas predict O(log n) rounds per phase at constant gap.
//
// The trajectories come from the metrics layer: sweep.Trials attaches a
// Collector for the frontier metric, and each trial's per-round |A_t|
// series feeds core.DetectPhases as it folds, so the ensemble runs in
// constant memory at any trial count.
func e6Experiment() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Three-phase BIPS trajectory (Lemmas 2-4)",
		Claim: "Lemmas 2-4: each phase (1→m, m→0.9n, 0.9n→n) takes O(log n) rounds on constant-gap expanders.",
		Run:   runE6,
	}
}

func runE6(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	sizes := pick(p.Scale,
		[]int{256, 512, 1024},
		[]int{512, 1024, 2048, 4096},
		[]int{1024, 2048, 4096, 8192, 16384, 32768})
	trials := pick(p.Scale, 20, 50, 100)
	fam := randomRegularFamily(8)
	gr := rng.NewStream(p.Seed, 0xe6)

	tbl := NewTable("E6: BIPS phase round counts on rand-8-reg (means over trials)",
		"n", "m=⌈4·log2 n⌉", "phase1 (1→m)", "phase2 (m→.9n)", "phase3 (.9n→n)", "total")
	var ns, p1s, p2s, p3s []float64
	for _, n := range sizes {
		g, err := fam.build(n, gr)
		if err != nil {
			return err
		}
		smallTarget := int(math.Ceil(4 * math.Log2(float64(g.N()))))
		// acc holds the three phase lengths and the total; a phase stream
		// skips the trials that never completed that phase.
		acc, err := sweep.Trials(ctx, g, sweep.Point{
			Process: process.BIPS, Trials: trials, Seed: p.Seed ^ 0xe6, MaxRounds: 1 << 16,
			Metrics: []string{sweep.MetricFrontier},
		}, 0, sweep.Options{TrialWorkers: p.Workers}, sim.Reducer[sweep.Trial, [4]stats.Stream]{
			New: func() [4]stats.Stream { return [4]stats.Stream{} },
			Fold: func(acc [4]stats.Stream, _ int, t sweep.Trial) [4]stats.Stream {
				a, b, c := core.DetectPhases(t.Collector.Active(), g.N(), smallTarget).PhaseLengths()
				for i, l := range [3]int{a, b, c} {
					if l >= 0 {
						acc[i].Add(float64(l))
					}
				}
				acc[3].Add(float64(t.Result.Rounds))
				return acc
			},
			Merge: func(into, from [4]stats.Stream) ([4]stats.Stream, error) {
				for i := range into {
					into[i].Merge(from[i])
				}
				return into, nil
			},
		})
		if err != nil {
			return err
		}
		for i := range 3 {
			if acc[i].N() < trials {
				return fmt.Errorf("phase detection failed on %s: %d of %d trials completed phase %d",
					g.Name(), acc[i].N(), trials, i+1)
			}
		}
		m1, m2, m3, mt := acc[0].Mean(), acc[1].Mean(), acc[2].Mean(), acc[3].Mean()
		tbl.AddRow(d(g.N()), d(smallTarget), f2(m1), f2(m2), f2(m3), f2(mt))
		ns = append(ns, float64(g.N()))
		p1s = append(p1s, m1)
		p2s = append(p2s, m2)
		p3s = append(p3s, m3)
	}
	for _, ph := range []struct {
		name string
		ys   []float64
	}{{"phase1", p1s}, {"phase2", p2s}, {"phase3", p3s}} {
		if len(ns) >= 2 {
			fit, err := stats.FitLogN(ns, ph.ys)
			if err != nil {
				return err
			}
			tbl.AddNote("%s ≈ %.3f·log₂(n) %+.3f (R²=%.4f)", ph.name, fit.Slope, fit.Intercept, fit.R2)
		}
	}
	tbl.AddNote("Lemmas 2-4 predict all three phases are O(log n) at constant spectral gap")
	return tbl.Emit(w, p)
}
