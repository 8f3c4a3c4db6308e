package expt

import (
	"context"
	"fmt"
	"io"
	"math"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/process/difftest"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/stats"
)

// e13Experiment is the sampling ablation called out in DESIGN.md: the
// BIPS step can draw each vertex's k neighbour samples explicitly
// ("exact", the process as defined, which the registry bips engine
// runs) or draw the infection event from its closed-form one-step
// probability 1-(1-d_A/d)^k·(1-ρd_A/d) ("closed form", difftest's
// NewClosedFormBips). The two are identical in distribution; the
// ablation verifies that equivalence statistically (infection-time
// means within Monte-Carlo error).
func e13Experiment() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "Ablation: exact vs closed-form BIPS sampling",
		Claim: "Implementation ablation (DESIGN.md): the two sampling paths are distribution-identical.",
		Run:   runE13,
	}
}

// e13MaxRounds caps every E13 run; a run that reaches it fails the
// experiment.
const e13MaxRounds = 1 << 18

func runE13(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	n := pick(p.Scale, 512, 2048, 8192)
	trials := pick(p.Scale, 60, 200, 500)
	gr := rng.NewStream(p.Seed, 0xe13)
	rowSeeds := rng.NewStream(p.Seed, 0xe130)
	paths := []struct {
		name string
		new  process.Factory
	}{
		{"exact", func(g *graph.Graph, cfg process.Config) (process.Process, error) {
			return process.New(process.BIPS, g, cfg)
		}},
		{"closed form", difftest.NewClosedFormBips},
	}

	tbl := NewTable("E13: BIPS sampling-path ablation",
		"graph", "path", "branching", "mean infec", "SE")
	for _, deg := range []int{4, 16} {
		g, err := graph.RandomRegularConnected(n, deg, gr)
		if err != nil {
			return err
		}
		for _, br := range []process.Branching{{K: 2}, {K: 1, Rho: 0.5}} {
			var s [2]stats.Stream
			for i, path := range paths {
				d, err := infectionTimes(ctx, g, path.new, br, trials, rowSeeds.Uint64(), p.Workers, e13MaxRounds)
				if err != nil {
					return err
				}
				s[i] = d.Stream
				tbl.AddRow(g.Name(), path.name, br.String(), f2(s[i].Mean()), f2(s[i].SE()))
			}
			diff := math.Abs(s[0].Mean() - s[1].Mean())
			z := diff / math.Hypot(s[0].SE(), s[1].SE())
			verdict := "equivalent"
			if z > 4 {
				verdict = "DIVERGENT — bug"
			}
			tbl.AddNote("%s %s: |Δmean| = %.3f (z = %.2f) → %s", g.Name(), br.String(), diff, z, verdict)
		}
	}
	return tbl.Emit(w, p)
}

// infectionTimes folds `trials` BIPS infection times on g into a digest:
// trial i runs an engine built by factory, one per worker of a pool of
// `workers`, from source 0 on rng.NewStream(seed, i). A run that reaches
// maxRounds is an error.
func infectionTimes(ctx context.Context, g *graph.Graph, factory process.Factory, br process.Branching,
	trials int, seed uint64, workers, maxRounds int) (*stats.Digest, error) {
	cfg := process.Config{Branching: br}
	if _, err := factory(g, cfg); err != nil {
		return nil, err
	}
	return sim.ReduceWithState(ctx, sim.Spec{Trials: trials, Seed: seed, Workers: workers},
		sim.DigestReducer(func(rounds float64) float64 { return rounds }),
		func() process.Process {
			b, err := factory(g, cfg)
			if err != nil {
				panic(err) // unreachable: validated above
			}
			return b
		},
		func(b process.Process, _ int, r *rng.Rand) (float64, error) {
			out, err := process.Run(b, r, maxRounds, 0)
			if err != nil {
				return 0, err
			}
			if !out.Done {
				return 0, fmt.Errorf("bips run hit round cap %d on %s", maxRounds, g.Name())
			}
			return float64(out.Rounds), nil
		})
}
