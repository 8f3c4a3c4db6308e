package expt

import (
	"context"
	"fmt"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/spectral"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// family names a graph generator parameterised only by target size, for
// size-sweep experiments. The builders delegate to the sweep engine's
// family registry, so size→graph rounding lives in one place.
type family struct {
	name string
	// build returns a graph with ~n vertices (generators round to their
	// natural lattice).
	build func(n int, r *rng.Rand) (*graph.Graph, error)
}

// sweepFamily adapts a sweep.Family (with a fixed degree) to the local
// family shape. The registry names are compile-time constants, so a
// lookup failure is a programming error.
func sweepFamily(name string, deg int, display string) family {
	sf, err := sweep.LookupFamily(name)
	if err != nil {
		panic(err)
	}
	return family{
		name: display,
		build: func(n int, r *rng.Rand) (*graph.Graph, error) {
			return sf.Build(n, deg, r)
		},
	}
}

func randomRegularFamily(deg int) family {
	return sweepFamily("rand-reg", deg, fmt.Sprintf("rand-%d-reg", deg))
}

func completeFamily() family { return sweepFamily("complete", 0, "complete") }

// intSqrt returns ⌊√n⌋ (torus sizing in E5/E7), delegating to the sweep
// engine's helper so the rounding rule has one home.
func intSqrt(n int) int { return sweep.IntSqrt(n) }

// familyLabel names a sweep point's family the way the experiment tables
// do: degree-parameterised families carry their degree ("rand-3-reg").
func familyLabel(pt sweep.Point) string {
	if pt.Family == "rand-reg" {
		return fmt.Sprintf("rand-%d-reg", pt.Degree)
	}
	return pt.Family
}

// roundsOnly is the metric set of the sweep.Ensemble calls that report
// only the process's time metric (cover time for cobra, infection time
// for bips).
var roundsOnly = []string{sweep.MetricRounds}

// coverTimes runs `trials` COBRA cover runs on g and returns the raw
// cover times, for experiments that need the materialised sample. Trial
// i draws from rng.NewStream(p.Seed, i) and starts from vertex 0, as in
// an ensemble with that seed, and a run that reaches maxRounds is an
// error.
func coverTimes(ctx context.Context, g *graph.Graph, branch process.Branching, trials int, p Params, maxRounds int) ([]float64, error) {
	cfg := process.Config{Branching: branch}
	if _, err := process.New(process.Cobra, g, cfg); err != nil {
		return nil, err
	}
	spec := sim.Spec{Trials: trials, Seed: p.Seed, Workers: p.Workers}
	return sim.RunWithState(ctx, spec,
		func() process.Process {
			c, err := process.New(process.Cobra, g, cfg)
			if err != nil {
				panic(err) // unreachable: validated above
			}
			return c
		},
		func(c process.Process, _ int, r *rng.Rand) (float64, error) {
			out, err := process.Run(c, r, maxRounds, 0)
			if err != nil {
				return 0, err
			}
			if !out.Done {
				return 0, fmt.Errorf("%s run hit round cap %d on %s", process.Cobra, maxRounds, g.Name())
			}
			return float64(out.Rounds), nil
		})
}

// measureLambda returns λ_max for g, using a reduced-accuracy power
// iteration (the experiments only report λ to four digits).
func measureLambda(g *graph.Graph) (float64, error) {
	return spectral.LambdaMax(g, spectral.Options{Tol: 1e-9, MaxIter: 20000})
}

// summarizeOrErr wraps stats.Summarize with the experiment error context.
func summarizeOrErr(xs []float64, what string) (stats.Summary, error) {
	s, err := stats.Summarize(xs)
	if err != nil {
		return stats.Summary{}, fmt.Errorf("expt: summarising %s: %w", what, err)
	}
	return s, nil
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }
