package expt

import (
	"context"
	"fmt"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
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
	// Every shard writes its own trials' slots of the one slice.
	covs := make([]float64, trials)
	return sweep.Trials(ctx, g, sweep.Point{
		Process: process.Cobra, Branching: branch, Trials: trials, Seed: p.Seed, MaxRounds: maxRounds,
	}, 0, sweep.Options{TrialWorkers: p.Workers}, sim.Reducer[sweep.Trial, []float64]{
		New: func() []float64 { return covs },
		Fold: func(acc []float64, i int, t sweep.Trial) []float64 {
			acc[i] = float64(t.Result.Rounds)
			return acc
		},
		Merge: func(into, _ []float64) ([]float64, error) { return into, nil },
	})
}

// streamsReducer folds each trial's k values into k streams, one per
// table column, for ensembles whose tables report per-column means.
func streamsReducer(k int) sim.Reducer[[]float64, []stats.Stream] {
	return sim.Reducer[[]float64, []stats.Stream]{
		New: func() []stats.Stream { return make([]stats.Stream, k) },
		Fold: func(acc []stats.Stream, _ int, v []float64) []stats.Stream {
			for i, x := range v {
				acc[i].Add(x)
			}
			return acc
		},
		Merge: func(into, from []stats.Stream) ([]stats.Stream, error) {
			for i := range into {
				into[i].Merge(from[i])
			}
			return into, nil
		},
	}
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }
