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

func torus2DFamily() family { return sweepFamily("torus-2d", 0, "torus-2d") }

func hypercubeFamily() family { return sweepFamily("hypercube", 0, "hypercube") }

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

// workload packages the per-worker factory and per-trial function for
// runs of the named registry process (cobra cover runs, bips infection
// runs) from vertex 0 (regular families are vertex-transitive or
// statistically symmetric, so vertex 0 is representative of the
// worst-case start). Construction is validated once up front so the
// factory cannot fail; the same pair feeds both the materialising
// (sim.RunWithState) and streaming (sim.ReduceWithState) harnesses,
// guaranteeing the two paths see identical trials. A trial that hits
// maxRounds is an error.
func workload(name string, g *graph.Graph, branch process.Branching, maxRounds int) (func() process.Process, func(process.Process, int, *rng.Rand) (float64, error), error) {
	cfg := process.Config{Branching: branch}
	if _, err := process.New(name, g, cfg); err != nil {
		return nil, nil, err
	}
	newState := func() process.Process {
		p, err := process.New(name, g, cfg)
		if err != nil {
			panic(err) // unreachable: validated above
		}
		return p
	}
	trial := func(p process.Process, _ int, r *rng.Rand) (float64, error) {
		out, err := process.Run(p, r, maxRounds, 0)
		if err != nil {
			return 0, err
		}
		if !out.Done {
			return 0, fmt.Errorf("%s run hit round cap %d on %s", name, maxRounds, g.Name())
		}
		return float64(out.Rounds), nil
	}
	return newState, trial, nil
}

// coverTimes runs `trials` COBRA cover runs on g and returns the raw
// cover times, for experiments that need the materialised sample.
func coverTimes(ctx context.Context, g *graph.Graph, branch process.Branching, trials int, p Params, maxRounds int) ([]float64, error) {
	newState, trial, err := workload(process.Cobra, g, branch, maxRounds)
	if err != nil {
		return nil, err
	}
	spec := sim.Spec{Trials: trials, Seed: p.Seed, Workers: p.Workers}
	return sim.RunWithState(ctx, spec, newState, trial)
}

// infectionTimes runs `trials` BIPS infection runs on g with source 0.
func infectionTimes(ctx context.Context, g *graph.Graph, branch process.Branching, trials int, p Params, maxRounds int) ([]float64, error) {
	newState, trial, err := workload(process.BIPS, g, branch, maxRounds)
	if err != nil {
		return nil, err
	}
	spec := sim.Spec{Trials: trials, Seed: p.Seed ^ 0xb195, Workers: p.Workers}
	return sim.RunWithState(ctx, spec, newState, trial)
}

// coverDigest is the streaming counterpart of coverTimes: it folds the
// same trials (same seeds, same per-trial streams) into a constant-memory
// stats.Digest instead of materialising a []float64, so trial counts are
// bounded by time, not RAM. The digest is bit-identical for every Workers
// setting.
func coverDigest(ctx context.Context, g *graph.Graph, branch process.Branching, trials int, p Params, maxRounds int) (*stats.Digest, error) {
	newState, trial, err := workload(process.Cobra, g, branch, maxRounds)
	if err != nil {
		return nil, err
	}
	spec := sim.Spec{Trials: trials, Seed: p.Seed, Workers: p.Workers}
	return sim.ReduceWithState(ctx, spec,
		sim.DigestReducer(func(x float64) float64 { return x }),
		newState, trial)
}

// infectionDigest is the streaming counterpart of infectionTimes.
func infectionDigest(ctx context.Context, g *graph.Graph, branch process.Branching, trials int, p Params, maxRounds int) (*stats.Digest, error) {
	newState, trial, err := workload(process.BIPS, g, branch, maxRounds)
	if err != nil {
		return nil, err
	}
	spec := sim.Spec{Trials: trials, Seed: p.Seed ^ 0xb195, Workers: p.Workers}
	return sim.ReduceWithState(ctx, spec,
		sim.DigestReducer(func(x float64) float64 { return x }),
		newState, trial)
}

// digestOrErr snapshots a digest with the experiment error context.
func digestOrErr(dg *stats.Digest, what string) (stats.DigestSummary, error) {
	s, err := dg.Summary()
	if err != nil {
		return stats.DigestSummary{}, fmt.Errorf("expt: summarising %s: %w", what, err)
	}
	return s, nil
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
