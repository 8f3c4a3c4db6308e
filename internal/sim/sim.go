// Package sim is the Monte-Carlo harness: it runs independent trials of a
// simulation function across a worker pool with deterministic per-trial RNG
// streams, so results are bit-identical regardless of parallelism, and
// aggregates outcomes for the statistics layer.
//
// Two aggregation modes are offered:
//
//   - Run / RunWithState materialise every trial result in a []T, for
//     callers that need the raw sample (tail plots, bootstrap CIs, exact
//     order statistics). Memory is O(Trials).
//   - Reduce / ReduceWithState fold each trial result into per-shard
//     accumulators (see Reducer) merged deterministically at the end.
//     Memory is O(shards) — constant — so ensembles of 10⁵+ trials are
//     limited by time, not RAM. DigestReducer covers the common case of
//     streaming a scalar metric into a stats.Digest.
//
// Both modes run on one worker pool (RunWithState is a ReduceWithState
// whose fold stores each result at its trial index), derive trial i's
// randomness from rng.NewStream(Seed, i) and produce results that do not
// depend on the Workers setting.
package sim

import (
	"context"
	"fmt"
	"runtime"

	"cobrawalk/internal/rng"
)

// Spec configures a batch of trials.
type Spec struct {
	// Trials is the number of independent runs (must be >= 1).
	Trials int
	// Seed is the master seed; trial i uses the independent stream
	// rng.NewStream(Seed, i), so results do not depend on scheduling.
	Seed uint64
	// Workers bounds the worker pool (default GOMAXPROCS; 1 = serial).
	Workers int
}

func (s Spec) workers() int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > s.Trials {
		w = s.Trials
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes fn once per trial and returns the results in trial order.
// fn receives the trial index and a private RNG stream; it must not share
// mutable state across trials (each worker may reuse scratch state between
// its own trials via the factory pattern in RunWithState). The first error
// cancels outstanding work.
func Run[T any](ctx context.Context, spec Spec, fn func(trial int, r *rng.Rand) (T, error)) ([]T, error) {
	return RunWithState(ctx, spec, func() struct{} { return struct{}{} },
		func(_ struct{}, trial int, r *rng.Rand) (T, error) { return fn(trial, r) })
}

// RunWithState is Run with per-worker scratch state: newState is called
// once per worker, and the returned state is passed to every trial that
// worker executes. This lets expensive per-run allocations (process
// objects, buffers) be reused safely without sharing across goroutines.
// It is ReduceWithState with a fold that stores each result at its trial
// index, so both modes share one worker pool, one error and cancel path
// and one shard schedule.
func RunWithState[S any, T any](ctx context.Context, spec Spec, newState func() S, fn func(state S, trial int, r *rng.Rand) (T, error)) ([]T, error) {
	if spec.Trials < 1 {
		return nil, fmt.Errorf("sim: trials = %d, need >= 1", spec.Trials)
	}
	results := make([]T, spec.Trials)
	// Every trial index is folded exactly once, so the slot writes never
	// overlap; the accumulator carries nothing.
	store := Reducer[T, struct{}]{
		New: func() struct{} { return struct{}{} },
		Fold: func(acc struct{}, trial int, v T) struct{} {
			results[trial] = v
			return acc
		},
		Merge: func(into, _ struct{}) (struct{}, error) { return into, nil },
	}
	if _, err := ReduceWithState(ctx, spec, store, newState, fn); err != nil {
		return nil, err
	}
	return results, nil
}

// Floats extracts a float64 metric from every result.
func Floats[T any](results []T, metric func(T) float64) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = metric(r)
	}
	return out
}
