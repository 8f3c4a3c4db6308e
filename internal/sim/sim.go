// Package sim is the Monte-Carlo harness: it runs independent trials of a
// simulation function across a worker pool with deterministic per-trial RNG
// streams, so results are bit-identical regardless of parallelism.
//
// ReduceWithState is the one aggregation path: it folds each trial result
// into per-shard accumulators (see Reducer) merged deterministically at
// the end, so memory is O(shards) — constant — and ensembles of 10⁵+
// trials are limited by time, not RAM. Trial i draws from
// rng.NewStream(Seed, i), and the result does not depend on the Workers
// setting. DigestReducer covers the common case of streaming a scalar
// metric into a stats.Digest; a caller that needs every value (a tail
// plot) folds it into its own slot of a slice it owns.
package sim

import "runtime"

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
