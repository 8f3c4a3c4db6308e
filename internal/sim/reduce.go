package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cobrawalk/internal/rng"
	"cobrawalk/internal/stats"
)

// Reducer describes a streaming reduction over trial results: trial
// outcomes of type T are folded into accumulators of type A, and
// accumulators combine with Merge. The three functions must be pure with
// respect to everything except the accumulator they are handed —
// ReduceWithState calls them from multiple goroutines, but never
// concurrently on the same accumulator.
type Reducer[T, A any] struct {
	// New returns a fresh accumulator. It is called once per shard.
	New func() A
	// Fold incorporates one trial result and returns the updated
	// accumulator (in-place update and returning the argument is fine).
	Fold func(acc A, trial int, v T) A
	// Merge combines from into into and returns the result.
	// ReduceWithState always merges in ascending shard order, so a
	// non-commutative Merge (e.g. Welford/Chan moment combination) still
	// yields bit-identical results for every worker count.
	Merge func(into, from A) (A, error)
}

// reduceShards is the fixed shard count ReduceWithState partitions
// trials into. Shard assignment depends only on the trial index — never
// on the worker count or scheduling — which is what makes the final
// merged accumulator bit-identical for Workers=1 and Workers=GOMAXPROCS.
// 64 shards keeps the tail of a run well balanced across any realistic
// core count while holding memory at O(64) accumulators regardless of
// trial count.
const reduceShards = 64

// ReduceWithState executes fn once per trial, folding each result into a
// per-shard accumulator and merging the shards in ascending order at the
// end. It never materialises a per-trial slice: memory is O(shards).
// Trial i uses the stream rng.NewStream(Seed, i), and the shard-ordered
// merge makes the result independent of Workers. newState runs once per
// worker goroutine and its value is passed to every trial that worker
// executes, so expensive per-run allocations (process objects, buffers)
// are reused without cross-worker sharing. The first trial error cancels
// outstanding work and is returned with its trial index.
func ReduceWithState[S, T, A any](ctx context.Context, spec Spec, red Reducer[T, A], newState func() S, fn func(state S, trial int, r *rng.Rand) (T, error)) (A, error) {
	var zero A
	if spec.Trials < 1 {
		return zero, fmt.Errorf("sim: trials = %d, need >= 1", spec.Trials)
	}
	if red.New == nil || red.Fold == nil || red.Merge == nil {
		return zero, fmt.Errorf("sim: reducer needs New, Fold and Merge")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	shards := reduceShards
	if shards > spec.Trials {
		shards = spec.Trials
	}
	accs := make([]A, shards)
	workers := spec.workers()
	if workers > shards {
		// A worker with no shard to claim would still pay for newState
		// (often a full process object); never spawn more than there is
		// work for.
		workers = shards
	}

	var (
		next     atomic.Int64 // shard claim counter
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for {
				if cctx.Err() != nil {
					return
				}
				s := int(next.Add(1) - 1)
				if s >= shards {
					return
				}
				// Shard s owns the contiguous trial block [lo, hi); blocks
				// are balanced to within one trial.
				lo, hi := shardRange(spec.Trials, shards, s)
				acc := red.New()
				for i := lo; i < hi; i++ {
					if cctx.Err() != nil {
						return
					}
					r := rng.NewStream(spec.Seed, uint64(i))
					out, err := fn(state, i, r)
					if err != nil {
						errOnce.Do(func() {
							firstErr = fmt.Errorf("sim: trial %d: %w", i, err)
							cancel()
						})
						return
					}
					acc = red.Fold(acc, i, out)
				}
				accs[s] = acc
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return zero, firstErr
	}
	if err := ctx.Err(); err != nil {
		return zero, fmt.Errorf("sim: cancelled: %w", err)
	}
	// Deterministic reduction: always ascending shard order.
	total := accs[0]
	for s := 1; s < shards; s++ {
		var err error
		total, err = red.Merge(total, accs[s])
		if err != nil {
			return zero, fmt.Errorf("sim: merging shard %d: %w", s, err)
		}
	}
	return total, nil
}

// shardRange returns the half-open trial interval owned by shard s when
// trials are split into `shards` balanced contiguous blocks.
func shardRange(trials, shards, s int) (lo, hi int) {
	q, r := trials/shards, trials%shards
	lo = s*q + min(s, r)
	hi = lo + q
	if s < r {
		hi++
	}
	return lo, hi
}

// DigestReducer reduces trials into a stats.Digest of the given scalar
// metric — the common case for cover-time and infection-time ensembles.
func DigestReducer[T any](metric func(T) float64) Reducer[T, *stats.Digest] {
	return Reducer[T, *stats.Digest]{
		New: stats.NewDigest,
		Fold: func(d *stats.Digest, _ int, v T) *stats.Digest {
			d.Add(metric(v))
			return d
		},
		Merge: func(into, from *stats.Digest) (*stats.Digest, error) {
			if err := into.Merge(from); err != nil {
				return nil, err
			}
			return into, nil
		},
	}
}
