package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cobrawalk/internal/rng"
	"cobrawalk/internal/stats"
)

// trialMetric is a deterministic per-trial workload that consumes a
// trial-dependent amount of randomness, so stream-sharing or ordering
// bugs change the values.
func trialMetric(trial int, r *rng.Rand) (float64, error) {
	sum := 0.0
	for i := 0; i <= trial%11; i++ {
		sum += r.Float64()
	}
	return sum * float64(trial%17+1), nil
}

// reduce runs a stateless trial function through ReduceWithState.
func reduce[T, A any](ctx context.Context, spec Spec, red Reducer[T, A], fn func(trial int, r *rng.Rand) (T, error)) (A, error) {
	return ReduceWithState(ctx, spec, red, func() struct{} { return struct{}{} },
		func(_ struct{}, trial int, r *rng.Rand) (T, error) { return fn(trial, r) })
}

func digestOf(t *testing.T, workers, trials int) stats.DigestSummary {
	t.Helper()
	d, err := reduce(context.Background(),
		Spec{Trials: trials, Seed: 42, Workers: workers},
		DigestReducer(func(x float64) float64 { return x }),
		trialMetric)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReduceBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, trials := range []int{1, 7, 64, 1000} {
		serial := digestOf(t, 1, trials)
		for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 32} {
			par := digestOf(t, w, trials)
			if par != serial {
				t.Fatalf("trials=%d workers=%d: %+v != serial %+v", trials, w, par, serial)
			}
		}
	}
}

// TestReduceMatchesRunPlusSummarize checks the streamed digest against
// a hand-driven serial loop over the same per-trial streams, summarised
// exactly: two-pass moments and the interpolated p95 of the sorted
// sample.
func TestReduceMatchesRunPlusSummarize(t *testing.T) {
	const trials = 500
	raw := make([]float64, trials)
	var sum float64
	for i := range raw {
		raw[i], _ = trialMetric(i, rng.NewStream(42, uint64(i)))
		sum += raw[i]
	}
	mean := sum / trials
	var ss float64
	for _, x := range raw {
		ss += (x - mean) * (x - mean)
	}
	sort.Float64s(raw)
	pos := 0.95 * (trials - 1)
	lo := int(pos)
	p95 := raw[lo] + (pos-float64(lo))*(raw[lo+1]-raw[lo])

	streaming := digestOf(t, 0, trials)
	if streaming.N != trials {
		t.Fatalf("N = %d, want %d", streaming.N, trials)
	}
	rel := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s = %v, exact %v", name, got, want)
		}
	}
	rel("mean", streaming.Mean, mean)
	rel("variance", streaming.Variance, ss/(trials-1))
	rel("min", streaming.Min, raw[0])
	rel("max", streaming.Max, raw[trials-1])
	// Quantiles go through the sketch: relative accuracy, not exact.
	if math.Abs(streaming.P95-p95) > 2*stats.DefaultSketchAlpha*p95 {
		t.Fatalf("p95 = %v, exact %v", streaming.P95, p95)
	}
}

func TestReduceWithStatePerWorkerReuse(t *testing.T) {
	type scratch struct{ uses int }
	red := Reducer[int, int]{
		New:   func() int { return 0 },
		Fold:  func(acc, _, v int) int { return acc + v },
		Merge: func(a, b int) (int, error) { return a + b, nil },
	}
	// Each trial contributes 1; the scratch state is exercised to ensure
	// worker-local reuse does not corrupt results.
	total, err := ReduceWithState(context.Background(), Spec{Trials: 300, Seed: 4, Workers: 8},
		red,
		func() *scratch { return &scratch{} },
		func(s *scratch, trial int, r *rng.Rand) (int, error) {
			s.uses++
			if s.uses < 1 {
				return 0, fmt.Errorf("state lost")
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if total != 300 {
		t.Fatalf("total = %d, want 300 (every trial folded exactly once)", total)
	}
}

func TestReduceErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := reduce(context.Background(), Spec{Trials: 200, Seed: 2, Workers: 4},
		DigestReducer(func(x float64) float64 { return x }),
		func(trial int, r *rng.Rand) (float64, error) {
			if trial == 131 {
				return 0, sentinel
			}
			return 1, nil
		})
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "sim: trial 131:") {
		t.Fatalf("err = %v, want wrapped sentinel naming trial 131", err)
	}
}

func TestReduceValidation(t *testing.T) {
	bad := Reducer[float64, *stats.Digest]{New: stats.NewDigest}
	if _, err := reduce(context.Background(), Spec{Trials: 1}, bad,
		func(int, *rng.Rand) (float64, error) { return 0, nil }); err == nil {
		t.Fatal("incomplete reducer should fail")
	}
}

// TestReduceContextCancellation: a context cancelled mid-run stops the
// ensemble before its next trial and returns the context's error.
func TestReduceContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	last := -1
	_, err := reduce(ctx, Spec{Trials: 100, Seed: 3, Workers: 1},
		DigestReducer(func(x float64) float64 { return x }),
		func(trial int, r *rng.Rand) (float64, error) {
			last = trial
			if trial == 5 {
				cancel()
			}
			return 1, nil
		})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "sim: cancelled") {
		t.Fatalf("err = %v, want the cancellation", err)
	}
	if last != 5 {
		t.Fatalf("trial %d ran after the cancel", last)
	}
}

func TestReduceMergeErrorSurfaces(t *testing.T) {
	red := Reducer[float64, *stats.Digest]{
		New: stats.NewDigest,
		Fold: func(d *stats.Digest, _ int, v float64) *stats.Digest {
			d.Add(v)
			return d
		},
		Merge: func(into, from *stats.Digest) (*stats.Digest, error) {
			return nil, errors.New("merge exploded")
		},
	}
	// Needs at least two shards for Merge to run: 200 trials > 64 shards.
	_, err := reduce(context.Background(), Spec{Trials: 200, Seed: 5}, red,
		func(trial int, r *rng.Rand) (float64, error) { return 1, nil })
	if err == nil || !strings.Contains(err.Error(), "merge exploded") {
		t.Fatalf("merge error should surface, got %v", err)
	}
}

func TestReduceTrialsMatchRunStreams(t *testing.T) {
	// Trial i must draw from exactly rng.NewStream(Seed, i): fold the
	// first random uint64 of each trial via XOR (order-independent) and
	// compare against a hand-driven serial loop over those streams.
	xorRed := Reducer[uint64, uint64]{
		New:   func() uint64 { return 0 },
		Fold:  func(acc uint64, _ int, v uint64) uint64 { return acc ^ v },
		Merge: func(a, b uint64) (uint64, error) { return a ^ b, nil },
	}
	got, err := reduce(context.Background(), Spec{Trials: 777, Seed: 9, Workers: 16}, xorRed,
		func(trial int, r *rng.Rand) (uint64, error) { return r.Uint64(), nil })
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < 777; i++ {
		want ^= rng.NewStream(9, uint64(i)).Uint64()
	}
	if got != want {
		t.Fatalf("stream fold = %x, want %x", got, want)
	}
}

func TestShardRangeCoversAllTrials(t *testing.T) {
	for _, trials := range []int{1, 2, 63, 64, 65, 100, 1000} {
		shards := reduceShards
		if shards > trials {
			shards = trials
		}
		covered := 0
		prevHi := 0
		for s := 0; s < shards; s++ {
			lo, hi := shardRange(trials, shards, s)
			if lo != prevHi {
				t.Fatalf("trials=%d shard %d: lo=%d, want %d (contiguous)", trials, s, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("trials=%d shard %d: empty-inverted [%d,%d)", trials, s, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != trials || prevHi != trials {
			t.Fatalf("trials=%d: covered %d, end %d", trials, covered, prevHi)
		}
	}
}

func ExampleReduceWithState() {
	// The per-worker state is empty here; an ensemble passes the process
	// object each worker reuses across its trials.
	d, err := ReduceWithState(context.Background(), Spec{Trials: 100000, Seed: 7},
		DigestReducer(func(x float64) float64 { return x }),
		func() struct{} { return struct{}{} },
		func(_ struct{}, trial int, r *rng.Rand) (float64, error) { return float64(trial % 10), nil })
	if err != nil {
		panic(err)
	}
	s, _ := d.Summary()
	fmt.Printf("n=%d mean=%.1f min=%.0f max=%.0f\n", s.N, s.Mean, s.Min, s.Max)
	// Output: n=100000 mean=4.5 min=0 max=9
}
