package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cobrawalk/internal/rng"
)

// collect runs fn through ReduceWithState with a fold that stores each
// result at its trial index, so a test can inspect every trial.
func collect[T any](ctx context.Context, spec Spec, fn func(trial int, r *rng.Rand) (T, error)) ([]T, error) {
	out := make([]T, max(spec.Trials, 0))
	_, err := reduce(ctx, spec, Reducer[T, []T]{
		New: func() []T { return out },
		Fold: func(acc []T, trial int, v T) []T {
			acc[trial] = v
			return acc
		},
		Merge: func(into, _ []T) ([]T, error) { return into, nil },
	}, fn)
	return out, err
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		res, err := collect(context.Background(), Spec{Trials: 64, Seed: 42, Workers: workers},
			func(trial int, r *rng.Rand) (float64, error) {
				// Consume a trial-dependent amount of randomness to make
				// any stream-sharing bug visible.
				sum := 0.0
				for i := 0; i <= trial%7; i++ {
					sum += r.Float64()
				}
				return sum, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{2, 4, 16} {
		par := run(w)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: trial %d = %v, serial = %v", w, i, par[i], serial[i])
			}
		}
	}
}

// TestRunResultsInTrialOrder pins Fold's trial argument: every trial's
// value arrives with its own index.
func TestRunResultsInTrialOrder(t *testing.T) {
	res, err := collect(context.Background(), Spec{Trials: 100, Seed: 1},
		func(trial int, r *rng.Rand) (int, error) { return trial * trial, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

// TestRunErrorPropagation: on one worker the first error stops the run,
// so no later trial starts, and the error names its trial.
func TestRunErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	last := -1
	_, err := collect(context.Background(), Spec{Trials: 50, Seed: 2, Workers: 1},
		func(trial int, r *rng.Rand) (int, error) {
			last = trial
			if trial == 13 {
				return 0, sentinel
			}
			return trial, nil
		})
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "trial 13") {
		t.Fatalf("err = %v, want wrapped sentinel naming trial 13", err)
	}
	if last != 13 {
		t.Fatalf("trial %d ran after trial 13 failed", last)
	}
}

func TestRunValidation(t *testing.T) {
	for _, trials := range []int{0, -1} {
		if _, err := collect(context.Background(), Spec{Trials: trials},
			func(int, *rng.Rand) (int, error) { return 0, nil }); err == nil {
			t.Fatalf("trials = %d should fail", trials)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before start
	ran := false
	_, err := collect(ctx, Spec{Trials: 10, Seed: 3},
		func(trial int, r *rng.Rand) (int, error) {
			ran = true
			return trial, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("a trial ran under a pre-cancelled context")
	}
}

func TestRunWithStatePerWorkerReuse(t *testing.T) {
	// Each worker gets its own scratch state, built once and reused for
	// every trial that worker runs; concurrent trials never observe
	// another worker's state.
	type scratch struct{ uses int }
	const trials, workers = 200, 8
	states := make(chan *scratch, trials)
	red := Reducer[int, int]{
		New:   func() int { return 0 },
		Fold:  func(acc, _, v int) int { return max(acc, v) },
		Merge: func(a, b int) (int, error) { return max(a, b), nil },
	}
	maxUse, err := ReduceWithState(context.Background(), Spec{Trials: trials, Seed: 4, Workers: workers}, red,
		func() *scratch {
			s := &scratch{}
			states <- s
			return s
		},
		func(s *scratch, trial int, r *rng.Rand) (int, error) {
			s.uses++
			return s.uses, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	close(states)
	built, total := 0, 0
	for s := range states {
		built++
		total += s.uses
	}
	if built > workers || total != trials {
		t.Fatalf("%d states ran %d trials, want at most %d states and %d trials", built, total, workers, trials)
	}
	if maxUse < trials/workers {
		t.Fatalf("max per-worker use %d suspiciously small (state not reused?)", maxUse)
	}
}

func TestSpecWorkersClamp(t *testing.T) {
	s := Spec{Trials: 3, Workers: 100}
	if got := s.workers(); got != 3 {
		t.Fatalf("workers clamped to %d, want 3", got)
	}
	s = Spec{Trials: 5, Workers: -1}
	if got := s.workers(); got < 1 {
		t.Fatalf("workers = %d", got)
	}
}
