package difftest

import (
	"errors"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// TestKernelWorkerCountsPairwise sweeps further kernel worker counts on
// one representative graph: each must match the reference, so any two
// counts agree, not just the grid's 1, 3 and 8 (a bug that only bites
// when chunks outnumber workers by a particular ratio would hide from a
// few pairings).
func TestKernelWorkerCountsPairwise(t *testing.T) {
	g, err := graph.RandomRegularConnected(256, 8, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{process.Cobra, process.BIPS} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, w := range []int{2, 5, 16} {
				cfg := process.Config{KernelWorkers: w}
				if err := Lockstep(g, cfg, nativeFactory(t, name), Reference(name), 77, 1<<14, 0); err != nil {
					t.Fatalf("workers %d: %v", w, err)
				}
			}
		})
	}
}

// TestLockstepKernelWidthHasTeeth proves the grid's worker-count axis
// bites: a factory that skews the branching factor only when built
// with eight kernel workers passes at one worker and must fail at eight
// with a *Mismatch.
func TestLockstepKernelWidthHasTeeth(t *testing.T) {
	g, err := graph.RandomRegularConnected(128, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	skewed := func(g *graph.Graph, cfg process.Config) (process.Process, error) {
		if cfg.KernelWorkers == 8 {
			cfg.Branching = process.Branching{K: 3}
		}
		return nativeFactory(t, process.Cobra)(g, cfg)
	}
	cfg := process.Config{Branching: process.Branching{K: 2}, KernelWorkers: 1}
	if err := Lockstep(g, cfg, skewed, NewReferenceCobra, 11, 1<<14, 0); err != nil {
		t.Fatalf("unskewed width failed: %v", err)
	}
	cfg.KernelWorkers = 8
	err = Lockstep(g, cfg, skewed, NewReferenceCobra, 11, 1<<14, 0)
	var mm *Mismatch
	if !errors.As(err, &mm) {
		t.Fatalf("engine skewed at 8 kernel workers passed the lockstep harness: %v", err)
	}
}
