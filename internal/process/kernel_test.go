package process

import (
	"path/filepath"
	"sync"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/rng"
)

// TestKernelStepZeroAlloc pins the kernel engines' steady-state
// allocation contract: after construction and one warm-up run, whole
// trials (Reset + Steps) on a multi-worker kernel perform zero
// allocations — the pool dispatch, the per-chunk reseeds, the bulk-draw
// refills and the staging writes all reuse construction-time buffers —
// at the default branching and at 1+0.5.
func TestKernelStepZeroAlloc(t *testing.T) {
	g := expander(t, 1<<12, 8)
	for _, name := range []string{Cobra, BIPS} {
		for _, br := range []Branching{DefaultBranching, {K: 1, Rho: 0.5}} {
			label := name
			if br.Rho > 0 {
				label += "/" + br.String()
			}
			t.Run(label, func(t *testing.T) {
				p, err := New(name, g, Config{Branching: br, KernelWorkers: 4})
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(3)
				starts := []int32{0}
				if _, err := Run(p, r, 0, starts...); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := Run(p, r, 0, starts...); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("%s %s steady-state trial allocates %.1f times, want 0", name, br, allocs)
				}
			})
		}
	}
}

// TestKernelHammerSharedMmapGraph is the race hammer: 16 goroutines,
// each owning a kernel engine with several workers, run concurrent
// Reset/Step trials over ONE shared memory-mapped graph. Under -race
// this proves the parallel phase reads the shared CSR arrays without a
// single write, and that no two engines' pools interfere. Each
// goroutine also checks its runs stay deterministic while the other 15
// hammer the same mapping.
func TestKernelHammerSharedMmapGraph(t *testing.T) {
	g, err := graph.RandomRegularConnected(1<<10, 8, rng.New(1234))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hammer.csrg")
	if err := graphstore.Write(path, g); err != nil {
		t.Fatal(err)
	}
	shared, err := graphstore.Mmap(path)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		name := Cobra
		if i%2 == 1 {
			name = BIPS
		}
		p, err := New(name, shared, Config{KernelWorkers: 3})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, p Process) {
			defer wg.Done()
			r := rng.New(uint64(i))
			first, err := Run(p, r, 1<<14, 0)
			if err != nil {
				errc <- err
				return
			}
			for trial := 0; trial < 4; trial++ {
				again, err := Run(p, rng.New(uint64(i)), 1<<14, 0)
				if err != nil {
					errc <- err
					return
				}
				if again != first {
					errc <- &Mismatched{i, trial, first, again}
					return
				}
			}
		}(i, p)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// Mismatched reports a hammer goroutine whose repeat run diverged.
type Mismatched struct {
	Goroutine, Trial int
	Want, Got        Result
}

func (m *Mismatched) Error() string {
	return "kernel hammer: goroutine repeat run diverged"
}
