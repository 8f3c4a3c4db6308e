package process

import (
	"path/filepath"
	"slices"
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

// TestBipsMarkMerge pins bips' candidate collection at three kernel
// workers with fixed chunk-to-worker assignments, which the pool's
// dynamic claiming cannot promise: whichever worker marks which block
// of A_t, the enumeration must list Γ(A_t) minus the source in ascending
// order and leave every worker's map zero, so no mark leaks into the
// next collection. A_t spans up to four blocks, n is not a multiple of
// 8, and the sets run back to back on one engine, sparse, dense and
// full (the direct write), on a regular and an irregular graph.
func TestBipsMarkMerge(t *testing.T) {
	torus, err := graph.Torus(90, 91) // n = 8190, deg 4
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.ErdosRenyi(8189, 16.0/8189, rng.New(8189))
	if err != nil {
		t.Fatal(err)
	}
	if gnp.MinDegree() == 0 {
		t.Fatal("G(n, p) has an isolated vertex; pick another seed")
	}
	const workers = 3
	assignments := []struct {
		name   string
		worker func(chunk int) int
	}{
		{"all on worker 0", func(int) int { return 0 }},
		{"round robin", func(c int) int { return c % workers }},
		{"all on last", func(int) int { return workers - 1 }},
		{"skip worker 0", func(c int) int { return 1 + c%2 }},
		{"pairs per worker", func(c int) int { return (c / 2) % workers }},
	}
	for _, g := range []*graph.Graph{torus, gnp} {
		t.Run(g.Name(), func(t *testing.T) {
			p, err := New(BIPS, g, Config{KernelWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			bp := p.(*bipsProc)
			r := rng.New(uint64(g.N()))
			for _, frac := range []float64{0.01, 0.75, 0.3, 1, 0.5} {
				for _, as := range assignments {
					starts := []int32{int32(r.Intn(g.N()))}
					for v := int32(0); int(v) < g.N(); v++ {
						if r.Float64() < frac {
							starts = append(starts, v)
						}
					}
					if err := bp.Reset(starts...); err != nil {
						t.Fatal(err)
					}
					for w, mark := range bp.marks {
						mark[bp.source] = 1
						bp.marked[w] = 0
					}
					for c := 0; c < chunksFor(bp.infLen); c++ {
						(*bipsMark)(bp).runChunk(as.worker(c), c)
					}
					got := bp.candBuf[:bp.enumerate()]
					var want []int32
					for u := int32(0); int(u) < g.N(); u++ {
						if u == bp.source {
							continue
						}
						for _, w := range g.Neighbors(u) {
							if bp.infB[w] == 1 {
								want = append(want, u)
								break
							}
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("|A_t| = %d, %s: %d candidates, want %d", bp.infLen, as.name, len(got), len(want))
					}
					for w, mark := range bp.marks {
						if i := slices.IndexFunc(mark, func(b uint8) bool { return b != 0 }); i >= 0 {
							t.Fatalf("|A_t| = %d, %s: worker %d's map still marks vertex %d", bp.infLen, as.name, w, i)
						}
					}
				}
			}
		})
	}
}
