// Benchmark harness: one benchmark per core reproduction experiment
// (E1-E11; see DESIGN.md §3 and EXPERIMENTS.md for the full E1-E15
// catalogue) plus micro-benchmarks of the hot paths, including the
// streaming aggregation layer (sim.ReduceWithState + stats.Digest). Each experiment
// benchmark exercises the same workload as its internal/expt counterpart
// at a fixed representative size and reports the domain metric (rounds,
// infection time) alongside ns/op, so `go test -bench=. -benchmem`
// regenerates the headline series of every table in EXPERIMENTS.md.
package cobrawalk_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/spectral"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

func buildRandomRegular(b *testing.B, n, deg int) *graph.Graph {
	b.Helper()
	g, err := graph.RandomRegularConnected(n, deg, rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchRounds runs one full registry-process trial from vertex 0 per op
// and reports the mean completion round.
func benchRounds(b *testing.B, name string, g *graph.Graph, branch process.Branching) {
	b.Helper()
	p, err := process.New(name, g, process.Config{Branching: branch})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	var rounds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := process.Run(p, r, 1<<20, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Done {
			b.Fatalf("%s run hit the round cap", name)
		}
		rounds += int64(res.Rounds)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

func benchCover(b *testing.B, g *graph.Graph, branch process.Branching) {
	benchRounds(b, process.Cobra, g, branch)
}

func benchInfect(b *testing.B, g *graph.Graph, branch process.Branching) {
	benchRounds(b, process.BIPS, g, branch)
}

// BenchmarkE1CobraCoverExpander: Theorem 1 — cover time across degrees at
// fixed n; rounds/op should be ~equal across sub-benchmarks (degree
// independence) and ~logarithmic in n.
func BenchmarkE1CobraCoverExpander(b *testing.B) {
	for _, deg := range []int{3, 8, 16} {
		b.Run(fmt.Sprintf("r=%d/n=4096", deg), func(b *testing.B) {
			benchCover(b, buildRandomRegular(b, 4096, deg), core.DefaultBranching)
		})
	}
	b.Run("complete/n=1024", func(b *testing.B) {
		g, err := graph.Complete(1024)
		if err != nil {
			b.Fatal(err)
		}
		benchCover(b, g, core.DefaultBranching)
	})
}

// BenchmarkE2BipsInfection: Theorem 2 — infection time on the same
// families; duality (Theorem 4) predicts rounds/op tracks E1.
func BenchmarkE2BipsInfection(b *testing.B) {
	for _, deg := range []int{4, 12} {
		b.Run(fmt.Sprintf("r=%d/n=4096", deg), func(b *testing.B) {
			benchInfect(b, buildRandomRegular(b, 4096, deg), core.DefaultBranching)
		})
	}
}

// BenchmarkE3FractionalBranching: Theorem 3 — cover time under branching
// 1+ρ; rounds/op should scale ≈ 1/ρ.
func BenchmarkE3FractionalBranching(b *testing.B) {
	g := buildRandomRegular(b, 2048, 8)
	for _, rho := range []float64{0.1, 0.25, 0.5, 0.9} {
		b.Run(fmt.Sprintf("rho=%.2f", rho), func(b *testing.B) {
			benchCover(b, g, process.Branching{K: 1, Rho: rho})
		})
	}
}

// BenchmarkE4Duality: Theorem 4 — the exact subset-space verification and
// the Monte-Carlo estimator.
func BenchmarkE4Duality(b *testing.B) {
	b.Run("exact/petersen", func(b *testing.B) {
		g, err := graph.Petersen()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ed, err := core.ComputeExactDuality(g, 0, 8, core.DefaultBranching)
			if err != nil {
				b.Fatal(err)
			}
			if ed.MaxAbsError() > 1e-10 {
				b.Fatal("duality violated")
			}
		}
	})
	b.Run("montecarlo/rand-3-reg-128", func(b *testing.B) {
		g := buildRandomRegular(b, 128, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.EstimateDuality(g, 1, 0, 8, 500, core.DefaultBranching, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5GrowthBound: Lemma 1 — closed-form conditional growth
// evaluation against the spectral bound.
func BenchmarkE5GrowthBound(b *testing.B) {
	g := buildRandomRegular(b, 4096, 8)
	lambda, err := spectral.LambdaMax(g)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(3)
	set, err := core.RandomInfectedSet(g, 0, 512, r)
	if err != nil {
		b.Fatal(err)
	}
	bound := core.Lemma1Bound(len(set), g.N(), lambda, core.DefaultBranching)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact, err := core.ExactExpectedGrowth(g, 0, set, core.DefaultBranching)
		if err != nil {
			b.Fatal(err)
		}
		if exact < bound-1e-9 {
			b.Fatal("Lemma 1 violated")
		}
	}
}

// BenchmarkE6BipsPhases: Lemmas 2-4 — full trajectory with phase
// detection.
func BenchmarkE6BipsPhases(b *testing.B) {
	g := buildRandomRegular(b, 4096, 8)
	col := process.NewCollector(g.N())
	p, err := process.New(process.BIPS, g, process.Config{Observer: col.Observe})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := process.RunCollect(nil, p, col, r, 1<<20, 0); err != nil {
			b.Fatal(err)
		}
		ph := core.DetectPhases(col.Active(), g.N(), 48)
		if ph.Full < 0 {
			b.Fatal("phase detection failed")
		}
	}
}

// BenchmarkE7LambdaSweep: gap dependence — cover time on a skewed torus
// (small gap) vs a square torus (larger gap).
func BenchmarkE7LambdaSweep(b *testing.B) {
	shapes := [][2]int{{64, 64}, {256, 16}, {1024, 4}}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("torus-%dx%d", s[0], s[1]), func(b *testing.B) {
			g, err := graph.Torus(s[0], s[1])
			if err != nil {
				b.Fatal(err)
			}
			benchCover(b, g, core.DefaultBranching)
		})
	}
}

// BenchmarkE8FamilyScaling: the Dutta et al. families — K_n (log n),
// constant-degree expander (log n, improved from log² n), 2-D torus
// (≈ √n).
func BenchmarkE8FamilyScaling(b *testing.B) {
	b.Run("complete-2048", func(b *testing.B) {
		g, err := graph.Complete(2048)
		if err != nil {
			b.Fatal(err)
		}
		benchCover(b, g, core.DefaultBranching)
	})
	b.Run("rand-3-reg-4096", func(b *testing.B) {
		benchCover(b, buildRandomRegular(b, 4096, 3), core.DefaultBranching)
	})
	b.Run("torus-64x64", func(b *testing.B) {
		g, err := graph.Torus(64, 64)
		if err != nil {
			b.Fatal(err)
		}
		benchCover(b, g, core.DefaultBranching)
	})
}

// BenchmarkE9ProtocolComparison: COBRA vs the baseline broadcast
// protocols on one expander.
func BenchmarkE9ProtocolComparison(b *testing.B) {
	g := buildRandomRegular(b, 2048, 8)
	b.Run("cobra-k2", func(b *testing.B) { benchCover(b, g, core.DefaultBranching) })
	b.Run("push", func(b *testing.B) { benchRounds(b, process.Push, g, process.Branching{}) })
	b.Run("push-pull", func(b *testing.B) { benchRounds(b, process.PushPull, g, process.Branching{}) })
	b.Run("flood", func(b *testing.B) { benchRounds(b, process.Flood, g, process.Branching{}) })
}

// BenchmarkE10Bipartite: the λ = 1 scope boundary — COBRA still covers
// hypercubes and K_{r,r} fast.
func BenchmarkE10Bipartite(b *testing.B) {
	b.Run("hypercube-12", func(b *testing.B) {
		g, err := graph.Hypercube(12)
		if err != nil {
			b.Fatal(err)
		}
		benchCover(b, g, core.DefaultBranching)
	})
	b.Run("K512,512", func(b *testing.B) {
		g, err := graph.CompleteBipartite(512, 512)
		if err != nil {
			b.Fatal(err)
		}
		benchCover(b, g, core.DefaultBranching)
	})
}

// BenchmarkE11TailDecay: tail sampling for the eq. (1) restart argument —
// one cover run per iteration feeds the empirical survival function.
func BenchmarkE11TailDecay(b *testing.B) {
	benchCover(b, buildRandomRegular(b, 1024, 8), core.DefaultBranching)
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkProcessStep: the unified process layer's hot loop — one full
// collected trial (Reset + Begin + Step to completion from vertex 0,
// default branching) per op for every registered process on a
// 2^14-vertex random-regular graph, with a metrics Collector attached,
// plus every process that accepts it (cobra, bips) at Theorem 3's
// fractional branching 1+0.5.
// allocs/op is the buffer-reuse pin: a warmed Process+Collector pair
// must run whole trials with zero graph-sized allocations
// (AllocsPerRun-style zero is asserted in internal/process tests; here
// the benchmark reports it so regressions show up in the series). The
// committed baseline lives in BENCH_process.json.
func BenchmarkProcessStep(b *testing.B) {
	g := buildRandomRegular(b, 1<<14, 8)
	starts := []int32{0}
	type row struct {
		name string
		info process.Info
		br   process.Branching
	}
	var rows []row
	for _, info := range process.All() {
		rows = append(rows, row{info.Name, info, process.Branching{}})
		if info.AcceptsRho {
			rows = append(rows, row{info.Name + "-1+0.5", info, process.Branching{K: 1, Rho: 0.5}})
		}
	}
	for _, rw := range rows {
		b.Run(rw.name, func(b *testing.B) {
			col := process.NewCollector(g.N())
			// Reserve the full round cap so series growth cannot charge a
			// long-tailed trial (kwalk runs Θ(n log n) rounds) with an
			// amortised reallocation mid-measurement.
			col.Reserve(1 << 20)
			p, err := rw.info.New(g, process.Config{Branching: rw.br, Observer: col.Observe})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(1)
			trial := func() int {
				res, err := process.RunCollect(nil, p, col, r, 1<<20, starts...)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Done {
					b.Fatal("trial hit the round cap")
				}
				return res.Rounds
			}
			trial() // warm the process buffers so steady-state allocation is measured
			var rounds int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rounds += int64(trial())
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkTrajectoryEnsemble: the trajectory pipeline end to end — a
// 256-trial BIPS ensemble on a 2^12-vertex expander, each trial's
// reached and active series folded through reusable collectors into two
// mergeable TrajectoryDigests, then summarised into per-round
// p10/p50/p90 bands. This is the hot path of a trajectory-enabled sweep
// point and of the data behind /v1/jobs/{id}/trajectories. The committed
// baseline lives in BENCH_trajectory.json.
func BenchmarkTrajectoryEnsemble(b *testing.B) {
	g := buildRandomRegular(b, 1<<12, 8)
	type state struct {
		p   process.Process
		col *process.Collector
	}
	type acc struct {
		coverage, frontier *stats.TrajectoryDigest
	}
	red := sim.Reducer[*process.Collector, acc]{
		New: func() acc {
			return acc{coverage: stats.NewTrajectoryDigest(), frontier: stats.NewTrajectoryDigest()}
		},
		Fold: func(a acc, _ int, col *process.Collector) acc {
			a.coverage.AddTrial(col.Reached())
			a.frontier.AddTrial(col.Active())
			return a
		},
		Merge: func(into, from acc) (acc, error) {
			if err := into.coverage.Merge(from.coverage); err != nil {
				return acc{}, err
			}
			if err := into.frontier.Merge(from.frontier); err != nil {
				return acc{}, err
			}
			return into, nil
		},
	}
	spec := sim.Spec{Trials: 256, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, err := sim.ReduceWithState(context.Background(), spec, red,
			func() state {
				col := process.NewCollector(g.N())
				p, err := process.New(process.BIPS, g, process.Config{Observer: col.Observe})
				if err != nil {
					panic(err)
				}
				return state{p: p, col: col}
			},
			func(st state, _ int, r *rng.Rand) (*process.Collector, error) {
				res, err := process.RunCollect(nil, st.p, st.col, r, 1<<20, 0)
				if err != nil {
					return nil, err
				}
				if !res.Done {
					return nil, fmt.Errorf("uninfected trial")
				}
				return st.col, nil
			})
		if err != nil {
			b.Fatal(err)
		}
		s, err := total.coverage.Summary()
		if err != nil {
			b.Fatal(err)
		}
		if s.N[0] != spec.Trials || s.Mean[0] != 1 {
			b.Fatalf("degenerate ensemble: %v trials at start, mean %v", s.N[0], s.Mean[0])
		}
		if i == 0 {
			b.ReportMetric(float64(total.coverage.Columns()), "columns")
		}
	}
}

// BenchmarkDigestFold: per-observation cost of the streaming accumulator
// (Welford + min/max + sketch bucket increment) — the inner loop of every
// full-scale ensemble.
func BenchmarkDigestFold(b *testing.B) {
	d := stats.NewDigest()
	r := rng.New(1)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 1 + 100*r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(xs[i&1023])
	}
}

// BenchmarkReduceEnsemble: the streaming harness end to end — 10⁴ COBRA
// cover trials on a small expander folded into a digest. Allocations per
// op must stay flat as trials grow (O(shards) accumulators, no per-trial
// slice).
func BenchmarkReduceEnsemble(b *testing.B) {
	g := buildRandomRegular(b, 256, 8)
	spec := sim.Spec{Trials: 10000, Seed: 1}
	newCobra := func() process.Process {
		c, err := process.New(process.Cobra, g, process.Config{})
		if err != nil {
			panic(err)
		}
		return c
	}
	trial := func(c process.Process, _ int, r *rng.Rand) (float64, error) {
		res, err := process.Run(c, r, 1<<20, 0)
		if err != nil {
			return 0, err
		}
		return float64(res.Rounds), nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := sim.ReduceWithState(context.Background(), spec,
			sim.DigestReducer(func(x float64) float64 { return x }), newCobra, trial)
		if err != nil {
			b.Fatal(err)
		}
		if d.Stream.Mean() <= 0 {
			b.Fatal("degenerate ensemble")
		}
	}
}

// BenchmarkSweep: the declarative sweep engine end to end on a small
// grid with smoke-scale trials — expansion, point scheduling, graph
// construction and the streamed ensembles. Tracks sweep-scheduling
// overhead: compare against the raw ensemble cost in
// BenchmarkReduceEnsemble when the gap matters.
func BenchmarkSweep(b *testing.B) {
	spec := sweep.Spec{
		Name:      "bench",
		Families:  []string{"rand-reg", "complete"},
		Sizes:     []int{64, 128},
		Degrees:   []int{4},
		Processes: []string{sweep.ProcCobra, sweep.ProcPush},
		Trials:    8,
		Seed:      1,
	}
	pts, err := spec.Points()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(context.Background(), spec, sweep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != len(pts) {
			b.Fatalf("got %d results, want %d", len(rep.Results), len(pts))
		}
	}
	b.ReportMetric(float64(len(pts)), "points/op")
}

func BenchmarkLambdaMax(b *testing.B) {
	g := buildRandomRegular(b, 16384, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.LambdaMax(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomRegularGeneration(b *testing.B) {
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.RandomRegular(16384, 8, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleBaseline is the n = 10^7 expander baseline: one full
// collected trial per op for the cobra and bips engines (at the default
// single kernel worker) on a 10^7-vertex random-regular graph of degree
// 8 — the scale the paper's O(log n) cover-time results become
// compelling at. Building that graph takes minutes and the CSR alone is
// ~400 MB, so the benchmark is opt-in: set COBRAWALK_SCALE_BENCH=1 to
// run it. The committed record lives in BENCH_scale.json.
func BenchmarkScaleBaseline(b *testing.B) {
	if os.Getenv("COBRAWALK_SCALE_BENCH") == "" {
		b.Skip("set COBRAWALK_SCALE_BENCH=1 to run the n=10^7 baseline")
	}
	g := buildRandomRegular(b, 10_000_000, 8)
	starts := []int32{0}
	for _, name := range []string{process.Cobra, process.BIPS} {
		b.Run(name, func(b *testing.B) {
			col := process.NewCollector(g.N())
			col.Reserve(1 << 12)
			p, err := process.New(name, g, process.Config{Observer: col.Observe})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(1)
			trial := func() int {
				res, err := process.RunCollect(nil, p, col, r, 1<<12, starts...)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Done {
					b.Fatal("trial hit the round cap")
				}
				return res.Rounds
			}
			trial()
			var rounds int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rounds += int64(trial())
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkScaleParallel measures the round kernel at the baseline's
// n = 10^7 scale: one full collected trial per op for cobra and bips,
// each at kernel worker counts 1 and GOMAXPROCS. The w1 and wN results
// are byte-identical by the kernel's determinism contract (pinned in
// internal/process/difftest), so the ratio between them is pure kernel
// speedup with zero semantic risk; on a single-core runner only w1
// runs. Opt-in via COBRAWALK_SCALE_BENCH=1 like the baseline; the
// committed record lives in BENCH_scale.json.
func BenchmarkScaleParallel(b *testing.B) {
	if os.Getenv("COBRAWALK_SCALE_BENCH") == "" {
		b.Skip("set COBRAWALK_SCALE_BENCH=1 to run the n=10^7 parallel-kernel benchmark")
	}
	g := buildRandomRegular(b, 10_000_000, 8)
	starts := []int32{0}
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	if workerCounts[1] == 1 {
		workerCounts = workerCounts[:1]
	}
	for _, name := range []string{process.Cobra, process.BIPS} {
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("%s/w%d", name, w), func(b *testing.B) {
				col := process.NewCollector(g.N())
				col.Reserve(1 << 12)
				p, err := process.New(name, g, process.Config{Observer: col.Observe, KernelWorkers: w})
				if err != nil {
					b.Fatal(err)
				}
				r := rng.New(1)
				trial := func() int {
					res, err := process.RunCollect(nil, p, col, r, 1<<12, starts...)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Done {
						b.Fatal("trial hit the round cap")
					}
					return res.Rounds
				}
				trial()
				var rounds int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rounds += int64(trial())
				}
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
				b.ReportMetric(float64(w), "workers")
			})
		}
	}
}

// BenchmarkScaleStoreLoad measures the graph store's load path at the
// same n = 10^7 scale as BenchmarkScaleBaseline: the generator builds the
// expander once (minutes of CPU — reported as generator_s), the store
// file is written next to it, and then "mmap" times graphstore.Mmap of
// the ~400 MB file while "cobra-trial" re-runs the baseline cobra trial
// on the mmap-loaded graph — pinning that zero-copy loading preserves
// the engine's 0 allocs/op and per-trial latency. Opt-in via
// COBRAWALK_SCALE_BENCH=1 like the baseline; the committed record lives
// in BENCH_scale.json.
func BenchmarkScaleStoreLoad(b *testing.B) {
	if os.Getenv("COBRAWALK_SCALE_BENCH") == "" {
		b.Skip("set COBRAWALK_SCALE_BENCH=1 to run the n=10^7 store benchmark")
	}
	buildStart := time.Now()
	g := buildRandomRegular(b, 10_000_000, 8)
	buildSecs := time.Since(buildStart).Seconds()
	path := filepath.Join(b.TempDir(), "scale.csrg")
	if err := graphstore.Write(path, g); err != nil {
		b.Fatal(err)
	}
	g = nil

	var loaded *graph.Graph
	b.Run("mmap", func(b *testing.B) {
		b.ReportMetric(buildSecs, "generator_s")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			loaded, err = graphstore.Mmap(path)
			if err != nil {
				b.Fatal(err)
			}
		}
		if loaded.N() != 10_000_000 {
			b.Fatalf("loaded n = %d", loaded.N())
		}
	})

	// Same load with both madvise hints requested (-graph-madvise
	// willneed,hugepage): the delta against plain mmap is what the
	// advice costs or saves on this kernel/page-cache state.
	b.Run("mmap-advise", func(b *testing.B) {
		adv := graphstore.Advice{WillNeed: true, HugePage: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := graphstore.MmapAdvise(path, adv)
			if err != nil {
				b.Fatal(err)
			}
			if g.N() != 10_000_000 {
				b.Fatalf("loaded n = %d", g.N())
			}
		}
	})

	b.Run("cobra-trial", func(b *testing.B) {
		col := process.NewCollector(loaded.N())
		col.Reserve(1 << 12)
		p, err := process.New(process.Cobra, loaded, process.Config{Observer: col.Observe})
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(1)
		starts := []int32{0} // hoisted: an inline variadic literal costs an alloc per call
		trial := func() int {
			res, err := process.RunCollect(nil, p, col, r, 1<<12, starts...)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Done {
				b.Fatal("trial hit the round cap")
			}
			return res.Rounds
		}
		trial()
		var rounds int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rounds += int64(trial())
		}
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	})
}
