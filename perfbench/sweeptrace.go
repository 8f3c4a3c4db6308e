package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// sweepTrace accumulates the per-layer measurements of a traced sweep
// pass: graph acquisition, sweep points from the PointStart/PointDone
// hooks, and a replay of every point's ensemble through sim, process and
// stats with the point's own seed and configuration.
type sweepTrace struct {
	b          *bench
	acquire    time.Duration // graph acquisition spans
	buildTime  time.Duration // generator time inside acquisition (misses)
	sweepWall  time.Duration // sweep.Run calls
	pointSpans []float64     // ms
	replay     time.Duration // replayed ensembles (sim spans)
	trialMs    []float64
	roundMs    []float64
	rounds     int64
	vertexRnds float64
	trans      int64
	busy       time.Duration
	cpu        float64 // CPU seconds inside replayed ensembles
	allocs     []float64
	artifactB  int64
}

// acquireGraphs realises each of spec's topologies through cache before
// the sweep runs, one span per topology, with the generator timed as a
// child span when the cache misses.
func (st *sweepTrace) acquireGraphs(cache *graphcache.Cache, spec sweep.Spec) error {
	pts, err := spec.Points()
	if err != nil {
		return err
	}
	seen := map[graphcache.Key]bool{}
	for _, pt := range pts {
		key := pointKey(pt)
		if seen[key] {
			continue
		}
		seen[key] = true
		t0 := time.Now()
		var bStart, bEnd time.Time
		_, err := cache.GetOrBuild(key, func() (*graph.Graph, error) {
			bStart = time.Now()
			defer func() { bEnd = time.Now() }()
			g, _, err := sweep.BuildTopology(pt.Family, pt.Size, pt.Degree, spec.Seed)
			return g, err
		})
		if err != nil {
			return fmt.Errorf("acquiring %s: %w", key, err)
		}
		t1 := time.Now()
		id := st.b.tr.add(0, key.String(), "graphcache", "GetOrBuild", t0, t1)
		if !bStart.IsZero() {
			st.b.tr.add(id, key.String(), "graph", "BuildTopology", bStart, bEnd)
			st.buildTime += bEnd.Sub(bStart)
		}
		st.acquire += t1.Sub(t0)
	}
	return nil
}

// pointKey is the graph cache key a sweep files pt's graph under.
func pointKey(pt sweep.Point) graphcache.Key {
	return graphcache.Key{Family: pt.Family, Size: pt.Size, Degree: pt.Degree, Seed: pt.GraphSeed}
}

// run executes one sweep with point spans from the hooks, then replays
// each completed point.
func (st *sweepTrace) run(ctx context.Context, spec sweep.Spec, opts sweep.Options) (*sweep.Report, error) {
	starts := map[string]time.Time{}
	opts.PointStart = func(pt sweep.Point) { starts[pt.ID] = time.Now() }
	opts.PointDone = func(res sweep.Result, _ bool) {
		end := time.Now()
		st.b.tr.add(0, res.ID, "sweep", "point", starts[res.ID], end)
		st.pointSpans = append(st.pointSpans, ms(end.Sub(starts[res.ID])))
	}
	t0 := time.Now()
	rep, err := sweep.Run(ctx, spec, opts)
	st.sweepWall += time.Since(t0)
	if err != nil {
		return nil, err
	}
	if opts.Dir != "" {
		st.artifactB += dirBytes(opts.Dir)
	}
	for _, res := range rep.Results {
		g, err := opts.GraphCache.GetOrBuild(pointKey(res.Point), func() (*graph.Graph, error) {
			g, _, err := sweep.BuildTopology(res.Family, res.Size, res.Degree, spec.Seed)
			return g, err
		})
		if err != nil {
			return nil, err
		}
		if err := st.replayPoint(ctx, g, res, opts.TrialWorkers); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", res.ID, err)
		}
	}
	return rep, nil
}

// replayAcc is the replay's ensemble accumulator: one digest per scalar
// metric and one trajectory digest per trajectory metric the point
// recorded, in the point's metric order, as the sweep keeps them.
type replayAcc struct {
	scalars []*stats.Digest
	trajs   []*stats.TrajectoryDigest
}

type replayState struct {
	p      process.Process
	col    *process.Collector
	rounds []float64 // this worker's per-round times, ms
	last   time.Time
}

type replayOut struct {
	res process.Result
	col *process.Collector
}

// replayScalar is a trial's value of a scalar metric, read through the
// public process calls the sweep's metric registry uses.
func replayScalar(name string, res process.Result, col *process.Collector) float64 {
	switch name {
	case sweep.MetricTransmissions:
		return float64(res.Transmissions)
	case sweep.MetricPeakActive:
		return float64(col.PeakActive())
	case sweep.MetricHalfCoverage:
		return float64(col.HalfCoverageRound())
	}
	return float64(res.Rounds)
}

// replaySeries is a trial's per-round series of a trajectory metric.
func replaySeries(name string, col *process.Collector) []int {
	if name == sweep.MetricFrontier {
		return col.Active()
	}
	return col.Reached()
}

// replayPoint re-runs a point's ensemble through sim.ReduceWithState
// over process.New/RunCollect and the stats digests of every metric the
// point recorded, with the point's seed and the trial-worker count the
// sweep resolved for it (trialWorkers when set, else one per core up to
// the trial count), timing each layer from outside. Every replayed
// scalar mean must equal the sweep's, which shows the replay drew the
// same trials.
func (st *sweepTrace) replayPoint(ctx context.Context, g *graph.Graph, res sweep.Result, trialWorkers int) error {
	tr := st.b.tr
	var scalars, trajs []string
	collects := false
	for _, name := range res.Point.Metrics {
		m, err := sweep.LookupMetric(name)
		if err != nil {
			return err
		}
		collects = collects || m.Collects
		if m.Trajectory {
			trajs = append(trajs, name)
		} else {
			scalars = append(scalars, name)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), res.Trials)
	if trialWorkers > 0 {
		workers = min(trialWorkers, res.Trials)
	}
	var mu sync.Mutex
	var states []*replayState
	var trialSpans []span
	red := sim.Reducer[replayOut, replayAcc]{
		New: func() replayAcc {
			acc := replayAcc{scalars: make([]*stats.Digest, len(scalars)), trajs: make([]*stats.TrajectoryDigest, len(trajs))}
			for i := range acc.scalars {
				acc.scalars[i] = stats.NewDigest()
			}
			for i := range acc.trajs {
				acc.trajs[i] = stats.NewTrajectoryDigest()
			}
			return acc
		},
		Fold: func(acc replayAcc, trial int, v replayOut) replayAcc {
			t0 := time.Now()
			for i, name := range scalars {
				acc.scalars[i].Add(replayScalar(name, v.res, v.col))
			}
			for i, name := range trajs {
				acc.trajs[i].AddTrial(replaySeries(name, v.col))
			}
			mu.Lock()
			trialSpans = append(trialSpans, span{Layer: "stats", Name: "fold", Start: t0, End: time.Now()})
			mu.Unlock()
			return acc
		},
		Merge: func(into, from replayAcc) (replayAcc, error) {
			t0 := time.Now()
			defer func() {
				mu.Lock()
				trialSpans = append(trialSpans, span{Layer: "stats", Name: "merge", Start: t0, End: time.Now()})
				mu.Unlock()
			}()
			for i := range into.scalars {
				if err := into.scalars[i].Merge(from.scalars[i]); err != nil {
					return into, err
				}
			}
			for i := range into.trajs {
				if err := into.trajs[i].Merge(from.trajs[i]); err != nil {
					return into, err
				}
			}
			return into, nil
		},
	}
	start := []int32{0}
	cpu0, t0 := cpuSeconds(), time.Now()
	acc, err := sim.ReduceWithState(ctx, sim.Spec{Trials: res.Trials, Seed: res.Seed, Workers: workers}, red,
		func() *replayState {
			s := &replayState{}
			if collects {
				s.col = process.NewCollector(g.N())
			}
			cfg := process.Config{Branching: res.Branching, KernelWorkers: 1, Observer: func(rs process.RoundStat) {
				if s.col != nil {
					s.col.Observe(rs)
				}
				now := time.Now()
				s.rounds = append(s.rounds, ms(now.Sub(s.last)))
				s.last = now
			}}
			p, err := process.New(res.Process, g, cfg)
			if err != nil {
				panic(err) // the sweep already constructed this process on this graph
			}
			s.p = p
			mu.Lock()
			states = append(states, s)
			mu.Unlock()
			return s
		},
		func(s *replayState, _ int, r *rng.Rand) (replayOut, error) {
			a := time.Now()
			s.last = a
			var out process.Result
			var err error
			if s.col != nil {
				out, err = process.RunCollect(ctx, s.p, s.col, r, res.MaxRounds, start...)
			} else {
				out, err = process.RunContext(ctx, s.p, r, res.MaxRounds, start...)
			}
			mu.Lock()
			trialSpans = append(trialSpans, span{Layer: "process", Name: "trial", Start: a, End: time.Now()})
			mu.Unlock()
			if err == nil && !out.Done {
				err = fmt.Errorf("trial hit the round cap %d", res.MaxRounds)
			}
			return replayOut{res: out, col: s.col}, err
		})
	if err != nil {
		return err
	}
	s0 := time.Now()
	sums := make([]stats.DigestSummary, len(scalars))
	for i := range scalars {
		if sums[i], err = acc.scalars[i].Summary(); err != nil {
			return err
		}
	}
	for i := range trajs {
		if _, err := acc.trajs[i].Summary(); err != nil {
			return err
		}
	}
	s1 := time.Now()
	trialSpans = append(trialSpans, span{Layer: "stats", Name: "summary", Start: s0, End: s1})
	st.cpu += cpuSeconds() - cpu0
	st.replay += s1.Sub(t0)

	id := tr.add(0, res.ID, "sim", "ReduceWithState", t0, s1)
	for _, sp := range trialSpans {
		tr.add(id, res.ID, sp.Layer, sp.Name, sp.Start, sp.End)
		if sp.Layer == "process" {
			st.trialMs = append(st.trialMs, ms(sp.dur()))
			st.busy += sp.dur()
		}
	}
	for _, s := range states {
		st.roundMs = append(st.roundMs, s.rounds...)
	}
	for i, name := range scalars {
		want := res.Metric(name)
		if math.Abs(want.Mean-sums[i].Mean) > 1e-9*math.Max(1, math.Abs(want.Mean)) {
			return fmt.Errorf("replayed mean %s %v != swept %v: the replay did not draw the same trials", name, sums[i].Mean, want.Mean)
		}
	}
	rounds := res.Metric(sweep.MetricRounds)
	st.rounds += int64(rounds.Mean*float64(rounds.N) + 0.5)
	st.vertexRnds += rounds.Mean * float64(rounds.N) * float64(g.N())
	if tx := res.Metric(sweep.MetricTransmissions); tx.N > 0 {
		st.trans += int64(tx.Mean*float64(tx.N) + 0.5)
	}
	allocs, err := allocsPerTrial(g, res)
	st.allocs = append(st.allocs, allocs)
	return err
}

// allocsGraphMax bounds the graph allocsPerTrial measures on: larger
// points are measured on a 2^12-vertex graph of the same family and
// degree, since the engines' allocation behaviour does not depend on n
// and extra trials on a huge graph would cost seconds each.
const allocsGraphMax = 1 << 16

// allocsPerTrial counts heap allocations of sequential collector-attached
// trials of res's process, after one warm-up trial.
func allocsPerTrial(g *graph.Graph, res sweep.Result) (float64, error) {
	const trials = 3
	if g.N() > allocsGraphMax {
		var err error
		if g, _, err = sweep.BuildTopology(res.Family, 1<<12, res.Degree, res.Seed); err != nil {
			return 0, err
		}
	}
	col := process.NewCollector(g.N())
	p, err := process.New(res.Process, g, process.Config{Branching: res.Branching, KernelWorkers: 1, Observer: col.Observe})
	if err != nil {
		return 0, err
	}
	r := rng.NewStream(res.Seed, 0)
	start := []int32{0} // hoisted so the variadic call allocates nothing
	process.RunCollect(context.Background(), p, col, r, res.MaxRounds, start...)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < trials; i++ {
		process.RunCollect(context.Background(), p, col, r, res.MaxRounds, start...)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / trials, nil
}

// report sets the per-layer metrics a sweep-based workload produces.
// The traced pass is graph acquisition plus the sweeps, replays
// excluded; untraced is the untraced measurement's wall_s.
func (st *sweepTrace) report(untraced float64) {
	b := st.b
	traced := (st.acquire + st.sweepWall).Seconds()
	self := selfByLayer(b.tr.snapshot())
	b.set("graph.build_s", st.buildTime.Seconds())
	b.set("process.busy_s", st.busy.Seconds())
	b.set("process.trial_ms_p50", pctlValue(st.trialMs, 0.5))
	b.set("process.trial_ms_p90", pctlValue(st.trialMs, 0.9))
	b.set("process.round_ms_p50", pctlValue(st.roundMs, 0.5))
	b.set("process.round_ms_p90", pctlValue(st.roundMs, 0.9))
	b.set("process.rounds", float64(st.rounds))
	b.set("process.transmissions", float64(st.trans))
	if st.vertexRnds > 0 {
		b.set("process.ns_per_vertex_round", float64(st.busy.Nanoseconds())/st.vertexRnds)
	}
	b.set("process.allocs_per_trial", median(st.allocs))
	if st.replay > 0 {
		b.set("sim.cpu_util", st.cpu/(st.replay.Seconds()*float64(runtime.GOMAXPROCS(0))))
	}
	var fold, merge, summary time.Duration
	for _, sp := range b.tr.snapshot() {
		switch sp.Name {
		case "fold":
			fold += sp.dur()
		case "merge":
			merge += sp.dur()
		case "summary":
			summary += sp.dur()
		}
	}
	b.set("stats.fold_s", fold.Seconds())
	b.set("stats.merge_s", merge.Seconds())
	b.set("stats.summary_s", summary.Seconds())
	b.set("sweep.point_ms_p50", pctlValue(st.pointSpans, 0.5))
	b.set("sweep.point_ms_p90", pctlValue(st.pointSpans, 0.9))
	var points float64
	for _, p := range st.pointSpans {
		points += p / 1e3
	}
	// The replay re-ran process, sim and stats work that each point span
	// contains; what remains of the point spans is the sweep's own
	// persist and scheduling. The replay's per-round clock reads make it
	// slightly slower than the swept ensembles, so on points with little
	// persist work this estimate can read below zero.
	b.set("sweep.self_s", points-st.replay.Seconds())
	b.set("sweep.artifact_mb", float64(st.artifactB)/1e6)
	// Summed self times: acquisition (graph + graphcache) plus the point
	// spans, which hold sweep self time and the replayed layers.
	b.set("trace.residual_s", traced-st.acquire.Seconds()-points)
	b.set("trace.overhead", traced/untraced)
	b.note("traced layer self times: graph %.3fs graphcache %.3fs sim %.3fs process %.3fs stats %.3fs",
		self["graph"].Seconds(), self["graphcache"].Seconds(), self["sim"].Seconds(), self["process"].Seconds(), self["stats"].Seconds())
	b.note("trials replayed: %d (point spans %d)", len(st.trialMs), len(st.pointSpans))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
