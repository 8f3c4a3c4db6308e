package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/sweep"
)

// sweepGrid is the paper's Theorem 1/2 sweep as cmd/sweep runs it:
// rand-reg at n = 2^8…2^14 × r ∈ {3, 8, 32} plus complete at n ≤ 2^10,
// {cobra, bips} × branching {2, 1+0.5}, all six metrics, artifacts
// persisted, one shared graph cache per pass and the default worker
// budget. Trials fall from 192 at n = 2^8 to 24 from n = 2^11 on, so the
// small sizes keep per-trial and per-point costs (Reset, collector,
// digests, persist) a large share of the pass.
type sweepGrid struct {
	specs []sweep.Spec
	pass  int
	cache graphcache.Stats // last untraced pass
}

// gridTrialBudget is trials × n per size (192 trials at n = 2^8), and
// gridMinTrials the floor that keeps each point's mean rounds within the
// 10% check of its reference.
const (
	gridTrialBudget = 192 << 8
	gridMinTrials   = 24
)

var gridBranchings = []core.Branching{{K: 2}, {K: 1, Rho: 0.5}}

// gridSpecs generates one spec per size from the workload seed.
func gridSpecs(seed uint64) []sweep.Spec {
	var specs []sweep.Spec
	for e := 8; e <= 14; e++ {
		n := 1 << e
		fams := []string{"rand-reg"}
		if n <= 1<<10 {
			fams = append(fams, "complete")
		}
		specs = append(specs, sweep.Spec{
			Name:       fmt.Sprintf("sweep-grid-n%d", n),
			Families:   fams,
			Sizes:      []int{n},
			Degrees:    []int{3, 8, 32},
			Processes:  []string{sweep.ProcCobra, sweep.ProcBIPS},
			Branchings: gridBranchings,
			Metrics:    sweep.MetricNames(),
			Trials:     max(gridTrialBudget/n, gridMinTrials),
			Seed:       seed,
		})
	}
	return specs
}

func (w *sweepGrid) opName() string { return "trials" }

// setup realises every topology of the grid through sweep.BuildTopology,
// the generation a researcher pre-pays with cmd/graphbuild.
func (w *sweepGrid) setup(b *bench) error {
	w.specs = gridSpecs(b.seed)
	for _, spec := range w.specs {
		pts, err := spec.Points()
		if err != nil {
			return err
		}
		seen := map[graphcache.Key]bool{}
		for _, pt := range pts {
			if seen[pointKey(pt)] {
				continue
			}
			seen[pointKey(pt)] = true
			if _, _, err := sweep.BuildTopology(pt.Family, pt.Size, pt.Degree, spec.Seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// unit runs one pass over the grid with a fresh shared cache and checks
// every record; each grid size is one part of the unit. Artifacts stay
// in the run's scratch directory, so no deletion falls inside a timed
// unit.
func (w *sweepGrid) unit(b *bench) (float64, map[string]float64, error) {
	cache := graphcache.New(0)
	dir := w.passDir(b)
	parts := map[string]float64{}
	var trials float64
	for i, spec := range w.specs {
		t0 := time.Now()
		rep, err := sweep.Run(context.Background(), spec, sweep.Options{Dir: filepath.Join(dir, fmt.Sprint(i)), GraphCache: cache})
		if err != nil {
			return trials, nil, err
		}
		parts[spec.Name] = time.Since(t0).Seconds()
		trials += checkGrid(b, rep)
	}
	w.cache = cache.Stats()
	return trials, parts, nil
}

func (w *sweepGrid) passDir(b *bench) string {
	w.pass++
	return filepath.Join(b.dir, fmt.Sprintf("pass-%d", w.pass))
}

// checkGrid checks a report's records and counts points and trials
// toward the tally; it returns the trial count.
func checkGrid(b *bench, rep *sweep.Report) float64 {
	refs := loadRefs()
	var trials float64
	for _, res := range rep.Results {
		ok, why := true, ""
		for _, name := range []string{sweep.MetricRounds, sweep.MetricTransmissions, sweep.MetricPeakActive, sweep.MetricHalfCoverage} {
			if n := res.Metric(name).N; n != res.Trials {
				ok, why = false, fmt.Sprintf("%s has N=%d, want %d", name, n, res.Trials)
			}
		}
		cov, has := res.Trajectory(sweep.MetricCoverage)
		// The round axis is geometric beyond round 64, so the last column
		// may sample a round or two before the final one: require the
		// last column's mean to be within 2% of the realised n.
		if !has || len(cov.Mean) == 0 || cov.Mean[len(cov.Mean)-1] < 0.98*float64(res.GraphN) {
			ok, why = false, "coverage band does not reach the realised n"
		}
		ref, known := refs.Grid[res.ID]
		got := res.Metric(sweep.MetricRounds).Mean
		if !known || math.Abs(got-ref) > 0.10*ref {
			ok, why = false, fmt.Sprintf("mean rounds %.2f vs reference %.2f", got, ref)
		}
		b.ops.record(1+int64(res.Trials), ok, nil, res.ID+": "+why)
		trials += float64(res.Trials)
	}
	return trials
}

// traced acquires every graph through one cache inside spans, runs the
// sweeps with point spans from the hooks and replays each point.
func (w *sweepGrid) traced(b *bench, untraced float64) error {
	untracedCache := w.cache
	st := &sweepTrace{b: b}
	cache := graphcache.New(0)
	dir := w.passDir(b)
	for i, spec := range w.specs {
		if err := st.acquireGraphs(cache, spec); err != nil {
			return err
		}
		rep, err := st.run(context.Background(), spec, sweep.Options{Dir: filepath.Join(dir, fmt.Sprint(i)), GraphCache: cache})
		if err != nil {
			return err
		}
		checkGrid(b, rep)
	}
	st.report(untraced)
	setCacheMetrics(b, untracedCache)
	b.set("graph.csr_mb", float64(csrBytes(b.name))/1e6)
	return nil
}

// setCacheMetrics reports an untraced pass's graph cache counters; the
// traced pass pre-acquires its graphs, so only the untraced one shows
// the hits the shared cache earns.
func setCacheMetrics(b *bench, s graphcache.Stats) {
	if total := s.Hits + s.Misses; total > 0 {
		b.set("graphcache.hit_ratio", float64(s.Hits)/float64(total))
	}
	b.set("graphcache.misses", float64(s.Misses))
	b.set("graphcache.disk_hits", float64(s.DiskHits))
}

func (w *sweepGrid) finish(*bench) {}
