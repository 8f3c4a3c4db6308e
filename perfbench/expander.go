package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/sweep"
)

// expanderN and expanderR size the expander-128k graph: a 2^17-vertex
// 8-regular random graph, whose 5 MiB CSR is 2.5× a 2 MiB per-core L2
// and fits in the last-level cache. Larger graphs made wall_s follow the
// load other tenants put on a shared host's caches and memory: on a
// 2-core Xeon VM, over six seeds run interleaved, the range of wall_s was
// 0.24 of its median at 2^17, 0.41 at 2^18 and 0.67 at 2^19. Each point
// runs expanderTrials trials one at a time. The work of a single trial
// varies from draw to draw (over six seeds at 2^20, the 1+0.5 BIPS trial,
// most of the unit, made 46 to 60 million transmissions), so a unit
// averages several draws per point; on that VM a unit took about 3 s.
const (
	expanderN      = 1 << 17
	expanderR      = 8
	expanderTrials = 8
)

// expander runs {cobra, bips} × branching {2, 1+0.5} points of
// expanderTrials sequential trials on one large expander loaded by mmap
// from a graph store, so the process layer does nearly all the work,
// one trial at a time.
type expander struct {
	spec      sweep.Spec
	storeDir  string
	reps      int
	runs      int       // sweeps run, naming their artifact directories
	buildTime []float64 // generator seconds per set-up
	writeTime []float64 // spill seconds per set-up
	cache     graphcache.Stats
	mmapTime  time.Duration
}

func expanderSpec(seed uint64) sweep.Spec {
	return sweep.Spec{
		Name:       "expander-128k",
		Families:   []string{"rand-reg"},
		Sizes:      []int{expanderN},
		Degrees:    []int{expanderR},
		Processes:  []string{sweep.ProcCobra, sweep.ProcBIPS},
		Branchings: gridBranchings,
		Trials:     expanderTrials,
		Seed:       seed,
	}
}

func (w *expander) opName() string { return "trials" }

// setup builds the graph through a graph cache with a disk tier in a
// fresh directory: generation plus the graphstore spill. The last
// set-up's directory serves the measured units; finish removes them all
// at exit, outside any timed region.
func (w *expander) setup(b *bench) error {
	w.spec = expanderSpec(b.seed)
	pts, err := w.spec.Points()
	if err != nil {
		return err
	}
	w.reps++
	w.storeDir = filepath.Join(b.dir, fmt.Sprintf("store-%d", w.reps))
	cache, err := graphcache.NewWithOptions(graphcache.Options{StoreDir: w.storeDir})
	if err != nil {
		return err
	}
	var build time.Duration
	t0 := time.Now()
	_, err = cache.GetOrBuild(pointKey(pts[0]), func() (*graph.Graph, error) {
		tb := time.Now()
		defer func() { build = time.Since(tb) }()
		g, _, err := sweep.BuildTopology(pts[0].Family, pts[0].Size, pts[0].Degree, w.spec.Seed)
		return g, err
	})
	if err != nil {
		return err
	}
	if s := cache.Stats(); s.DiskWrites != 1 {
		return fmt.Errorf("set-up wrote %d store files, want 1", s.DiskWrites)
	}
	w.buildTime = append(w.buildTime, build.Seconds())
	w.writeTime = append(w.writeTime, (time.Since(t0) - build).Seconds())
	return nil
}

// unit loads the graph by mmap through a fresh cache over the store
// directory and runs the four points; each point is one
// part of the unit, and the load, persist and scheduling around the
// points is one more.
func (w *expander) unit(b *bench) (float64, map[string]float64, error) {
	// Each unit starts from a collected heap, as a user's one sweep does,
	// so the previous unit's garbage does not add to this unit's peak RSS
	// and peak_rss_mb depends less on how many units a run fits.
	debug.FreeOSMemory()
	t0 := time.Now()
	rep, parts, err := w.sweep(b, nil)
	if err != nil {
		return 0, nil, err
	}
	rest := time.Since(t0).Seconds()
	for _, s := range parts {
		rest -= s
	}
	parts["load+persist"] = rest
	return float64(len(rep.Results) * w.spec.Trials), parts, nil
}

// sweep runs the spec through a fresh disk-tier cache and returns each
// point's seconds; with st non-nil the graph is acquired first inside a
// span and the points are traced.
func (w *expander) sweep(b *bench, st *sweepTrace) (*sweep.Report, map[string]float64, error) {
	cache, err := graphcache.NewWithOptions(graphcache.Options{StoreDir: w.storeDir})
	if err != nil {
		return nil, nil, err
	}
	w.runs++
	opts := sweep.Options{
		Dir:          filepath.Join(b.dir, fmt.Sprintf("artifacts-%d", w.runs)),
		GraphCache:   cache,
		TrialWorkers: 1,
	}
	parts := map[string]float64{}
	var rep *sweep.Report
	if st == nil {
		// The hooks run outside the random streams and cost two clock
		// reads per point.
		var t0 time.Time
		opts.PointStart = func(sweep.Point) { t0 = time.Now() }
		opts.PointDone = func(res sweep.Result, _ bool) { parts[res.ID] = time.Since(t0).Seconds() }
		rep, err = sweep.Run(context.Background(), w.spec, opts)
	} else {
		t0 := time.Now()
		if err := st.acquireGraphs(cache, w.spec); err != nil {
			return nil, nil, err
		}
		w.mmapTime = time.Since(t0)
		rep, err = st.run(context.Background(), w.spec, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	w.cache = cache.Stats()
	if w.cache.DiskHits != 1 {
		return nil, nil, fmt.Errorf("graph came from %d disk hits, want 1 mmap load", w.cache.DiskHits)
	}
	refs := loadRefs()
	for _, res := range rep.Results {
		// sweep.Run already fails a trial that reaches the round cap; the
		// stored band catches an engine that finishes implausibly early
		// or late.
		got := res.Metric(sweep.MetricRounds).Mean
		band, known := refs.Expander[res.ID]
		ok := known && got >= band[0] && got <= band[1]
		b.ops.record(2, ok, nil, fmt.Sprintf("%s: rounds %.0f outside band %v", res.ID, got, band))
	}
	return rep, parts, nil
}

func (w *expander) traced(b *bench, untraced float64) error {
	untracedCache := w.cache
	st := &sweepTrace{b: b}
	if _, _, err := w.sweep(b, st); err != nil {
		return err
	}
	st.report(untraced)
	setCacheMetrics(b, untracedCache)
	b.set("graph.build_s", median(w.buildTime))
	b.set("graph.csr_mb", float64(csrBytes(b.name))/1e6)
	b.set("graphstore.write_s", median(w.writeTime))
	b.set("graphstore.mmap_s", w.mmapTime.Seconds())
	return nil
}

// finish removes the set-ups' store files: they are large but few, so
// deleting them costs the next run nothing (see run's note on deletion).
func (w *expander) finish(b *bench) {
	for i := 1; i <= w.reps; i++ {
		os.RemoveAll(filepath.Join(b.dir, fmt.Sprintf("store-%d", i)))
	}
}
