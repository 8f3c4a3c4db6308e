package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/spectral"
	"cobrawalk/internal/stats"
)

// graphStream is the rng stream index reserved for graph construction.
// Trial i of a point uses stream i, so the maximum index can never
// collide with a trial stream.
const graphStream = ^uint64(0)

// Options configures a Run without affecting what is computed: every
// field may change between an interrupted run and its resume and the
// results stay byte-identical.
type Options struct {
	// Dir is the artifact directory: a manifest pinning the spec, one
	// JSON record per completed point under points/, and results.ndjson
	// (all records in expansion order) on completion. Empty = in-memory
	// only.
	Dir string
	// Resume continues a previous run into Dir: points whose records
	// already exist are loaded instead of recomputed. The manifest must
	// match the spec.
	Resume bool
	// PointWorkers bounds how many points run concurrently (default 1).
	PointWorkers int
	// TrialWorkers bounds the sim worker pool inside each point
	// (default: the MaxProcs budget).
	TrialWorkers int
	// KernelWorkers bounds the intra-trial worker count of kernel
	// processes (cobra, bips; process.Info.Kernel). Defaults to
	// the budget slack: MaxProcs / effective trial workers, so a
	// single-trial point gets the whole budget and a wide ensemble gets
	// one kernel worker per trial — trialWorkers × kernelWorkers never
	// exceeds MaxProcs unless both knobs are set explicitly. Like every
	// Options field it cannot affect results: kernel results are
	// byte-identical for every worker count.
	KernelWorkers int
	// MaxProcs is the CPU budget the two worker knobs above are resolved
	// against (default GOMAXPROCS). The server sets it to its per-job
	// share (GOMAXPROCS / MaxConcurrent) so co-scheduled jobs don't
	// oversubscribe the machine.
	MaxProcs int
	// PointStart, when non-nil, is called as a worker begins computing a
	// point. Resumed points skip it — they are loaded, not computed.
	// Calls are serialised with each other and with PointDone, so a
	// start/done pair for one point never interleaves observably. Like
	// every Options field it cannot affect results: the hook observes
	// scheduling, the random streams never see it.
	PointStart func(pt Point)
	// PointDone, when non-nil, is called once per completed point —
	// resumed points first, in expansion order, then live points as
	// they finish. Calls are serialised.
	PointDone func(res Result, resumed bool)
	// Snapshot, when non-nil, receives periodic mid-ensemble digest
	// snapshots of each running point — partial summaries over the
	// trials folded so far, at most one delivery per SnapshotInterval
	// per point. Calls are serialised with PointStart and PointDone.
	// Resumed points deliver no snapshots (they are loaded, not run).
	// Like every Options field it cannot affect results: snapshots
	// read shadow accumulators outside the reduction tree and the
	// random streams never see them (see snapshot.go).
	Snapshot func(Snapshot)
	// SnapshotInterval spaces Snapshot deliveries per running point
	// (<= 0 = DefaultSnapshotInterval).
	SnapshotInterval time.Duration
	// GraphCache, when non-nil, serves graph builds across points (and,
	// for a long-lived cache, across runs): points sharing a topology and
	// GraphSeed reuse one built graph instead of rebuilding it. Like
	// every Options field it cannot affect results — a cached graph is
	// byte-for-byte the graph a rebuild would produce.
	GraphCache *graphcache.Cache
}

// Result is one completed point: the point identity plus the realised
// graph and the streamed ensemble digests, one per requested metric.
type Result struct {
	Point
	// GraphN is the realised vertex count (generators round the target
	// size); GraphDegree is the realised degree, 0 for irregular graphs.
	GraphN      int `json:"graph_n"`
	GraphDegree int `json:"graph_degree,omitempty"`
	// Lambda is λ_max of the realised graph when Spec.MeasureLambda was
	// set, else 0.
	Lambda float64 `json:"lambda,omitempty"`
	// Metrics holds one ensemble summary per requested scalar metric,
	// keyed by registry name ("rounds" is the process's time metric:
	// cover time for cobra, infection time for bips, rounds to inform
	// all for the baselines; "transmissions" counts messages).
	Metrics map[string]stats.DigestSummary `json:"metrics"`
	// Trajectories holds one per-round quantile-band block per requested
	// trajectory metric, keyed by registry name.
	Trajectories map[string]stats.TrajectorySummary `json:"trajectories,omitempty"`
}

// Metric returns the named scalar metric's ensemble summary, zero-valued
// (N == 0) when the metric was not requested.
func (r Result) Metric(name string) stats.DigestSummary { return r.Metrics[name] }

// HasMetric reports whether the named scalar metric was recorded.
func (r Result) HasMetric(name string) bool {
	_, ok := r.Metrics[name]
	return ok
}

// Trajectory returns the named trajectory metric's quantile-band block.
func (r Result) Trajectory(name string) (stats.TrajectorySummary, bool) {
	t, ok := r.Trajectories[name]
	return t, ok
}

// checkMetrics verifies the result records exactly the wanted metric set
// — the resume guard against mixing records from sweeps with different
// metric selections.
func (r Result) checkMetrics(want []string) error {
	have := make(map[string]bool, len(r.Metrics)+len(r.Trajectories))
	for name := range r.Metrics {
		have[name] = true
	}
	for name := range r.Trajectories {
		have[name] = true
	}
	for _, name := range want {
		if !have[name] {
			return fmt.Errorf("record lacks metric %q", name)
		}
		delete(have, name)
	}
	for name := range have {
		return fmt.Errorf("record holds unexpected metric %q", name)
	}
	return nil
}

// Report is the outcome of a Run.
type Report struct {
	// Spec is the normalised spec the points expanded from.
	Spec Spec `json:"spec"`
	// Results holds one Result per point, in expansion order.
	Results []Result `json:"results"`
	// Resumed counts the points loaded from a prior run's artifacts.
	Resumed int `json:"resumed,omitempty"`
}

// Run expands spec and executes every point across a worker pool. With
// Options.Dir set, completed points persist immediately and
// Options.Resume skips points already on disk; see Options. The report
// — and, with Dir set, every artifact byte — is independent of the
// worker counts and of how a run was split by interruptions.
func Run(ctx context.Context, spec Spec, opts Options) (*Report, error) {
	spec = spec.withDefaults()
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	var art *artifacts
	if opts.Dir != "" {
		art, err = openArtifacts(opts.Dir, spec, pts, opts.Resume)
		if err != nil {
			return nil, err
		}
	}

	var cbMu sync.Mutex // serialises PointStart/PointDone across point workers
	notify := func(res Result, resumed bool) {
		if opts.PointDone == nil {
			return
		}
		cbMu.Lock()
		defer cbMu.Unlock()
		opts.PointDone(res, resumed)
	}
	notifyStart := func(pt Point) {
		if opts.PointStart == nil {
			return
		}
		cbMu.Lock()
		defer cbMu.Unlock()
		opts.PointStart(pt)
	}
	var snap func(Snapshot)
	if opts.Snapshot != nil {
		snap = func(s Snapshot) {
			cbMu.Lock()
			defer cbMu.Unlock()
			opts.Snapshot(s)
		}
	}

	results := make([]Result, len(pts))
	var todo []int
	resumed := 0
	for i, pt := range pts {
		if art != nil && opts.Resume {
			res, ok, err := art.load(pt)
			if err != nil {
				return nil, err
			}
			if ok {
				results[i] = res
				resumed++
				notify(res, true)
				continue
			}
		}
		todo = append(todo, i)
	}

	workers := opts.PointWorkers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(todo) {
		workers = len(todo)
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cctx.Err() != nil {
					return
				}
				k := int(next.Add(1) - 1)
				if k >= len(todo) {
					return
				}
				i := todo[k]
				notifyStart(pts[i])
				res, err := runPoint(cctx, pts[i], opts.budget(), opts.GraphCache, snap, opts.SnapshotInterval)
				if err != nil {
					fail(fmt.Errorf("sweep: point %s: %w", pts[i].ID, err))
					return
				}
				if art != nil {
					if err := art.save(res); err != nil {
						fail(err)
						return
					}
				}
				results[i] = res
				notify(res, false)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: cancelled: %w", err)
	}
	if art != nil {
		if err := art.finish(pts); err != nil {
			return nil, err
		}
	}
	return &Report{Spec: spec, Results: results, Resumed: resumed}, nil
}

// trialOut is one trial's raw material for the metric registry: the
// driven run's result plus the worker's collector (nil when no requested
// metric observes rounds). The collector's buffers are only valid until
// the worker's next trial, so Fold must consume them immediately — the
// sim layer guarantees Fold runs before the worker starts another trial.
type trialOut struct {
	res process.Result
	col *process.Collector
}

// pointAcc streams a point's ensemble: one digest per requested scalar
// metric and one trajectory digest per requested trajectory metric, both
// in spec order.
type pointAcc struct {
	scalars []*stats.Digest
	trajs   []*stats.TrajectoryDigest
}

// pointReducer folds trialOuts into a pointAcc through the metric
// registry. Merges run in the sim layer's fixed shard order, so the
// ensemble is independent of the trial worker count.
func pointReducer(scalars, trajs []MetricInfo) sim.Reducer[trialOut, pointAcc] {
	return sim.Reducer[trialOut, pointAcc]{
		New: func() pointAcc {
			acc := pointAcc{
				scalars: make([]*stats.Digest, len(scalars)),
				trajs:   make([]*stats.TrajectoryDigest, len(trajs)),
			}
			for i := range acc.scalars {
				acc.scalars[i] = stats.NewDigest()
			}
			for i := range acc.trajs {
				acc.trajs[i] = stats.NewTrajectoryDigest()
			}
			return acc
		},
		Fold: func(acc pointAcc, _ int, v trialOut) pointAcc {
			for i, m := range scalars {
				acc.scalars[i].Add(m.scalar(v.res, v.col))
			}
			for i, m := range trajs {
				acc.trajs[i].AddTrial(m.series(v.col))
			}
			return acc
		},
		Merge: func(into, from pointAcc) (pointAcc, error) {
			for i := range into.scalars {
				if err := into.scalars[i].Merge(from.scalars[i]); err != nil {
					return pointAcc{}, err
				}
			}
			for i := range into.trajs {
				if err := into.trajs[i].Merge(from.trajs[i]); err != nil {
					return pointAcc{}, err
				}
			}
			return into, nil
		},
	}
}

// workerBudget carries the Options parallelism knobs into runPoint; see
// resolve for how they become a per-point (trialWorkers, kernelWorkers)
// pair.
type workerBudget struct {
	trialWorkers, kernelWorkers, maxProcs int
}

// budget extracts the parallelism knobs from Options.
func (o Options) budget() workerBudget {
	return workerBudget{trialWorkers: o.TrialWorkers, kernelWorkers: o.KernelWorkers, maxProcs: o.MaxProcs}
}

// resolve turns the configured knobs into the effective worker counts
// for a point with the given trial count, under the anti-oversubscription
// invariant trialWorkers × kernelWorkers ≤ maxProcs: an explicit knob is
// respected and the defaulted side shrinks to the remaining slack, so a
// single-trial point on an idle daemon gets the whole budget as kernel
// workers while a wide ensemble gets one kernel worker per trial worker.
// Only an operator setting both knobs explicitly can oversubscribe.
// Worker counts are pure scheduling: they cannot affect results.
func (b workerBudget) resolve(trials int, kernel bool) (tw, kw int) {
	budget := b.maxProcs
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if budget < 1 {
		budget = 1
	}
	kernelWorkers := b.kernelWorkers
	if !kernel {
		kernelWorkers = 1 // non-kernel processes have no intra-trial workers
	}
	clampT := func(w int) int {
		if w > trials {
			w = trials
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	switch {
	case b.trialWorkers > 0 && kernelWorkers > 0:
		return clampT(b.trialWorkers), kernelWorkers
	case kernelWorkers > 0:
		// Kernel width pinned: the trial pool gets the slack.
		return clampT(budget / kernelWorkers), kernelWorkers
	case b.trialWorkers > 0:
		tw = clampT(b.trialWorkers)
	default:
		tw = clampT(budget)
	}
	kw = budget / tw
	if kw < 1 {
		kw = 1
	}
	return tw, kw
}

// runPoint builds the point's graph deterministically from the point's
// GraphSeed and runs the point's ensemble on it. It depends on nothing
// but pt and the worker budget and cache (which cannot affect the
// result: the graph is a pure function of family/size/degree/GraphSeed,
// so a cache hit returns exactly the graph a rebuild would).
func runPoint(ctx context.Context, pt Point, workers workerBudget, cache *graphcache.Cache, snap func(Snapshot), snapInterval time.Duration) (Result, error) {
	fam, err := LookupFamily(pt.Family)
	if err != nil {
		return Result{}, err
	}
	build := func() (*graph.Graph, error) {
		return fam.Build(pt.Size, pt.Degree, rng.NewStream(pt.GraphSeed, graphStream))
	}
	var g *graph.Graph
	if cache != nil {
		g, err = cache.GetOrBuild(graphcache.Key{
			Family: pt.Family, Size: pt.Size, Degree: pt.Degree, Seed: pt.GraphSeed,
		}, build)
	} else {
		g, err = build()
	}
	if err != nil {
		return Result{}, fmt.Errorf("building graph: %w", err)
	}
	return ensemble(ctx, g, pt, workers, snap, snapInterval)
}

// Ensemble computes pt's Result on the given graph: λ_max when
// pt.MeasureLambda is set, then pt.Trials runs of pt.Process with
// pt.Branching from vertex 0, trial i on rng.NewStream(pt.Seed, i),
// folded into one summary per metric in pt.Metrics. A trial that
// reaches pt.MaxRounds fails the ensemble. This is exactly what Run
// records for a point once its graph is built, so a caller holding its
// own graph gets sweep's ensemble — seeds, folds and shard-order
// merges — without a Spec. Of opts only the worker budget is read
// (TrialWorkers, KernelWorkers, MaxProcs); like every Options field it
// cannot affect the result.
func Ensemble(ctx context.Context, g *graph.Graph, pt Point, opts Options) (Result, error) {
	return ensemble(ctx, g, pt, opts.budget(), nil, 0)
}

// ensemble is Ensemble with runPoint's snapshot hook.
func ensemble(ctx context.Context, g *graph.Graph, pt Point, workers workerBudget, snap func(Snapshot), snapInterval time.Duration) (Result, error) {
	res := Result{Point: pt, GraphN: g.N()}
	if deg, err := g.Regularity(); err == nil {
		res.GraphDegree = deg
	}
	var err error
	if pt.MeasureLambda {
		res.Lambda, err = spectral.LambdaMax(g, spectral.Options{Tol: 1e-9, MaxIter: 20000})
		if err != nil {
			return Result{}, fmt.Errorf("measuring lambda: %w", err)
		}
	}

	scalars, trajs, collects, err := pointMetrics(pt.Metrics)
	if err != nil {
		return Result{}, err
	}
	acc, err := runEnsemble(ctx, g, pt, workers, scalars, trajs, collects, snap, snapInterval)
	if err != nil {
		return Result{}, err
	}
	res.Metrics = make(map[string]stats.DigestSummary, len(scalars))
	for i, m := range scalars {
		if res.Metrics[m.Name], err = acc.scalars[i].Summary(); err != nil {
			return Result{}, fmt.Errorf("summarising %s: %w", m.Name, err)
		}
	}
	if len(trajs) > 0 {
		res.Trajectories = make(map[string]stats.TrajectorySummary, len(trajs))
		for i, m := range trajs {
			if res.Trajectories[m.Name], err = acc.trajs[i].Summary(); err != nil {
				return Result{}, fmt.Errorf("summarising %s: %w", m.Name, err)
			}
		}
	}
	return res, nil
}

// trialState is one trial worker's reusable equipment: a Process
// (constructed once, Reset per trial) and, when any requested metric
// observes rounds, a Collector attached as its observer.
type trialState struct {
	p   process.Process
	col *process.Collector
}

// runEnsemble streams the point's ensemble through the process registry
// and the metric registry: the point's process name selects a Factory,
// each trial worker owns one reusable Process plus (when needed) one
// reusable Collector — no per-trial graph-sized allocations — and the
// requested metrics decide what each trial folds into the point
// accumulator. Adding a process to internal/process makes it sweepable,
// and adding a metric to the registry in metrics.go makes it recordable,
// with no change here. All runs start from vertex 0: the sweep families
// are vertex-transitive or statistically symmetric, so vertex 0 is
// representative of the worst-case start. Attaching a collector never
// touches the random stream, so the metric set cannot change any drawn
// trial.
func runEnsemble(ctx context.Context, g *graph.Graph, pt Point, workers workerBudget, scalars, trajs []MetricInfo, collects bool, snap func(Snapshot), snapInterval time.Duration) (pointAcc, error) {
	info, err := process.Lookup(pt.Process)
	if err != nil {
		return pointAcc{}, err
	}
	trialWorkers, kernelWorkers := workers.resolve(pt.Trials, info.Kernel)
	// Validate construction once so the per-worker factory cannot fail.
	// The probe is single-worker so validating never spins up a pool.
	if _, err := info.New(g, process.Config{Branching: pt.Branching, KernelWorkers: 1}); err != nil {
		return pointAcc{}, err
	}
	spec := sim.Spec{Trials: pt.Trials, Seed: pt.Seed, Workers: trialWorkers}
	start := []int32{0} // hoisted so the per-trial Run call allocates nothing
	red := snapshotReducer(pointReducer(scalars, trajs), pt, scalars, trajs, snap, snapInterval)
	return sim.ReduceWithState(ctx, spec, red,
		func() trialState {
			cfg := process.Config{Branching: pt.Branching, KernelWorkers: kernelWorkers}
			var col *process.Collector
			if collects {
				col = process.NewCollector(g.N())
				cfg.Observer = col.Observe
			}
			p, err := info.New(g, cfg)
			if err != nil {
				panic(err) // unreachable: validated above
			}
			return trialState{p: p, col: col}
		},
		func(st trialState, _ int, r *rng.Rand) (trialOut, error) {
			var out process.Result
			var err error
			if st.col != nil {
				out, err = process.RunCollect(ctx, st.p, st.col, r, pt.MaxRounds, start...)
			} else {
				out, err = process.RunContext(ctx, st.p, r, pt.MaxRounds, start...)
			}
			if err != nil {
				return trialOut{}, err
			}
			if !out.Done {
				return trialOut{}, fmt.Errorf("%s run hit round cap %d on %s", pt.Process, pt.MaxRounds, g.Name())
			}
			return trialOut{res: out, col: st.col}, nil
		})
}
