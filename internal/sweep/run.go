package sweep

import (
	"context"
	"fmt"
	"runtime"
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
	// TrialWorkers bounds the sim worker pool inside each point
	// (default: the MaxProcs budget). Kernel processes (cobra, bips;
	// process.Info.Kernel) get the slack as intra-trial workers; see
	// workerBudget.resolve. Like every Options field it cannot affect
	// results: kernel results are byte-identical for every worker count.
	TrialWorkers int
	// MaxProcs is the CPU budget the trial and kernel worker counts are
	// resolved against (default GOMAXPROCS). The server sets it to its
	// per-job share (GOMAXPROCS / MaxConcurrent) so co-scheduled jobs
	// don't oversubscribe the machine.
	MaxProcs int
	// PointStart, when non-nil, is called as a point begins computing.
	// Resumed points skip it — they are loaded, not computed. Like every
	// Options field it cannot affect results: the hook observes
	// scheduling, the random streams never see it.
	PointStart func(pt Point)
	// PointDone, when non-nil, is called once per completed point —
	// resumed points first, then live points, each in expansion order.
	PointDone func(res Result, resumed bool)
	// Snapshot, when non-nil, receives periodic mid-ensemble digest
	// snapshots of the running point — partial summaries over the trials
	// folded so far, at most one delivery per SnapshotInterval. Calls
	// are serialised and fall between the point's PointStart and
	// PointDone. Resumed points deliver no snapshots (they are loaded,
	// not run). Like every Options field it cannot affect results:
	// snapshots read shadow accumulators outside the reduction tree and
	// the random streams never see them (see snapshot.go).
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

// Run expands spec and executes its points one at a time in expansion
// order, each across the trial and kernel workers of the Options CPU
// budget. With Options.Dir set, completed points persist immediately and
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
				if opts.PointDone != nil {
					opts.PointDone(res, true)
				}
				continue
			}
		}
		todo = append(todo, i)
	}

	for _, i := range todo {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sweep: cancelled: %w", err)
		}
		if opts.PointStart != nil {
			opts.PointStart(pts[i])
		}
		res, err := runPoint(ctx, pts[i], opts)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %s: %w", pts[i].ID, err)
		}
		if art != nil {
			if err := art.save(res); err != nil {
				return nil, err
			}
		}
		results[i] = res
		if opts.PointDone != nil {
			opts.PointDone(res, false)
		}
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

// Trial is one run of a Trials ensemble, as its reducer's Fold sees
// it: the driven run's Result plus the trial worker's Collector (nil
// unless pt.Metrics names a metric that observes rounds). The
// Collector's buffers are only valid until the worker's next trial, so
// Fold must consume them at once — the sim layer runs Fold before the
// worker starts another trial.
type Trial struct {
	Result    process.Result
	Collector *process.Collector
}

// pointAcc streams a point's ensemble: one digest per requested scalar
// metric and one trajectory digest per requested trajectory metric, both
// in spec order.
type pointAcc struct {
	scalars []*stats.Digest
	trajs   []*stats.TrajectoryDigest
}

// pointReducer folds Trials into a pointAcc through the metric
// registry. Merges run in the sim layer's fixed shard order, so the
// ensemble is independent of the trial worker count.
func pointReducer(scalars, trajs []MetricInfo) sim.Reducer[Trial, pointAcc] {
	return sim.Reducer[Trial, pointAcc]{
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
		Fold: func(acc pointAcc, _ int, v Trial) pointAcc {
			for i, m := range scalars {
				acc.scalars[i].Add(m.scalar(v.Result, v.Collector))
			}
			for i, m := range trajs {
				acc.trajs[i].AddTrial(m.series(v.Collector))
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

// workerBudget carries the Options parallelism knobs into Trials; see
// resolve for how they become an ensemble's (trialWorkers,
// kernelWorkers) pair.
type workerBudget struct {
	trialWorkers, maxProcs int
}

// budget extracts the parallelism knobs from Options.
func (o Options) budget() workerBudget {
	return workerBudget{trialWorkers: o.TrialWorkers, maxProcs: o.MaxProcs}
}

// resolve turns the knobs into a point's effective worker counts: the
// trial pool takes trialWorkers (default: the budget) capped at the
// trial count, and a kernel process gets the slack, maxProcs / trial
// workers and at least 1. A single-trial point gets the whole budget as
// kernel workers, a wide ensemble one kernel worker per trial worker.
// Worker counts are pure scheduling: they cannot affect results.
func (b workerBudget) resolve(trials int, kernel bool) (tw, kw int) {
	budget := b.maxProcs
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	tw = b.trialWorkers
	if tw <= 0 {
		tw = budget
	}
	tw = max(min(tw, trials), 1)
	if !kernel {
		return tw, 1 // non-kernel processes have no intra-trial workers
	}
	return tw, max(budget/tw, 1)
}

// runPoint builds the point's graph deterministically from the point's
// GraphSeed and runs the point's ensemble on it. It depends on nothing
// but pt and the options (which cannot affect the result: the graph is
// a pure function of family/size/degree/GraphSeed, so a cache hit
// returns exactly the graph a rebuild would).
func runPoint(ctx context.Context, pt Point, opts Options) (Result, error) {
	fam, err := LookupFamily(pt.Family)
	if err != nil {
		return Result{}, err
	}
	build := func() (*graph.Graph, error) {
		return fam.Build(pt.Size, pt.Degree, rng.NewStream(pt.GraphSeed, graphStream))
	}
	var g *graph.Graph
	if opts.GraphCache != nil {
		g, err = opts.GraphCache.GetOrBuild(graphcache.Key{
			Family: pt.Family, Size: pt.Size, Degree: pt.Degree, Seed: pt.GraphSeed,
		}, build)
	} else {
		g, err = build()
	}
	if err != nil {
		return Result{}, fmt.Errorf("building graph: %w", err)
	}
	return ensemble(ctx, g, pt, opts)
}

// Ensemble computes pt's Result on the given graph: λ_max when
// pt.MeasureLambda is set, then Trials from vertex 0 folded into one
// summary per metric in pt.Metrics through the metric registry. Every
// run starts from vertex 0: the sweep families are vertex-transitive or
// statistically symmetric, so vertex 0 is representative of the
// worst-case start. This is exactly what Run records for a point once
// its graph is built, so a caller holding its own graph gets sweep's
// ensemble — seeds, folds and shard-order merges — without a Spec. Of
// opts only the worker budget is read (TrialWorkers, MaxProcs); like
// every Options field it cannot affect the result.
func Ensemble(ctx context.Context, g *graph.Graph, pt Point, opts Options) (Result, error) {
	return ensemble(ctx, g, pt, Options{TrialWorkers: opts.TrialWorkers, MaxProcs: opts.MaxProcs})
}

// ensemble is Ensemble with Run's snapshot hook (opts.Snapshot).
func ensemble(ctx context.Context, g *graph.Graph, pt Point, opts Options) (Result, error) {
	res := Result{Point: pt, GraphN: g.N()}
	if deg, err := g.Regularity(); err == nil {
		res.GraphDegree = deg
	}
	var err error
	if pt.MeasureLambda {
		res.Lambda, err = spectral.LambdaMax(g)
		if err != nil {
			return Result{}, fmt.Errorf("measuring lambda: %w", err)
		}
	}

	scalars, trajs, _, err := pointMetrics(pt.Metrics)
	if err != nil {
		return Result{}, err
	}
	red := snapshotReducer(pointReducer(scalars, trajs), pt, scalars, trajs, opts.Snapshot, opts.SnapshotInterval)
	acc, err := Trials(ctx, g, pt, 0, opts, red)
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

// Trials is the one trial loop behind every run-to-completion ensemble:
// pt.Trials runs of pt.Process with pt.Branching on g from vertex start,
// trial i on rng.NewStream(pt.Seed, i), each folded through red in the
// sim layer's fixed shard order. The process registry picks the engine,
// so Trials has no per-process switch. Each trial worker owns one
// reusable Process and, when pt.Metrics names a metric that observes
// rounds, one reusable Collector, so trials allocate nothing
// graph-sized; attaching a collector never touches the random stream.
// The context is checked between rounds, and a trial that reaches
// pt.MaxRounds fails the ensemble. Of opts only the worker budget is
// read: trial workers take TrialWorkers and a kernel process gets the
// budget's slack (workerBudget.resolve). Like every Options field it
// cannot affect the result.
func Trials[A any](ctx context.Context, g *graph.Graph, pt Point, start int, opts Options, red sim.Reducer[Trial, A]) (A, error) {
	var zero A
	info, err := process.Lookup(pt.Process)
	if err != nil {
		return zero, err
	}
	_, _, collects, err := pointMetrics(pt.Metrics)
	if err != nil {
		return zero, err
	}
	if start < 0 || start >= g.N() {
		return zero, fmt.Errorf("start vertex %d out of range [0,%d)", start, g.N())
	}
	trialWorkers, kernelWorkers := opts.budget().resolve(pt.Trials, info.Kernel)
	// Validate construction once so the per-worker factory cannot fail.
	// The probe is single-worker so validating never spins up a pool.
	if _, err := info.New(g, process.Config{Branching: pt.Branching, KernelWorkers: 1}); err != nil {
		return zero, err
	}
	spec := sim.Spec{Trials: pt.Trials, Seed: pt.Seed, Workers: trialWorkers}
	starts := []int32{int32(start)} // hoisted so the per-trial Run call allocates nothing
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
		func(st trialState, _ int, r *rng.Rand) (Trial, error) {
			var out process.Result
			var err error
			if st.col != nil {
				out, err = process.RunCollect(ctx, st.p, st.col, r, pt.MaxRounds, starts...)
			} else {
				out, err = process.RunContext(ctx, st.p, r, pt.MaxRounds, starts...)
			}
			if err != nil {
				return Trial{}, err
			}
			if !out.Done {
				return Trial{}, fmt.Errorf("%s run hit round cap %d on %s", pt.Process, pt.MaxRounds, g.Name())
			}
			return Trial{Result: out, Collector: st.col}, nil
		})
}
