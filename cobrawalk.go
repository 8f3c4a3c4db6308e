package cobrawalk

import (
	"context"

	"cobrawalk/internal/buildinfo"
	"cobrawalk/internal/core"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/spectral"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
	"cobrawalk/internal/walk"
)

// Graph is an immutable simple undirected graph in CSR form. See the
// Builder and the generator functions for construction.
type Graph = graph.Graph

// Builder accumulates edges and produces a validated Graph.
type Builder = graph.Builder

// Rand is a seeded xoshiro256++ generator; all simulation randomness flows
// through values of this type. Not safe for concurrent use — derive one
// per goroutine with NewRandStream.
type Rand = rng.Rand

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewRandStream returns generator number `stream` of an independent family
// derived from seed, for reproducible parallelism.
func NewRandStream(seed, stream uint64) *Rand { return rng.NewStream(seed, stream) }

// NewBuilder returns a graph builder for n vertices with capacity for
// edgeHint undirected edges.
func NewBuilder(n, edgeHint int) *Builder { return graph.NewBuilder(n, edgeHint) }

// Graph generators (see internal/graph for the full catalogue).
var (
	// Complete returns the complete graph K_n.
	Complete = graph.Complete
	// Cycle returns the cycle C_n.
	Cycle = graph.Cycle
	// Hypercube returns the d-dimensional hypercube on 2^d vertices.
	Hypercube = graph.Hypercube
	// Torus returns the regular discrete torus with the given sides (>= 3).
	Torus = graph.Torus
	// Grid returns the (irregular) grid with the given sides.
	Grid = graph.Grid
	// Circulant returns the circulant graph with the given offsets.
	Circulant = graph.Circulant
	// CompleteBipartite returns K_{a,b}.
	CompleteBipartite = graph.CompleteBipartite
	// Paley returns the Paley graph on a prime q ≡ 1 (mod 4).
	Paley = graph.Paley
	// Petersen returns the Petersen graph.
	Petersen = graph.Petersen
	// RandomRegular returns a random simple r-regular graph.
	RandomRegular = graph.RandomRegular
	// RandomRegularConnected retries RandomRegular until connected.
	RandomRegularConnected = graph.RandomRegularConnected
	// ReadGraph parses the text edge-list format produced by WriteGraph.
	ReadGraph = graph.Read
	// WriteGraph serialises a graph in the text edge-list format.
	WriteGraph = graph.Write
	// WriteStore writes a graph as a checksummed binary CSR store file
	// (.csrg) that LoadStore maps back in O(1); see cmd/graphbuild.
	WriteStore = graphstore.Write
	// LoadStore memory-maps a store file written by WriteStore — the
	// returned graph's CSR slices must not outlive it (DESIGN.md §13).
	LoadStore = graphstore.Mmap
)

// SpectralReport collects λ₂, λ_n, λ_max, the spectral gap and derived
// quantities for a graph.
type SpectralReport = spectral.Report

// SpectralOptions tunes the iterative eigensolvers.
type SpectralOptions = spectral.Options

// Analyze computes the spectral report of g with default solver options.
func Analyze(g *Graph) (SpectralReport, error) {
	return spectral.Analyze(g, spectral.Options{})
}

// LambdaMax returns λ = max_{i≥2}|λ_i| of the transition matrix of g — the
// quantity the paper's bounds are stated in.
func LambdaMax(g *Graph) (float64, error) {
	return spectral.LambdaMax(g, spectral.Options{})
}

// Spectrum returns all transition-matrix eigenvalues of g in non-increasing
// order (dense solver; graphs up to 1500 vertices).
func Spectrum(g *Graph) ([]float64, error) { return spectral.DenseSpectrum(g) }

// Branching describes a process branching factor: K pushes always, plus
// one more with probability Rho (Theorem 3's 1+ρ regime is K=1, Rho=ρ).
type Branching = process.Branching

// PhaseTimes is the three-phase decomposition of a BIPS |A_t| trajectory
// (Lemmas 2-4); see DetectPhases.
type PhaseTimes = core.PhaseTimes

// DetectPhases decomposes a BIPS size trajectory — a MetricsCollector's
// Active series on the bips process — into the paper's three proof
// phases (Lemmas 2-4).
var DetectPhases = core.DetectPhases

// Duality machinery (Theorem 4).
type (
	// DualityEstimate holds Monte-Carlo estimates of both sides of the
	// duality for t = 0..T.
	DualityEstimate = core.DualityEstimate
	// ExactDuality holds the exact subset-space evaluation of both sides.
	ExactDuality = core.ExactDuality
)

var (
	// EstimateDuality estimates both sides of Theorem 4 by Monte Carlo.
	EstimateDuality = core.EstimateDuality
	// ComputeExactDuality verifies Theorem 4 exactly on graphs with at
	// most MaxExactVertices vertices.
	ComputeExactDuality = core.ComputeExactDuality
	// Lemma1Bound is the paper's one-step growth lower bound.
	Lemma1Bound = core.Lemma1Bound
	// ExactExpectedGrowth evaluates E(|A_{t+1}| | A_t = A) in closed form.
	ExactExpectedGrowth = core.ExactExpectedGrowth
)

// MaxExactVertices bounds the exact duality solver (subset-space cost 4^n).
const MaxExactVertices = core.MaxExactVertices

// Summary holds descriptive statistics of a sample.
type Summary = stats.Summary

// Summarize computes the Summary of a sample.
var Summarize = stats.Summarize

// Streaming statistics: constant-memory accumulators for Monte-Carlo
// ensembles too large to materialise (internal/sim.Reduce folds trials
// into them in parallel, deterministically; sweep points and most
// experiment ensembles reach it through internal/sweep.Ensemble).
type (
	// Stream accumulates count/mean/variance/min/max online (Welford).
	Stream = stats.Stream
	// QuantileSketch estimates quantiles with bounded relative error and
	// merges exactly.
	QuantileSketch = stats.QuantileSketch
	// Digest combines a Stream and a QuantileSketch — the streaming
	// counterpart of Summarize.
	Digest = stats.Digest
	// DigestSummary is a Digest snapshot, JSON-marshalable for tooling.
	DigestSummary = stats.DigestSummary
	// Histogram is a fixed-bin mergeable histogram.
	Histogram = stats.Histogram
)

var (
	// NewDigest returns an empty Digest with default sketch accuracy.
	NewDigest = stats.NewDigest
	// NewQuantileSketch returns an empty sketch with the given relative
	// accuracy.
	NewQuantileSketch = stats.NewQuantileSketch
	// NewHistogram returns an empty fixed-bin histogram over [lo, hi).
	NewHistogram = stats.NewHistogram
)

// DefaultBranching is the paper's canonical k = 2 branching factor.
var DefaultBranching = process.DefaultBranching

// The unified process layer: every spreading process — cobra, bips,
// push, push-pull, flood and kwalk — is a reusable Process object
// behind one interface, registered by name (see internal/process);
// cobra and bips run on the intra-trial round kernel. Construct
// once per graph via NewProcess, then Reset/Step (or RunProcess) many
// times; ensembles run without per-trial graph-sized allocations.
type (
	// Process is a reusable spreading process bound to a fixed graph.
	Process = process.Process
	// ProcessConfig parameterises process construction (branching,
	// bips fast sampling, round observer, kernel workers).
	ProcessConfig = process.Config
	// ProcessInfo is one registry entry: name, axis semantics, factory.
	ProcessInfo = process.Info
	// ProcessResult reports one driven run (RunProcess).
	ProcessResult = process.Result
	// ProcessRoundStat is the per-round observation a RoundObserver
	// receives.
	ProcessRoundStat = process.RoundStat
	// RoundObserver receives a ProcessRoundStat after every Step —
	// the hook for recording per-round trajectories.
	RoundObserver = process.RoundObserver
)

var (
	// NewProcess constructs the named registry process on a graph.
	NewProcess = process.New
	// LookupProcess returns the registry entry for a process name.
	LookupProcess = process.Lookup
	// ProcessNames returns the registered process names in canonical
	// order — the single source of truth for every process list.
	ProcessNames = process.Names
	// ProcessInfos returns the registry entries in canonical order.
	ProcessInfos = process.All
	// RunProcess drives a Process through one full run (Reset + Step
	// until done or the round cap).
	RunProcess = process.Run
)

// The metrics layer: a MetricsCollector rides a process's RoundObserver
// hook and accumulates one trial's scalars (rounds, transmissions, peak
// active set, half-coverage round) and per-round series (reached, newly
// reached, active) into reusable buffers; a TrajectoryDigest folds those
// series across a Monte-Carlo ensemble into mergeable per-round quantile
// bands. This is the pipeline behind sweep trajectory metrics, the
// daemon's /v1/jobs/{id}/trajectories stream and the paper's phase plots.
type (
	// MetricsCollector accumulates per-trial metrics via Observe.
	MetricsCollector = process.Collector
	// TrajectoryDigest aggregates per-round trajectories across trials.
	TrajectoryDigest = stats.TrajectoryDigest
	// TrajectorySummary is a snapshot: per-round n/mean/p10/p50/p90.
	TrajectorySummary = stats.TrajectorySummary
)

var (
	// NewMetricsCollector returns a collector for an n-vertex graph;
	// attach its Observe method as ProcessConfig.Observer.
	NewMetricsCollector = process.NewCollector
	// RunProcessCollect drives one collected run: Reset, Collector.Begin,
	// then Step until done, the round cap, or ctx cancellation.
	RunProcessCollect = process.RunCollect
	// NewTrajectoryDigest returns an empty trajectory digest.
	NewTrajectoryDigest = stats.NewTrajectoryDigest
)

// Random-walk theory: exact anchors for the k = 1 end of the branching
// spectrum.
var (
	// ExpectedHittingTimes solves the absorbing-chain system exactly.
	ExpectedHittingTimes = walk.ExpectedHittingTimes
	// PairwiseHittingTimes returns the full hitting-time matrix.
	PairwiseHittingTimes = walk.PairwiseHittingTimes
	// MatthewsBounds sandwiches the walk cover time from hitting times.
	MatthewsBounds = walk.MatthewsBounds
	// StationaryDistribution is the degree-proportional walk stationary law.
	StationaryDistribution = walk.StationaryDistribution
)

// Gini summarises inequality of a non-negative sample (load balance).
var Gini = stats.Gini

// Parameter sweeps: a SweepSpec declares a grid over graph family × size
// × degree × process × branching; RunSweep expands it into deterministic,
// ID-stamped points and streams each point's ensemble into digests. With
// SweepOptions.Dir set, completed points persist as JSON records and
// interrupted sweeps resume byte-identically (see internal/sweep and
// cmd/sweep).
type (
	// SweepSpec declares the axes of a sweep grid.
	SweepSpec = sweep.Spec
	// SweepPoint is one fully-specified cell of the expanded grid.
	SweepPoint = sweep.Point
	// SweepResult is one completed point: identity + ensemble digests.
	SweepResult = sweep.Result
	// SweepReport is the outcome of RunSweep.
	SweepReport = sweep.Report
	// SweepOptions carries scheduling and artifact settings; it never
	// affects the computed results.
	SweepOptions = sweep.Options
	// SweepFamily names a graph generator usable in SweepSpec.Families.
	SweepFamily = sweep.Family
)

// RunSweep expands spec and executes every point across a worker pool.
func RunSweep(ctx context.Context, spec SweepSpec, opts SweepOptions) (*SweepReport, error) {
	return sweep.Run(ctx, spec, opts)
}

var (
	// SweepFamilies returns the sweep family registry.
	SweepFamilies = sweep.Families
	// SweepProcesses returns the supported sweep process names,
	// delegating to the process registry (same list as ProcessNames).
	SweepProcesses = sweep.Processes
	// ParseBranchings parses the "K" / "K+RHO" comma-list grammar used
	// by cmd/sweep's -branchings flag.
	ParseBranchings = sweep.ParseBranchings
	// SweepMetrics returns the sweep metric registry in canonical order.
	SweepMetrics = sweep.Metrics
	// SweepMetricNames returns the registered metric names.
	SweepMetricNames = sweep.MetricNames
	// ParseMetrics parses the comma-list grammar of cmd/sweep's -metrics
	// flag against the metric registry.
	ParseMetrics = sweep.ParseMetrics
)

// Canonical sweep metric names (see the registry in internal/sweep):
// scalar summaries per trial plus trajectory quantile bands per round.
const (
	SweepMetricRounds        = sweep.MetricRounds
	SweepMetricTransmissions = sweep.MetricTransmissions
	SweepMetricPeakActive    = sweep.MetricPeakActive
	SweepMetricHalfCoverage  = sweep.MetricHalfCoverage
	SweepMetricCoverage      = sweep.MetricCoverage
	SweepMetricFrontier      = sweep.MetricFrontier
)

// Graph caching: a GraphCache shares built graphs across sweep points,
// jobs and whole runs (LRU by a vertex-count budget, single-flighted
// builds). Hand one to SweepOptions.GraphCache — points that share a
// topology also share a GraphSeed, so one build serves the whole
// process × branching fan-out. The cobrawalkd daemon keeps one cache
// across every job it serves.
type (
	// GraphCache is a concurrency-safe LRU cache of built graphs.
	GraphCache = graphcache.Cache
	// GraphCacheKey identifies one buildable graph: topology axes + seed.
	GraphCacheKey = graphcache.Key
	// GraphCacheStats is a snapshot of hit/miss/eviction counters.
	GraphCacheStats = graphcache.Stats
)

// NewGraphCache returns an empty graph cache holding at most
// budgetVertices total vertices (<= 0 means the default budget).
var NewGraphCache = graphcache.New

// BuildInfo is the build identity of the running binary (module,
// version, VCS revision, toolchain), as served on the daemon's
// /v1/version and printed by every command's -version flag.
type BuildInfo = buildinfo.Info

// ReadBuildInfo reports the build identity of the running binary.
var ReadBuildInfo = buildinfo.Read

// RunProcessContext drives a Process like RunProcess but aborts
// mid-trial, promptly, when ctx is cancelled.
var RunProcessContext = process.RunContext
