// Package cobrawalk is a simulation laboratory for the coalescing-branching
// random walk (COBRA) and its dual epidemic process (BIPS), reproducing
//
//	Cooper, Radzik, Rivera — "The Coalescing-Branching Random Walk on
//	Expanders and the Dual Epidemic Process", PODC 2016.
//
// COBRA is an information-propagation protocol: every informed vertex
// pushes to k uniformly random neighbours and then goes quiet until
// re-informed; duplicate deliveries coalesce. The paper's headline result
// (Theorem 1) bounds the cover time on n-vertex regular graphs by
// O(log n/(1-λ)³), where λ is the second eigenvalue (in absolute value) of
// the random-walk transition matrix — O(log n) on expanders, independent
// of the degree. Its key tool is an exact duality (Theorem 4) with BIPS, a
// discrete SIS-type epidemic with a persistent source:
//
//	P̂(Hit_u(v) > t)  =  P(u ∉ A_t | A_0 = {v}).
//
// This package is the public facade over the internal implementation:
//
//   - graph substrate: CSR graphs and the generator families used in the
//     paper's analysis (random regular expanders, K_n, cycles, tori,
//     hypercubes, Paley graphs, ...);
//   - spectral toolkit: λ₂, λ_n, λ_max, spectral gap, the Theorem 1/2 time
//     scale T = log n/(1-λ)³;
//   - the COBRA and BIPS processes with integer branching k and fractional
//     branching 1+ρ (Theorem 3 / Corollary 1), plus the push, push-pull,
//     flood and k-walk comparison protocols, all from one process
//     registry (NewProcess) with one production engine each;
//   - the duality machinery: Monte-Carlo estimation and an exact
//     subset-space verifier for graphs up to 13 vertices;
//   - Lemma 1 growth bounds, three-phase trajectory analysis (Lemmas 2-4);
//   - a deterministic parallel Monte-Carlo harness with two aggregation
//     modes on one worker pool — materialise every trial (sim.Run) or
//     stream trials into constant-memory mergeable accumulators
//     (sim.Reduce), so ensembles of 10⁵+ trials run in O(1) memory with
//     bit-identical results for any worker count; sweep points and most
//     experiment ensembles reach it through one path (sweep.Ensemble);
//   - batch and streaming statistics: summaries, confidence intervals,
//     scaling-law fits, Welford streams, quantile sketches, histograms
//     (re-exported here as Stream, QuantileSketch, Digest, Histogram);
//   - a pluggable metrics layer: a MetricsCollector rides any process's
//     round-observer hook and records per-trial scalars plus per-round
//     series in reusable zero-alloc buffers, and a TrajectoryDigest
//     folds those series across an ensemble into mergeable per-round
//     p10/p50/p90 quantile bands — the paper's phase plots as data;
//   - a declarative, resumable parameter-sweep engine: a SweepSpec names
//     a grid over family × size × degree × process × branching plus a
//     metric set (rounds, transmissions, peak-active, half-coverage,
//     and the coverage/frontier trajectory bands), RunSweep executes
//     its deterministic points across a worker pool, and artifact
//     directories make interrupted sweeps resume byte-identically
//     (see also cmd/sweep);
//   - a concurrency-safe graph cache (GraphCache): LRU by vertex budget
//     with single-flighted builds, shared across sweep points and — in
//     the cobrawalkd daemon — across jobs, so repeated topologies skip
//     graph construction without affecting a single result byte.
//
// # Quick start
//
//	r := cobrawalk.NewRand(1)
//	g, err := cobrawalk.RandomRegular(4096, 8, r)
//	if err != nil { ... }
//	rep, err := cobrawalk.Analyze(g)        // λ, gap, theorem T
//	proc, err := cobrawalk.NewProcess("cobra", g, cobrawalk.ProcessConfig{}) // k = 2
//	res, err := cobrawalk.RunProcess(proc, r, 0, 0) // res.Rounds, res.Transmissions
//
// The runnable programs under cmd/ (cobrasim, bipssim, sweep, graphinfo,
// experiments, figures, and the cobrawalkd HTTP simulation service) and
// the examples/ directory exercise this API end to end; the experiment
// suite E1-E15 reproduces every quantitative claim in the paper.
// README.md covers installation and the command-line tools, DESIGN.md
// the architecture (§10 for the service layer, §11 for the metrics
// layer), and EXPERIMENTS.md the per-experiment tables, the paper
// claim each one reproduces, and the paper-figure → metric mapping.
package cobrawalk
