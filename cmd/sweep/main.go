// Command sweep runs a declarative parameter sweep: a grid over graph
// family × size × degree × process × branching expands into deterministic
// points, each point streams a Monte-Carlo ensemble into constant-memory
// digests, and the summary renders as an aligned table, CSV, or NDJSON.
//
// The spec comes from flags or a JSON file (-spec). With -out, every
// completed point persists immediately and -resume continues an
// interrupted sweep, skipping points already on disk; a completed resume
// is byte-identical to an uninterrupted run.
//
// The process axis accepts every name in the internal/process registry
// (see -list-processes); for kwalk the branching K is the walker count.
// The -metrics flag selects what each point records from the metric
// registry (see -list-metrics): scalar summaries (rounds, transmissions,
// peak-active, half-coverage) and/or trajectory quantile bands (coverage,
// frontier) persisted on the point records — the paper's phase plots as
// sweepable artifacts.
//
// Usage:
//
//	sweep -families rand-reg -sizes 1024,4096 -degrees 3,8 -trials 100
//	sweep -families rand-reg,complete -sizes 512 -degrees 8 \
//	      -processes cobra,push,flood -branchings 2,1+0.5 \
//	      -out runs/compare -format csv
//	sweep -families rand-reg -sizes 4096 -degrees 8 \
//	      -processes cobra,bips -metrics rounds,coverage,frontier \
//	      -trials 100 -out runs/phases
//	sweep -spec sweep.json -out runs/night -resume
//	sweep -families complete -sizes 256 -list-points
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"cobrawalk/internal/buildinfo"
	"cobrawalk/internal/cli"
	"cobrawalk/internal/expt"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/process"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the line main prints for a failed run: the error behind
// one "sweep: " prefix, which internal/sweep's errors already carry.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "sweep: ") {
		return msg
	}
	return "sweep: " + msg
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		specFile   = fs.String("spec", "", "JSON spec file (overrides the axis flags)")
		name       = fs.String("name", "", "sweep name for the manifest and summary title")
		families   = fs.String("families", "", "comma-separated graph families (see -list-families)")
		sizes      = fs.String("sizes", "", "comma-separated target vertex counts")
		degrees    = fs.String("degrees", "", "comma-separated degrees for degreed families")
		processes  = fs.String("processes", "cobra", "comma-separated processes ("+cli.ProcessList()+")")
		branchings = fs.String("branchings", "", "comma-separated branchings, each K or K+RHO (default 2)")
		metrics    = fs.String("metrics", "", "comma-separated metrics (see -list-metrics; default rounds,transmissions)")
		trials     = fs.Int("trials", 30, "trials per point")
		seed       = fs.Uint64("seed", 0, "sweep master seed (0, like a -spec file or daemon job that omits seed)")
		maxRounds  = fs.Int("max-rounds", 0, "per-trial round cap (0 = default)")
		lambda     = fs.Bool("lambda", false, "measure λ_max of every point's graph")

		outDir   = fs.String("out", "", "artifact directory (manifest + per-point records + results.ndjson)")
		resume   = fs.Bool("resume", false, "skip points whose records already exist in -out")
		workers  = fs.Int("workers", 0, "trial worker goroutines per point (0 = GOMAXPROCS; at most -trials); each cobra/bips trial gets GOMAXPROCS / trial workers (at least 1) kernel workers")
		cacheCap = fs.Int("graph-cache", 0, "graph cache vertex budget (0 = default, negative = disable)")
		graphDir = fs.String("graph-dir", "", "graph store directory: cache misses mmap .csrg files from here and built graphs spill back (see cmd/graphbuild)")
		madvise  = fs.String("graph-madvise", "", "madvise hints for -graph-dir mmaps: comma-separated willneed,hugepage, or off")

		format      = fs.String("format", "text", "summary output: text | csv | json")
		quiet       = fs.Bool("quiet", false, "suppress per-point progress on stderr")
		listPoints  = fs.Bool("list-points", false, "print the expanded point list and exit")
		listFams    = fs.Bool("list-families", false, "print the family registry and exit")
		listProcs   = fs.Bool("list-processes", false, "print the process registry and exit")
		listMetrics = fs.Bool("list-metrics", false, "print the metric registry and exit")
		version     = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.Read())
		return nil
	}

	if *listFams {
		for _, f := range sweep.Families() {
			kind := "sized"
			if f.Degreed {
				kind = "sized + degreed"
			}
			fmt.Fprintf(out, "%-10s %s\n", f.Name, kind)
		}
		return nil
	}
	if *listProcs {
		for _, info := range process.All() {
			axis := "unbranched"
			if info.Branched {
				axis = "branched (K"
				if info.AcceptsRho {
					axis += "+Rho"
				}
				axis += ")"
			}
			fmt.Fprintf(out, "%-10s %-18s %s\n", info.Name, axis, info.Summary)
		}
		return nil
	}
	if *listMetrics {
		for _, m := range sweep.Metrics() {
			kind := "scalar"
			if m.Trajectory {
				kind = "trajectory"
			}
			fmt.Fprintf(out, "%-14s %-10s %s\n", m.Name, kind, m.Summary)
		}
		return nil
	}

	fm, err := expt.ParseFormat(*format)
	if err != nil {
		return err
	}

	var spec sweep.Spec
	if *specFile != "" {
		blob, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		dec := json.NewDecoder(strings.NewReader(string(blob)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("parsing %s: %w", *specFile, err)
		}
	} else {
		spec = sweep.Spec{
			Name:          *name,
			Families:      splitList(*families),
			Trials:        *trials,
			Seed:          *seed,
			MaxRounds:     *maxRounds,
			MeasureLambda: *lambda,
		}
		if spec.Processes, err = cli.ParseProcesses(*processes); err != nil {
			return err
		}
		if spec.Sizes, err = splitInts(*sizes); err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
		if spec.Degrees, err = splitInts(*degrees); err != nil {
			return fmt.Errorf("-degrees: %w", err)
		}
		if spec.Branchings, err = sweep.ParseBranchings(*branchings); err != nil {
			return err
		}
		if spec.Metrics, err = sweep.ParseMetrics(*metrics); err != nil {
			return err
		}
	}

	if *resume && *outDir == "" {
		return fmt.Errorf("-resume requires -out (resume loads records from the artifact dir)")
	}

	pts, err := spec.Points()
	if err != nil {
		return err
	}
	if *listPoints {
		tbl := expt.NewTable(title(spec)+": points",
			"id", "family", "size", "d", "process", "branch", "trials", "seed")
		for _, pt := range pts {
			tbl.AddRow(pt.ID, pt.Family, strconv.Itoa(pt.Size), strconv.Itoa(pt.Degree),
				pt.Process, branchLabel(pt), strconv.Itoa(pt.Trials),
				strconv.FormatUint(pt.Seed, 10))
		}
		return tbl.Emit(out, expt.Params{Format: fm})
	}

	opts := sweep.Options{
		Dir:          *outDir,
		Resume:       *resume,
		TrialWorkers: *workers,
	}
	advice, err := graphstore.ParseAdvice(*madvise)
	if err != nil {
		return fmt.Errorf("-graph-madvise: %w", err)
	}
	if *cacheCap >= 0 {
		// Points sharing a topology share a GraphSeed, so the cache
		// serves one build to the whole process × branching fan-out.
		cache, err := graphcache.NewWithOptions(graphcache.Options{
			BudgetVertices: *cacheCap,
			StoreDir:       *graphDir,
			Madvise:        advice,
		})
		if err != nil {
			return err
		}
		opts.GraphCache = cache
	} else if *graphDir != "" {
		return fmt.Errorf("-graph-dir needs the graph cache (drop the negative -graph-cache)")
	}
	if !*quiet {
		done := 0
		opts.PointDone = func(res sweep.Result, resumed bool) {
			done++
			tag := ""
			if resumed {
				tag = "  (resumed)"
			}
			mean := "-"
			if res.HasMetric(sweep.MetricRounds) {
				mean = fmt.Sprintf("%.2f", res.Metric(sweep.MetricRounds).Mean)
			}
			fmt.Fprintf(errw, "[%d/%d] %s  mean=%s%s\n", done, len(pts), res.ID, mean, tag)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := sweep.Run(ctx, spec, opts)
	if err != nil {
		return err
	}

	tbl := expt.NewTable(title(rep.Spec),
		"id", "family", "n", "d", "process", "branch", "trials",
		"mean", "±95%", "p50", "p95", "max", "mean-msgs")
	for _, r := range rep.Results {
		rounds, hw, msgs := "-", "-", "-"
		p50, p95, maxv := "-", "-", "-"
		trialsCol := strconv.Itoa(r.Trials)
		if r.HasMetric(sweep.MetricRounds) {
			s := r.Metric(sweep.MetricRounds)
			trialsCol = strconv.Itoa(s.N)
			rounds = fmt.Sprintf("%.2f", s.Mean)
			p50 = fmt.Sprintf("%.1f", s.P50)
			p95 = fmt.Sprintf("%.1f", s.P95)
			maxv = fmt.Sprintf("%.0f", s.Max)
			// N = 1 ensembles have no standard error; show the mean with
			// a blank half-width rather than failing the whole summary.
			if ci, err := s.CI(0.95); err == nil {
				hw = fmt.Sprintf("%.2f", ci.Hi-s.Mean)
			} else if !errors.Is(err, stats.ErrInsufficient) {
				return err
			}
		}
		if r.HasMetric(sweep.MetricTransmissions) {
			msgs = fmt.Sprintf("%.0f", r.Metric(sweep.MetricTransmissions).Mean)
		}
		tbl.AddRow(r.ID, r.Family, strconv.Itoa(r.GraphN), strconv.Itoa(r.GraphDegree),
			r.Process, branchLabel(r.Point), trialsCol,
			rounds, hw, p50, p95, maxv, msgs)
	}
	// Scalar metrics beyond the canonical table columns surface as notes;
	// trajectory metrics summarise their band shape (full bands live in
	// the artifacts and the daemon's /v1/jobs/{id}/trajectories stream).
	for _, m := range rep.Spec.Metrics {
		if m == sweep.MetricRounds || m == sweep.MetricTransmissions {
			continue
		}
		for _, r := range rep.Results {
			if s, ok := r.Trajectory(m); ok {
				tbl.AddNote("%-32s %s: %d round columns, final p50 %.0f (n=%d survivors at last column)",
					r.ID, m, len(s.Rounds), s.P50[len(s.P50)-1], s.N[len(s.N)-1])
			} else if r.HasMetric(m) {
				s := r.Metric(m)
				tbl.AddNote("%-32s %s: mean %.2f  p50 %.1f  p95 %.1f  max %.0f", r.ID, m, s.Mean, s.P50, s.P95, s.Max)
			}
		}
	}
	if rep.Spec.MeasureLambda {
		for _, r := range rep.Results {
			tbl.AddNote("%-32s λ=%.4f (gap %.4f)", r.ID, r.Lambda, 1-r.Lambda)
		}
	}
	if rep.Resumed > 0 {
		tbl.AddNote("resumed: %d of %d points loaded from %s", rep.Resumed, len(rep.Results), *outDir)
	}
	if opts.GraphCache != nil {
		if st := opts.GraphCache.Stats(); st.Hits > 0 {
			tbl.AddNote("graph cache: %d built, %d reused", st.Misses, st.Hits)
		}
	}
	return tbl.Emit(out, expt.Params{Format: fm})
}

func title(spec sweep.Spec) string {
	if spec.Name != "" {
		return "sweep " + spec.Name
	}
	return "sweep"
}

// branchLabel renders the branching column, blank for unbranched
// processes (their collapsed Branching is the zero value).
func branchLabel(pt sweep.Point) string {
	if pt.Branching.K == 0 {
		return "-"
	}
	if pt.Branching.Rho == 0 {
		return fmt.Sprintf("k=%d", pt.Branching.K)
	}
	return fmt.Sprintf("k=%d+%s", pt.Branching.K,
		strconv.FormatFloat(pt.Branching.Rho, 'g', -1, 64))
}

func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, item := range splitList(s) {
		v, err := strconv.Atoi(item)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
