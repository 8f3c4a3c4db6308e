// Command cobrasim runs Monte-Carlo COBRA cover-time experiments on a
// chosen graph family and prints summary statistics. Trials run through
// sweep.Trials, the trial loop behind every sweep point, and stream into
// constant-memory digests, so -trials can be pushed to 10⁵+ without
// memory growth.
//
// Usage:
//
//	cobrasim -graph rand-reg:4096:8 -k 2 -trials 100 -seed 1
//	cobrasim -graph complete:1024 -k 1 -rho 0.5 -trials 50 -hist
//	cobrasim -graph rand-reg:65536:8 -trials 100000 -no-spectral -json
//
// The -graph flag uses the specification grammar of internal/cli; -json
// emits a single machine-readable JSON object instead of text.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"cobrawalk/internal/buildinfo"
	"cobrawalk/internal/cli"
	"cobrawalk/internal/core"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/spectral"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cobrasim:", err)
		os.Exit(1)
	}
}

// agg is the streaming accumulator one shard folds its trials into:
// digests for the cover time and the transmission count.
type agg struct {
	cover, msgs *stats.Digest
}

func newAgg() *agg { return &agg{cover: stats.NewDigest(), msgs: stats.NewDigest()} }

func (a *agg) merge(o *agg) (*agg, error) {
	if err := a.cover.Merge(o.cover); err != nil {
		return nil, err
	}
	if err := a.msgs.Merge(o.msgs); err != nil {
		return nil, err
	}
	return a, nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cobrasim", flag.ContinueOnError)
	var (
		graphSpec = fs.String("graph", "rand-reg:1024:8", "graph specification (see internal/cli)")
		k         = fs.Int("k", 2, "integer branching factor")
		rho       = fs.Float64("rho", 0, "fractional extra branching probability in [0,1)")
		trials    = fs.Int("trials", 100, "number of independent runs")
		seed      = fs.Uint64("seed", 1, "master RNG seed")
		start     = fs.Int("start", 0, "start vertex")
		workers   = fs.Int("workers", 0, "trial worker goroutines (0 = GOMAXPROCS; at most -trials); each trial gets GOMAXPROCS / trial workers (at least 1) kernel workers")
		maxRounds = fs.Int("max-rounds", process.DefaultMaxRounds, "per-run round cap")
		hist      = fs.Bool("hist", false, "print a cover-time histogram")
		noSpec    = fs.Bool("no-spectral", false, "skip the λ measurement (large graphs)")
		jsonOut   = fs.Bool("json", false, "emit one machine-readable JSON object")
		version   = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, buildinfo.Read())
		return nil
	}

	g, err := cli.BuildGraph(*graphSpec, rng.NewStream(*seed, 0x9))
	if err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Fprintf(w, "graph: %s\n", g)
	}

	var rep *spectral.Report
	if !*noSpec {
		r, err := spectral.Analyze(g)
		if err != nil {
			return err
		}
		rep = &r
		if !*jsonOut {
			fmt.Fprintf(w, "λmax: %.6f  gap: %.6f  T=log(n)/gap³: %.1f\n", rep.LambdaMax, rep.Gap, rep.TheoremT())
		}
	}

	branch := core.Branching{K: *k, Rho: *rho}
	if err := branch.Validate(); err != nil {
		return err
	}
	if *maxRounds < 1 {
		return fmt.Errorf("max rounds %d, need >= 1", *maxRounds)
	}
	red := sim.Reducer[sweep.Trial, *agg]{
		New: newAgg,
		Fold: func(a *agg, _ int, t sweep.Trial) *agg {
			a.cover.Add(float64(t.Result.Rounds))
			a.msgs.Add(float64(t.Result.Transmissions))
			return a
		},
		Merge: func(into, from *agg) (*agg, error) { return into.merge(from) },
	}
	total, err := sweep.Trials(context.Background(), g, sweep.Point{
		Process: process.Cobra, Branching: branch, Trials: *trials, Seed: *seed, MaxRounds: *maxRounds,
	}, *start, sweep.Options{TrialWorkers: *workers}, red)
	if err != nil {
		return err
	}
	cs, err := total.cover.Summary()
	if err != nil {
		return err
	}
	ms, err := total.msgs.Summary()
	if err != nil {
		return err
	}
	// A single trial has no standard error: the interval reads n/a.
	var ci95 any
	ciText := "n/a"
	if ci, err := cs.CI(0.95); err == nil {
		ci95 = map[string]float64{"lo": ci.Lo, "hi": ci.Hi}
		ciText = fmt.Sprintf("[%.2f, %.2f]", ci.Lo, ci.Hi)
	} else if !errors.Is(err, stats.ErrInsufficient) {
		return err
	}

	if *jsonOut {
		rec := map[string]any{
			"graph":         g.Name(),
			"n":             g.N(),
			"branching":     branch.String(),
			"trials":        *trials,
			"seed":          *seed,
			"cover_time":    cs,
			"transmissions": ms,
			"ci95":          ci95,
		}
		if rep != nil {
			rec["lambda"] = rep.LambdaMax
			rec["gap"] = rep.Gap
		}
		if *hist {
			h, err := total.cover.Sketch.FixedHistogram(cs.Min, cs.Max+1, 20)
			if err != nil {
				return err
			}
			rec["cover_time_histogram"] = map[string]any{
				"lo": h.Lo, "hi": h.Hi, "counts": h.Counts,
			}
		}
		blob, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", blob)
		return err
	}

	fmt.Fprintf(w, "cover time (%s, %d trials): mean %.2f %s  median %.0f  p95 %.0f  max %.0f\n",
		branch, *trials, cs.Mean, ciText, cs.P50, cs.P95, cs.Max)
	fmt.Fprintf(w, "cover/log2(n): %.3f   transmissions/run: %.0f (%.2f per vertex)\n",
		cs.Mean/math.Log2(float64(g.N())), ms.Mean, ms.Mean/float64(g.N()))

	if *hist {
		h, err := total.cover.Sketch.FixedHistogram(cs.Min, cs.Max+1, 20)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\ncover-time histogram:")
		fmt.Fprint(w, h.Render(48))
	}
	return nil
}
