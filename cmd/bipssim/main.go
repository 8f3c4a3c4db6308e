// Command bipssim runs Monte-Carlo BIPS infection experiments on a chosen
// graph family and prints summary statistics plus the three-phase
// decomposition of the trajectory (Lemmas 2-4 of the paper). Trials run
// through sweep.Trials, the trial loop behind every sweep point, and
// stream into constant-memory digests, so -trials can be pushed to 10⁵+
// without memory growth.
//
// Usage:
//
//	bipssim -graph rand-reg:4096:8 -trials 100 -seed 1
//	bipssim -graph torus:64x64 -k 2 -trials 50
//	bipssim -graph rand-reg:4096:8 -trials 100000 -json
//
// -json emits a single machine-readable JSON object instead of text.
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
		fmt.Fprintln(os.Stderr, "bipssim:", err)
		os.Exit(1)
	}
}

// agg is the streaming accumulator one shard folds its trials into: a
// digest for the infection time and plain streams for the three phase
// lengths (means are all the report needs). A phase stream holds only
// the trials that completed that phase.
type agg struct {
	infec  *stats.Digest
	phases [3]stats.Stream
}

func newAgg() *agg { return &agg{infec: stats.NewDigest()} }

func (a *agg) merge(o *agg) (*agg, error) {
	if err := a.infec.Merge(o.infec); err != nil {
		return nil, err
	}
	for i := range a.phases {
		a.phases[i].Merge(o.phases[i])
	}
	return a, nil
}

// phaseMean is the mean length of a phase over the trials that completed
// it, or nil when none did: on graphs of up to 17 vertices the small-set
// target m = ⌈4·log₂ n⌉ is at least n, so phases 1 and 2 never end.
func phaseMean(s stats.Stream) any {
	if s.N() == 0 {
		return nil
	}
	return s.Mean()
}

// phaseText renders phaseMean for the text report.
func phaseText(s stats.Stream) string {
	if s.N() == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", s.Mean())
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bipssim", flag.ContinueOnError)
	var (
		graphSpec = fs.String("graph", "rand-reg:1024:8", "graph specification (see internal/cli)")
		k         = fs.Int("k", 2, "integer branching factor")
		rho       = fs.Float64("rho", 0, "fractional extra branching probability in [0,1)")
		trials    = fs.Int("trials", 100, "number of independent runs")
		seed      = fs.Uint64("seed", 1, "master RNG seed")
		source    = fs.Int("source", 0, "persistent infection source vertex")
		workers   = fs.Int("workers", 0, "trial worker goroutines (0 = GOMAXPROCS; at most -trials); each trial gets GOMAXPROCS / trial workers (at least 1) kernel workers")
		maxRounds = fs.Int("max-rounds", process.DefaultMaxRounds, "per-run round cap")
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

	g, err := cli.BuildGraph(*graphSpec, rng.NewStream(*seed, 0xb))
	if err != nil {
		return err
	}
	rep, err := spectral.Analyze(g)
	if err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Fprintf(w, "graph: %s\n", g)
		fmt.Fprintf(w, "λmax: %.6f  gap: %.6f\n", rep.LambdaMax, rep.Gap)
	}

	branch := core.Branching{K: *k, Rho: *rho}
	if err := branch.Validate(); err != nil {
		return err
	}
	if *maxRounds < 1 {
		return fmt.Errorf("max rounds %d, need >= 1", *maxRounds)
	}
	smallTarget := int(math.Ceil(4 * math.Log2(float64(g.N()))))
	red := sim.Reducer[sweep.Trial, *agg]{
		New: newAgg,
		// The frontier metric attaches a Collector; its |A_t| series
		// (start state included) feeds the Lemmas 2-4 phase
		// decomposition.
		Fold: func(a *agg, _ int, t sweep.Trial) *agg {
			a.infec.Add(float64(t.Result.Rounds))
			ph := core.DetectPhases(t.Collector.Active(), g.N(), smallTarget)
			p1, p2, p3 := ph.PhaseLengths()
			for i, l := range [3]int{p1, p2, p3} {
				if l >= 0 { // -1 for a phase the trial never completed
					a.phases[i].Add(float64(l))
				}
			}
			return a
		},
		Merge: func(into, from *agg) (*agg, error) { return into.merge(from) },
	}
	total, err := sweep.Trials(context.Background(), g, sweep.Point{
		Process: process.BIPS, Branching: branch, Trials: *trials, Seed: *seed, MaxRounds: *maxRounds,
		Metrics: []string{sweep.MetricFrontier},
	}, *source, sweep.Options{TrialWorkers: *workers}, red)
	if err != nil {
		return err
	}
	s, err := total.infec.Summary()
	if err != nil {
		return err
	}
	// A single trial has no standard error: the interval reads n/a.
	var ci95 any
	ciText := "n/a"
	if ci, err := s.CI(0.95); err == nil {
		ci95 = map[string]float64{"lo": ci.Lo, "hi": ci.Hi}
		ciText = fmt.Sprintf("[%.2f, %.2f]", ci.Lo, ci.Hi)
	} else if !errors.Is(err, stats.ErrInsufficient) {
		return err
	}

	if *jsonOut {
		blob, err := json.Marshal(map[string]any{
			"graph":          g.Name(),
			"n":              g.N(),
			"lambda":         rep.LambdaMax,
			"gap":            rep.Gap,
			"trials":         *trials,
			"seed":           *seed,
			"infection_time": s,
			"ci95":           ci95,
			"phase_mean_rounds": map[string]any{
				"small":  phaseMean(total.phases[0]),
				"growth": phaseMean(total.phases[1]),
				"finish": phaseMean(total.phases[2]),
			},
			"phase_small_target": smallTarget,
		})
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", blob)
		return err
	}

	fmt.Fprintf(w, "infection time (%d trials): mean %.2f %s  median %.0f  p95 %.0f  max %.0f\n",
		*trials, s.Mean, ciText, s.P50, s.P95, s.Max)
	fmt.Fprintf(w, "infec/log2(n): %.3f\n", s.Mean/math.Log2(float64(g.N())))
	fmt.Fprintf(w, "phases (m=%d): 1→m %s   m→0.9n %s   0.9n→n %s (mean rounds)\n",
		smallTarget, phaseText(total.phases[0]), phaseText(total.phases[1]), phaseText(total.phases[2]))
	return nil
}
