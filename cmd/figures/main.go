// Command figures regenerates the paper's headline result as SVG figures
// (the PODC paper itself has no figures — these are the plots its theorems
// describe):
//
//	fig1-cover-vs-n.svg        cover time vs n per graph family (log-x):
//	                           straight lines ⇒ Theorem 1's O(log n)
//	fig2-cover-vs-gap.svg      cover time vs 1/(1-λ) (log-log): slope =
//	                           empirical gap exponent vs the cubic bound
//	fig3-trajectory.svg        |A_t| trajectories of BIPS runs showing the
//	                           Lemma 2-4 phases
//
// Usage:
//
//	figures -out ./figs -scale quick -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"cobrawalk/internal/buildinfo"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/plot"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/spectral"
	"cobrawalk/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		outDir  = fs.String("out", ".", "output directory for SVG files")
		scale   = fs.String("scale", "quick", "smoke | quick (sizes and trials)")
		seed    = fs.Uint64("seed", 7, "master RNG seed")
		version = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, buildinfo.Read())
		return nil
	}
	quick := *scale != "smoke"
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	for _, fig := range []struct {
		name string
		make func(quick bool, seed uint64) (*plot.Plot, error)
	}{
		{"fig1-cover-vs-n.svg", figureCoverVsN},
		{"fig2-cover-vs-gap.svg", figureCoverVsGap},
		{"fig3-trajectory.svg", figureTrajectory},
	} {
		p, err := fig.make(quick, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", fig.name, err)
		}
		path := filepath.Join(*outDir, fig.name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := p.Render(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", fig.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}

// meanCover is the mean cover time of trials k = 2 COBRA runs from
// vertex 0, run as a sweep ensemble on g: trial i draws from its own
// stream rng.NewStream(seed^0xf16, i).
func meanCover(g *graph.Graph, trials int, seed uint64) (float64, error) {
	res, err := sweep.Ensemble(context.Background(), g, sweep.Point{
		Process: process.Cobra, Branching: process.DefaultBranching, Trials: trials,
		Seed: seed ^ 0xf16, MaxRounds: process.DefaultMaxRounds,
		Metrics: []string{sweep.MetricRounds},
	}, sweep.Options{})
	if err != nil {
		return 0, err
	}
	return res.Metric(sweep.MetricRounds).Mean, nil
}

// figureCoverVsN is Theorem 1 as a picture: with a log-x axis, O(log n)
// cover times are straight lines whose slopes coincide for every degree
// with a comfortable spectral gap.
func figureCoverVsN(quick bool, seed uint64) (*plot.Plot, error) {
	sizes := []int{256, 512, 1024, 2048}
	trials := 15
	if quick {
		sizes = append(sizes, 4096)
		trials = 40
	}
	gr := rng.NewStream(seed, 0xf1)
	p := &plot.Plot{
		Title:  "COBRA k=2 cover time (Theorem 1: O(log n), degree-independent)",
		XLabel: "n (log scale)",
		YLabel: "mean cover time [rounds]",
		LogX:   true,
	}
	for _, deg := range []int{3, 8, 16} {
		var xs, ys []float64
		for _, n := range sizes {
			g, err := graph.RandomRegularConnected(n, deg, gr)
			if err != nil {
				return nil, err
			}
			m, err := meanCover(g, trials, seed)
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(n))
			ys = append(ys, m)
		}
		if err := p.Add(fmt.Sprintf("random %d-regular", deg), xs, ys); err != nil {
			return nil, err
		}
	}
	var xs, ys []float64
	for _, n := range sizes {
		if n > 2048 {
			continue
		}
		g, err := graph.Complete(n)
		if err != nil {
			return nil, err
		}
		m, err := meanCover(g, trials, seed)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(n))
		ys = append(ys, m)
	}
	if err := p.Add("complete K_n", xs, ys); err != nil {
		return nil, err
	}
	return p, nil
}

// figureCoverVsGap is the E7 sweep as a log-log picture: the empirical
// gap exponent is the line's slope, to be compared with the cubic bound.
func figureCoverVsGap(quick bool, seed uint64) (*plot.Plot, error) {
	trials := 10
	cn := 512
	js := []int{2, 4, 8, 16}
	if quick {
		trials = 30
		cn = 1024
		js = append(js, 32)
	}
	p := &plot.Plot{
		Title:  "cover time vs 1/(1-λ) (Theorems 1-2 allow exponent ≤ 3)",
		XLabel: "1/(1-λ) (log scale)",
		YLabel: "mean cover time [rounds] (log scale)",
		LogX:   true,
		LogY:   true,
	}
	var xs, ys []float64
	for _, j := range js {
		offs := make([]int, j)
		for i := range offs {
			offs[i] = i + 1
		}
		g, err := graph.Circulant(cn, offs)
		if err != nil {
			return nil, err
		}
		lambda, err := spectral.LambdaMax(g)
		if err != nil {
			return nil, err
		}
		if 1-lambda <= 1e-9 {
			continue
		}
		m, err := meanCover(g, trials, seed)
		if err != nil {
			return nil, err
		}
		xs = append(xs, 1/(1-lambda))
		ys = append(ys, m)
	}
	if err := p.Add(fmt.Sprintf("circulant n=%d, offsets 1..j", cn), xs, ys); err != nil {
		return nil, err
	}
	// Reference slope-1/2 line through the first point.
	if len(xs) >= 2 {
		ref := make([]float64, len(xs))
		for i := range xs {
			ref[i] = ys[len(ys)-1] * math.Sqrt(xs[i]/xs[len(xs)-1])
		}
		if err := p.Add("slope 1/2 reference", xs, ref); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// figureTrajectory shows |A_t| for a few BIPS runs with the Lemma 2-4
// thresholds visible as horizontal reference lines. The curves come from
// the metrics layer: a Collector attached to the registry's bips process
// records the per-round active series of each run.
func figureTrajectory(quick bool, seed uint64) (*plot.Plot, error) {
	n := 1024
	if quick {
		n = 4096
	}
	gr := rng.NewStream(seed, 0xf3)
	g, err := graph.RandomRegularConnected(n, 8, gr)
	if err != nil {
		return nil, err
	}
	col := process.NewCollector(g.N())
	b, err := process.New(process.BIPS, g, process.Config{Observer: col.Observe})
	if err != nil {
		return nil, err
	}
	p := &plot.Plot{
		Title:  fmt.Sprintf("BIPS |A_t| trajectories on %s (Lemmas 2-4 phases)", g.Name()),
		XLabel: "round t",
		YLabel: "|A_t| (log scale)",
		LogY:   true,
	}
	r := rng.NewStream(seed, 0xf33)
	maxLen := 0
	for run := 0; run < 3; run++ {
		res, err := process.RunCollect(nil, b, col, r, 1<<16, 0)
		if err != nil {
			return nil, err
		}
		if !res.Done {
			return nil, fmt.Errorf("uninfected run")
		}
		sizes := col.Active()
		xs := make([]float64, len(sizes))
		ys := make([]float64, len(sizes))
		for t, s := range sizes {
			xs[t] = float64(t)
			ys[t] = float64(s)
		}
		if len(xs) > maxLen {
			maxLen = len(xs)
		}
		if err := p.Add(fmt.Sprintf("run %d", run+1), xs, ys); err != nil {
			return nil, err
		}
	}
	// Threshold reference lines: m = 4·log2 n and 0.9n.
	m := 4 * math.Log2(float64(n))
	for _, ref := range []struct {
		name string
		y    float64
	}{{"m = 4·log₂n (Lemma 2→3)", m}, {"0.9·n (Lemma 3→4)", 0.9 * float64(n)}} {
		xs := []float64{0, float64(maxLen - 1)}
		ys := []float64{ref.y, ref.y}
		if err := p.Add(ref.name, xs, ys); err != nil {
			return nil, err
		}
	}
	return p, nil
}
