package core

import (
	"fmt"
	"math"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// DualityEstimate holds Monte-Carlo estimates of both sides of the paper's
// Theorem 4 identity
//
//	P̂(Hit_u(v) > t)  =  P(u ∉ A_t | A_0 = {v})
//
// for t = 0..T: CobraSurvival[t] estimates the left side from COBRA runs
// started at u, and BipsExclusion[t] the right side from BIPS runs with
// source v.
type DualityEstimate struct {
	U, V          int32
	T             int
	Trials        int
	CobraSurvival []float64
	BipsExclusion []float64
	// SE[t] is the binomial standard error of each estimate.
	CobraSE []float64
	BipsSE  []float64
}

// MaxAbsDiff returns the largest |CobraSurvival[t] - BipsExclusion[t]|.
func (d DualityEstimate) MaxAbsDiff() float64 {
	maxDiff := 0.0
	for t := 0; t <= d.T; t++ {
		if diff := math.Abs(d.CobraSurvival[t] - d.BipsExclusion[t]); diff > maxDiff {
			maxDiff = diff
		}
	}
	return maxDiff
}

// MaxZScore returns the largest |difference| / (combined SE) over t,
// the natural test statistic for the equality: under Theorem 4 it behaves
// like the maximum of ~T standard normals.
func (d DualityEstimate) MaxZScore() float64 {
	maxZ := 0.0
	for t := 0; t <= d.T; t++ {
		se := math.Hypot(d.CobraSE[t], d.BipsSE[t])
		diff := math.Abs(d.CobraSurvival[t] - d.BipsExclusion[t])
		if se == 0 {
			if diff > 0 {
				return math.Inf(1)
			}
			continue
		}
		if z := diff / se; z > maxZ {
			maxZ = z
		}
	}
	return maxZ
}

// engine is a registry process with single-vertex membership; the
// registry's cobra and bips engines both qualify.
type engine interface {
	process.Process
	process.Reacher
}

// newEngine constructs the named registry engine on g with the given
// branching and the exact sampling path. The branching is validated here
// because process.Config reads a zero Branching as the default, which the
// estimators would otherwise accept silently.
func newEngine(name string, g *graph.Graph, branch Branching) (engine, error) {
	if err := branch.Validate(); err != nil {
		return nil, err
	}
	p, err := process.New(name, g, process.Config{Branching: branch})
	if err != nil {
		return nil, err
	}
	e, ok := p.(engine)
	if !ok {
		return nil, fmt.Errorf("core: process %s does not expose its reached set", name)
	}
	return e, nil
}

// EstimateDuality runs trials independent COBRA walks from u (recording
// whether v was hit by each round t) and trials independent BIPS epidemics
// with source v (recording whether u was infected at round t), estimating
// both sides of Theorem 4 for t = 0..tMax. Both processes are the
// registry engines on the exact sampling path with the given branching.
func EstimateDuality(g *graph.Graph, u, v int32, tMax, trials int, branch Branching, seed uint64) (DualityEstimate, error) {
	if tMax < 0 {
		return DualityEstimate{}, fmt.Errorf("core: negative horizon %d", tMax)
	}
	if trials < 1 {
		return DualityEstimate{}, fmt.Errorf("core: trials = %d, need >= 1", trials)
	}
	est := DualityEstimate{
		U: u, V: v, T: tMax, Trials: trials,
		CobraSurvival: make([]float64, tMax+1),
		BipsExclusion: make([]float64, tMax+1),
		CobraSE:       make([]float64, tMax+1),
		BipsSE:        make([]float64, tMax+1),
	}

	cobra, err := newEngine(process.Cobra, g, branch)
	if err != nil {
		return DualityEstimate{}, err
	}
	if v < 0 || int(v) >= g.N() {
		return DualityEstimate{}, fmt.Errorf("core: vertex %d out of range", v)
	}
	// COBRA side: survival counts surv[t] = #trials with Hit_u(v) > t.
	surv := make([]int, tMax+1)
	r := rng.NewStream(seed, 0x10b)
	for i := 0; i < trials; i++ {
		if err := cobra.Reset(u); err != nil {
			return DualityEstimate{}, err
		}
		for t := 0; t <= tMax; t++ {
			if t > 0 {
				cobra.Step(r)
			}
			if !cobra.Reached(v) {
				surv[t]++
			} else {
				break // once hit, survival is 0 for all later t
			}
		}
	}

	bips, err := newEngine(process.BIPS, g, branch)
	if err != nil {
		return DualityEstimate{}, err
	}
	// BIPS side: excl[t] = #trials with u ∉ A_t. Note u may leave and
	// rejoin the infected set, so every round is examined — and the
	// epidemic keeps stepping after full infection, up to the horizon.
	excl := make([]int, tMax+1)
	r2 := rng.NewStream(seed, 0xb1b5)
	for i := 0; i < trials; i++ {
		if err := bips.Reset(v); err != nil {
			return DualityEstimate{}, err
		}
		for t := 0; t <= tMax; t++ {
			if t > 0 {
				bips.Step(r2)
			}
			if !bips.Reached(u) {
				excl[t]++
			}
		}
	}

	n := float64(trials)
	for t := 0; t <= tMax; t++ {
		pc := float64(surv[t]) / n
		pb := float64(excl[t]) / n
		est.CobraSurvival[t] = pc
		est.BipsExclusion[t] = pb
		est.CobraSE[t] = math.Sqrt(pc * (1 - pc) / n)
		est.BipsSE[t] = math.Sqrt(pb * (1 - pb) / n)
	}
	return est, nil
}
