package expt

import (
	"context"
	"fmt"
	"io"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sweep"
)

// e9Experiment reproduces the paper's motivation (§1): COBRA propagates
// information fast while capping the number of transmissions per informed
// vertex per round at k, unlike flooding (degree transmissions per vertex)
// or push (every informed vertex keeps transmitting forever). The table
// pits COBRA k=2 against push, push-pull, flooding and k independent
// random walks on the same expander and reports rounds and total messages.
func e9Experiment() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Protocol comparison: rounds vs transmissions on an expander",
		Claim: "§1: COBRA's goal is fast propagation with ≤ k transmissions per informed vertex per round.",
		Run:   runE9,
	}
}

func runE9(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	n := pick(p.Scale, 512, 2048, 8192)
	trials := pick(p.Scale, 15, 40, 80)
	gr := rng.NewStream(p.Seed, 0xe9)
	g, err := graph.RandomRegularConnected(n, 8, gr)
	if err != nil {
		return err
	}

	tbl := NewTable(fmt.Sprintf("E9: broadcast protocols on %s", g.Name()),
		"protocol", "mean rounds", "p95 rounds", "mean msgs", "msgs/n", "per-vertex/round cap")

	// Every protocol rides the unified process layer through
	// sweep.Ensemble: one reusable Process per trial worker (construct
	// once, Reset per trial), rounds and messages folded into digests.
	deg, _ := g.Regularity()
	rows := []struct {
		proc      string
		branching core.Branching
		label     string
		cap       string
		seed      uint64
		maxRounds int
	}{
		{process.Cobra, core.DefaultBranching, "COBRA k=2", "2", p.Seed ^ 0xe9, 1 << 18},
		{process.Push, core.Branching{}, "push", "1 (but all informed vertices push forever)", p.Seed ^ 0x99, 1 << 22},
		{process.PushPull, core.Branching{}, "push-pull", "2 (every vertex contacts each round)", p.Seed ^ 0x99, 1 << 22},
		{process.Flood, core.Branching{}, "flood", fmt.Sprintf("%d (degree)", deg), p.Seed ^ 0x99, 1 << 22},
		{process.KWalk, core.Branching{K: 1}, "random-walk", "1 walker total", p.Seed ^ 0x99, 1 << 22},
		{process.KWalk, core.Branching{K: 2}, "2-walks", "2 walkers total", p.Seed ^ 0x99, 1 << 22},
	}
	for _, row := range rows {
		res, err := sweep.Ensemble(ctx, g, sweep.Point{
			Process: row.proc, Branching: row.branching, Trials: trials,
			Seed: row.seed, MaxRounds: row.maxRounds,
			Metrics: []string{sweep.MetricRounds, sweep.MetricTransmissions},
		}, sweep.Options{TrialWorkers: p.Workers})
		if err != nil {
			return err
		}
		rs, ms := res.Metric(sweep.MetricRounds), res.Metric(sweep.MetricTransmissions)
		tbl.AddRow(row.label, f2(rs.Mean), f1(rs.P95), f1(ms.Mean), f2(ms.Mean/float64(n)), row.cap)
	}
	tbl.AddNote("COBRA matches the O(log n) round complexity of push/flooding with a hard per-vertex budget of k=2")
	tbl.AddNote("random walks respect a budget of 1-2 messages/round globally but pay Θ(n log n) rounds")
	return tbl.Emit(w, p)
}
