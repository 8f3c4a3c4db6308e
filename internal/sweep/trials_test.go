package sweep

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/stats"
)

// trialRecord is what TestTrials keeps of one Trial: its Result, whether
// a Collector came with it, and a copy of the Collector's |A_t| series.
type trialRecord struct {
	res    process.Result
	col    bool
	active []int
}

// recordTrials folds each Trial's rounds into a digest, through the sim
// layer's shard merges as Ensemble's rounds metric does, and copies the
// Trial into recs at its trial index.
func recordTrials(recs []trialRecord) sim.Reducer[Trial, *stats.Digest] {
	red := sim.DigestReducer(func(t Trial) float64 { return float64(t.Result.Rounds) })
	fold := red.Fold
	red.Fold = func(d *stats.Digest, i int, t Trial) *stats.Digest {
		recs[i] = trialRecord{res: t.Result, col: t.Collector != nil}
		if t.Collector != nil {
			recs[i].active = slices.Clone(t.Collector.Active())
		}
		return fold(d, i, t)
	}
	return red
}

// TestTrials pins sweep's one trial loop: every Options row folds the
// same trials, Ensemble is Trials from vertex 0 plus the metric folds, a
// Collector comes with a trial exactly when a requested metric observes
// rounds, each trial is the hand-driven run from the start vertex on its
// own stream, and the round cap, registry lookups and start range fail
// the ensemble.
func TestTrials(t *testing.T) {
	k48, err := graph.Complete(48)
	if err != nil {
		t.Fatal(err)
	}
	petersen, err := graph.Petersen()
	if err != nil {
		t.Fatal(err)
	}
	// 8192 vertices span four 2048-entry kernel chunks, so at MaxProcs 4
	// one trial worker splits each round across four kernel workers.
	big, _, err := BuildTopology("rand-reg", 8192, 8, 3)
	if err != nil {
		t.Fatal(err)
	}

	// matchesEnsemble: the rounds digest equals Ensemble's rounds summary
	// bit for bit, so Ensemble is Trials from vertex 0.
	matchesEnsemble := func(t *testing.T, g *graph.Graph, pt Point, sum stats.DigestSummary, _ []trialRecord) {
		res, err := Ensemble(context.Background(), g, pt, Options{TrialWorkers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Metric(MetricRounds); got != sum {
			t.Fatalf("Trials rounds %+v, Ensemble %+v", sum, got)
		}
	}
	// matchesRunCollect: trial i is process.RunCollect from vertex 7 on
	// rng.NewStream(pt.Seed, i), collector series included.
	matchesRunCollect := func(t *testing.T, g *graph.Graph, pt Point, _ stats.DigestSummary, recs []trialRecord) {
		col := process.NewCollector(g.N())
		p, err := process.New(pt.Process, g, process.Config{Branching: pt.Branching, Observer: col.Observe})
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if !rec.col || rec.active[0] != 1 {
				t.Fatalf("trial %d: collector %v, |A_0| = %v, want a collector and 1", i, rec.col, rec.active)
			}
			out, err := process.RunCollect(nil, p, col, rng.NewStream(pt.Seed, uint64(i)), pt.MaxRounds, 7)
			if err != nil {
				t.Fatal(err)
			}
			if out != rec.res || !slices.Equal(col.Active(), rec.active) {
				t.Fatalf("trial %d: Trials %+v %v, hand-driven %+v %v", i, rec.res, rec.active, out, col.Active())
			}
		}
	}
	noCollector := func(t *testing.T, _ *graph.Graph, _ Point, _ stats.DigestSummary, recs []trialRecord) {
		for i, rec := range recs {
			if rec.col {
				t.Fatalf("trial %d: a rounds-only point got a collector", i)
			}
		}
	}

	widths := []Options{{TrialWorkers: 1}, {TrialWorkers: 4}}
	kernelWidths := []Options{{TrialWorkers: 1, MaxProcs: 4}, {TrialWorkers: 4, MaxProcs: 4}}
	half := core.Branching{K: 1, Rho: 0.5}
	cases := []struct {
		name  string
		g     *graph.Graph
		pt    Point
		start int
		opts  []Options // every row must fold the same trials
		err   string    // non-empty: Trials fails with an error naming it
		check func(t *testing.T, g *graph.Graph, pt Point, sum stats.DigestSummary, recs []trialRecord)
	}{
		{name: "cobra-complete48-ensemble", g: k48, opts: widths, check: matchesEnsemble,
			pt: Point{Process: ProcCobra, Trials: 40, Seed: 5, MaxRounds: 1 << 14, Metrics: []string{MetricRounds}}},
		{name: "bips-petersen-from-7", g: petersen, start: 7, opts: widths, check: matchesRunCollect,
			pt: Point{Process: ProcBIPS, Trials: 12, Seed: 9, MaxRounds: 1 << 14, Metrics: []string{MetricFrontier}}},
		{name: "rounds-only-no-collector", g: petersen, start: 7, opts: widths, check: noCollector,
			pt: Point{Process: ProcBIPS, Trials: 12, Seed: 9, MaxRounds: 1 << 14, Metrics: []string{MetricRounds}}},
		{name: "cobra-multichunk-kernel-widths", g: big, opts: kernelWidths, check: noCollector,
			pt: Point{Process: ProcCobra, Branching: half, Trials: 4, Seed: 2, MaxRounds: 1 << 14}},
		{name: "bips-multichunk-kernel-widths", g: big, start: 4095, opts: kernelWidths,
			pt: Point{Process: ProcBIPS, Trials: 4, Seed: 2, MaxRounds: 1 << 14, Metrics: []string{MetricFrontier}}},
		{name: "round-cap", g: k48, err: "round cap 1",
			pt: Point{Process: ProcCobra, Trials: 2, Seed: 1, MaxRounds: 1}},
		{name: "unknown-process", g: k48, err: `unknown process "bogus"`,
			pt: Point{Process: "bogus", Trials: 2, Seed: 1, MaxRounds: 1 << 14}},
		{name: "unknown-metric", g: k48, err: `unknown metric "bogus"`,
			pt: Point{Process: ProcCobra, Trials: 2, Seed: 1, MaxRounds: 1 << 14, Metrics: []string{"bogus"}}},
		{name: "start-past-n", g: petersen, start: 10, err: "start vertex 10 out of range [0,10)",
			pt: Point{Process: ProcBIPS, Trials: 2, Seed: 1, MaxRounds: 1 << 14}},
		{name: "start-negative", g: petersen, start: -1, err: "start vertex -1 out of range",
			pt: Point{Process: ProcCobra, Trials: 2, Seed: 1, MaxRounds: 1 << 14}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err != "" {
				_, err := Trials(context.Background(), tc.g, tc.pt, tc.start, Options{},
					recordTrials(make([]trialRecord, tc.pt.Trials)))
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one naming %q", err, tc.err)
				}
				return
			}
			var first stats.DigestSummary
			var firstRecs []trialRecord
			for i, opts := range tc.opts {
				recs := make([]trialRecord, tc.pt.Trials)
				d, err := Trials(context.Background(), tc.g, tc.pt, tc.start, opts, recordTrials(recs))
				if err != nil {
					t.Fatal(err)
				}
				sum, err := d.Summary()
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first, firstRecs = sum, recs
				} else if sum != first || !reflect.DeepEqual(recs, firstRecs) {
					t.Fatalf("options %+v fold other trials than %+v", opts, tc.opts[0])
				}
				if sum.N != tc.pt.Trials {
					t.Fatalf("folded %d trials, want %d", sum.N, tc.pt.Trials)
				}
			}
			if tc.check != nil {
				tc.check(t, tc.g, tc.pt, first, firstRecs)
			}
		})
	}
}
