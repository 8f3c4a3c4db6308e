package expt

import (
	"context"
	"fmt"
	"io"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sim"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// e14Experiment quantifies the per-vertex transmission budget that
// motivates COBRA (§1): not just total messages, but how the send load is
// distributed over vertices. Every COBRA activation sends exactly k
// messages and informed vertices go quiet between activations, so the send
// load per vertex is k·(activations) with activations ≈ cover-time-bounded;
// push keeps every informed vertex sending every round, so early-informed
// vertices accumulate Θ(cover time) sends. The table reports the mean and
// maximum per-vertex sends for both protocols, and COBRA's delivery
// (receive) balance.
func e14Experiment() Experiment {
	return Experiment{
		ID:    "E14",
		Title: "Per-vertex load balance: COBRA's budget vs push's busy vertices",
		Claim: "§1 (extension): COBRA limits transmissions per vertex per step; this measures the whole-run per-vertex load.",
		Run:   runE14,
	}
}

func runE14(ctx context.Context, w io.Writer, p Params) error {
	p = p.withDefaults()
	n := pick(p.Scale, 512, 2048, 8192)
	trials := pick(p.Scale, 15, 40, 80)
	gr := rng.NewStream(p.Seed, 0xe14)
	g, err := graph.RandomRegularConnected(n, 8, gr)
	if err != nil {
		return err
	}

	tbl := NewTable(fmt.Sprintf("E14: per-vertex send load on %s (means over %d runs)", g.Name(), trials),
		"protocol", "rounds", "total sends", "mean sends/vertex", "max sends/vertex", "max duty cycle")

	// COBRA k=2 with load tracking, one registry engine per worker. Each
	// trial folds five values into streams: rounds, total sends, max
	// sends, max receives and the send-load Gini.
	if _, err := process.New(process.Cobra, g, process.Config{}); err != nil {
		return err
	}
	cres, err := sim.ReduceWithState(ctx, sim.Spec{Trials: trials, Seed: p.Seed ^ 0xe14, Workers: p.Workers},
		streamsReducer(5),
		func() process.Process {
			c, err := process.New(process.Cobra, g, process.Config{})
			if err != nil {
				panic(err) // unreachable: validated above
			}
			return c
		},
		func(c process.Process, _ int, r *rng.Rand) ([]float64, error) {
			activations, deliveries, err := cobraLoads(c, g, r)
			if err != nil {
				return nil, err
			}
			var maxSend, maxRecv int64
			sends := make([]float64, len(activations))
			for v := range activations {
				send := 2 * activations[v] // k = 2 messages per activation
				sends[v] = float64(send)
				if send > maxSend {
					maxSend = send
				}
				if deliveries[v] > maxRecv {
					maxRecv = deliveries[v]
				}
			}
			gini, err := stats.Gini(sends)
			if err != nil {
				return nil, err
			}
			return []float64{float64(c.Round()), float64(c.Transmissions()), float64(maxSend), float64(maxRecv), gini}, nil
		})
	if err != nil {
		return err
	}
	cRounds, cTotal, cMax := cres[0].Mean(), cres[1].Mean(), cres[2].Mean()
	cMean := cTotal / float64(n)
	// Duty cycle: sends by the busiest vertex relative to the protocol's
	// per-round cap (k) over the whole run — 1.0 means "never rests".
	cDuty := cMax / (2 * cRounds)
	tbl.AddRow("COBRA k=2", f2(cRounds), f1(cTotal), f2(cMean), f2(cMax), f2(cDuty))
	cMaxRecv := cres[3].Mean()

	// Push: a vertex informed at round t sends exactly (rounds - t)
	// messages, so the busiest vertex is the start vertex, which pushes
	// every round: its send count is the run's round count. The
	// registry push therefore needs no per-vertex counter.
	push, err := sweep.Ensemble(ctx, g, sweep.Point{
		Process: process.Push, Trials: trials, Seed: p.Seed ^ 0x41, MaxRounds: 1 << 22,
		Metrics: []string{sweep.MetricRounds, sweep.MetricTransmissions},
	}, sweep.Options{TrialWorkers: p.Workers})
	if err != nil {
		return err
	}
	pRounds := push.Metric(sweep.MetricRounds).Mean
	pTotal := push.Metric(sweep.MetricTransmissions).Mean
	pMax := pRounds
	pMean := pTotal / float64(n)
	pDuty := pMax / pRounds // push's per-round cap is 1 send
	tbl.AddRow("push", f2(pRounds), f1(pTotal), f2(pMean), f2(pMax), f2(pDuty))

	cGini := cres[4].Mean()
	tbl.AddNote("duty cycle = (busiest vertex's sends)/(per-round cap × rounds); 1.00 means that vertex transmits every round")
	tbl.AddNote("COBRA send-load Gini coefficient: %.3f (0 = perfectly even)", cGini)
	tbl.AddNote("push's source transmits every round until global completion (duty %.2f); COBRA vertices go quiet between activations (max duty %.2f)", pDuty, cDuty)
	tbl.AddNote("COBRA max receive load (deliveries incl. duplicates): %.2f per vertex", cMaxRecv)
	return tbl.Emit(w, p)
}

// loadRoundCap bounds E14's COBRA load runs.
const loadRoundCap = 1 << 18

// cobraLoads runs one COBRA cover run from vertex 0 on c, a registry
// cobra engine on g, and counts per vertex the rounds it was active (it
// sent k = 2 messages each time) and the messages delivered to it,
// coalesced duplicates included. Both come from the engine's Pusher
// view: C_t before each Step, the pushes after it. A run that reaches
// loadRoundCap is an error naming the cap and the graph.
func cobraLoads(c process.Process, g *graph.Graph, r *rng.Rand) (activations, deliveries []int64, err error) {
	if err := c.Reset(0); err != nil {
		return nil, nil, err
	}
	pu := c.(process.Pusher)
	activations, deliveries = make([]int64, g.N()), make([]int64, g.N())
	var buf []int32
	for !c.Done() {
		if c.Round() >= loadRoundCap {
			return nil, nil, fmt.Errorf("cobra run hit round cap %d on %s", loadRoundCap, g.Name())
		}
		buf = pu.AppendActive(buf[:0])
		for _, v := range buf {
			activations[v]++
		}
		c.Step(r)
		buf = pu.AppendPushes(buf[:0])
		for _, u := range buf {
			deliveries[u]++
		}
	}
	return activations, deliveries, nil
}
