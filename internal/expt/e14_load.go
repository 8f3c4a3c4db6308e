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

	// COBRA k=2 with load tracking.
	type loadOut struct {
		rounds, total, maxSend, maxRecv, gini float64
	}
	cres, err := sim.Run(ctx, sim.Spec{Trials: trials, Seed: p.Seed ^ 0xe14, Workers: p.Workers},
		func(trial int, r *rng.Rand) (loadOut, error) {
			out, err := cobraWithLoad(g, 0, r)
			if err != nil {
				return loadOut{}, err
			}
			var maxSend, maxRecv int64
			sends := make([]float64, len(out.activations))
			for v := range out.activations {
				send := 2 * out.activations[v] // k = 2 messages per activation
				sends[v] = float64(send)
				if send > maxSend {
					maxSend = send
				}
				if out.deliveries[v] > maxRecv {
					maxRecv = out.deliveries[v]
				}
			}
			gini, err := stats.Gini(sends)
			if err != nil {
				return loadOut{}, err
			}
			return loadOut{float64(out.rounds), float64(out.transmissions), float64(maxSend), float64(maxRecv), gini}, nil
		})
	if err != nil {
		return err
	}
	cRounds := stats.Mean(sim.Floats(cres, func(o loadOut) float64 { return o.rounds }))
	cTotal := stats.Mean(sim.Floats(cres, func(o loadOut) float64 { return o.total }))
	cMax := stats.Mean(sim.Floats(cres, func(o loadOut) float64 { return o.maxSend }))
	cMean := cTotal / float64(n)
	// Duty cycle: sends by the busiest vertex relative to the protocol's
	// per-round cap (k) over the whole run — 1.0 means "never rests".
	cDuty := cMax / (2 * cRounds)
	tbl.AddRow("COBRA k=2", f2(cRounds), f1(cTotal), f2(cMean), f2(cMax), f2(cDuty))
	cMaxRecv := stats.Mean(sim.Floats(cres, func(o loadOut) float64 { return o.maxRecv }))

	// Push: per-vertex sends = rounds since the vertex was informed, which
	// we can compute from the protocol's structure: a vertex informed at
	// round t sends exactly (rounds - t) messages. Like COBRA's, the push
	// loop runs here with a per-vertex counter.
	pres, err := sim.Run(ctx, sim.Spec{Trials: trials, Seed: p.Seed ^ 0x41, Workers: p.Workers},
		func(trial int, r *rng.Rand) (loadOut, error) {
			rounds, total, maxSend, err := pushWithLoad(g, 0, r)
			if err != nil {
				return loadOut{}, err
			}
			return loadOut{rounds: float64(rounds), total: float64(total), maxSend: float64(maxSend)}, nil
		})
	if err != nil {
		return err
	}
	pRounds := stats.Mean(sim.Floats(pres, func(o loadOut) float64 { return o.rounds }))
	pTotal := stats.Mean(sim.Floats(pres, func(o loadOut) float64 { return o.total }))
	pMax := stats.Mean(sim.Floats(pres, func(o loadOut) float64 { return o.maxSend }))
	pMean := pTotal / float64(n)
	pDuty := pMax / pRounds // push's per-round cap is 1 send
	tbl.AddRow("push", f2(pRounds), f1(pTotal), f2(pMean), f2(pMax), f2(pDuty))

	cGini := stats.Mean(sim.Floats(cres, func(o loadOut) float64 { return o.gini }))
	tbl.AddNote("duty cycle = (busiest vertex's sends)/(per-round cap × rounds); 1.00 means that vertex transmits every round")
	tbl.AddNote("COBRA send-load Gini coefficient: %.3f (0 = perfectly even)", cGini)
	tbl.AddNote("push's source transmits every round until global completion (duty %.2f); COBRA vertices go quiet between activations (max duty %.2f)", pDuty, cDuty)
	tbl.AddNote("COBRA max receive load (deliveries incl. duplicates): %.2f per vertex", cMaxRecv)
	return tbl.Emit(w, p)
}

// cobraLoad is one COBRA run's outcome with its per-vertex load.
type cobraLoad struct {
	rounds        int
	transmissions int64
	// activations[v] counts the rounds v was active, so v sent
	// 2·activations[v] messages.
	activations []int64
	// deliveries[v] counts messages delivered to v, including coalesced
	// duplicates.
	deliveries []int64
}

// cobraWithLoad runs one COBRA k=2 cover run from start, recording
// per-vertex activations and deliveries. The registry cobra engine's
// branch-free push loop carries no per-push hook, so this mirrors its
// loop with counters. It draws exactly as the engine does: one round
// seed from r per round, then the active set in process.KernelChunk
// blocks, block c drawing one bounded draw per push from stream
// (roundSeed, c), with C_{t+1} in first-push order. A run past 2^18
// rounds is an error.
func cobraWithLoad(g *graph.Graph, start int32, r *rng.Rand) (cobraLoad, error) {
	n := g.N()
	out := cobraLoad{activations: make([]int64, n), deliveries: make([]int64, n)}
	visited := make([]bool, n)
	chosen := make([]int, n) // chosen[u] == round+1: u is already in C_{round+1}
	visited[start] = true
	count := 1
	cur := []int32{start}
	var next []int32
	cr := rng.New(0) // the chunk generator, reseeded per block
	for count < n {
		if out.rounds >= 1<<18 {
			return cobraLoad{}, fmt.Errorf("uncovered run")
		}
		next = next[:0]
		roundSeed := r.Uint64()
		for j, v := range cur {
			if j%process.KernelChunk == 0 {
				cr.ReseedStream(roundSeed, uint64(j/process.KernelChunk))
			}
			out.activations[v]++
			deg := g.Degree(v)
			for i := 0; i < 2; i++ {
				u := g.Neighbor(v, cr.Intn(deg))
				out.transmissions++
				out.deliveries[u]++
				if chosen[u] == out.rounds+1 {
					continue // coalesce
				}
				chosen[u] = out.rounds + 1
				next = append(next, u)
				if !visited[u] {
					visited[u] = true
					count++
				}
			}
		}
		cur, next = next, cur
		out.rounds++
	}
	return out, nil
}

// pushWithLoad runs the push protocol recording per-vertex send counts
// (the process-layer push tracks only totals, so this mirrors its loop
// with a per-vertex counter).
func pushWithLoad(g *graph.Graph, start int32, r *rng.Rand) (rounds int, total int64, maxSend int64, err error) {
	n := g.N()
	informed := make([]bool, n)
	informed[start] = true
	frontier := []int32{start}
	sends := make([]int64, n)
	count := 1
	for count < n {
		rounds++
		if rounds > 1<<22 {
			return 0, 0, 0, fmt.Errorf("push exceeded the round cap")
		}
		var newly []int32
		for _, v := range frontier {
			u := g.Neighbor(v, r.Intn(g.Degree(v)))
			sends[v]++
			total++
			if !informed[u] {
				informed[u] = true
				count++
				newly = append(newly, u)
			}
		}
		frontier = append(frontier, newly...)
	}
	for _, s := range sends {
		if s > maxSend {
			maxSend = s
		}
	}
	return rounds, total, maxSend, nil
}
