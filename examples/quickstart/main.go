// Quickstart: build a random regular expander, measure its spectral gap,
// and run the COBRA process to cover it — the minimal end-to-end use of
// the public API and a live demonstration of Theorem 1's O(log n) claim.
package main

import (
	"fmt"
	"math"

	"cobrawalk"
	"cobrawalk/internal/obs"
)

func main() {
	const (
		n    = 4096
		deg  = 8
		runs = 25
		seed = 1
	)
	logger := obs.DefaultLogger()

	r := cobrawalk.NewRand(seed)
	g, err := cobrawalk.RandomRegularConnected(n, deg, r)
	if err != nil {
		obs.Fatal(logger, "building graph", "err", err)
	}
	fmt.Println("graph:", g)

	rep, err := cobrawalk.Analyze(g)
	if err != nil {
		obs.Fatal(logger, "spectral analysis", "err", err)
	}
	fmt.Printf("λmax = %.4f, spectral gap = %.4f\n", rep.LambdaMax, rep.Gap)
	fmt.Printf("Theorem 1 time scale T = log n/(1-λ)³ = %.1f rounds\n", rep.TheoremT())

	// The zero ProcessConfig means branching k = 2, the paper's setting.
	proc, err := cobrawalk.NewProcess("cobra", g, cobrawalk.ProcessConfig{})
	if err != nil {
		obs.Fatal(logger, "creating process", "err", err)
	}
	covers := cobrawalk.NewDigest()
	var msgs float64
	for i := 0; i < runs; i++ {
		res, err := cobrawalk.RunProcess(proc, r, 0, 0) // cap 0 = default, start at vertex 0
		if err != nil {
			obs.Fatal(logger, "run failed", "run", i, "err", err)
		}
		if !res.Done {
			obs.Fatal(logger, "run did not cover the graph", "run", i)
		}
		covers.Add(float64(res.Rounds))
		msgs += float64(res.Transmissions)
	}
	s, err := covers.Summary()
	if err != nil {
		obs.Fatal(logger, "summarising cover times", "err", err)
	}
	fmt.Printf("\nCOBRA k=2 cover time over %d runs: mean %.1f, min %.0f, max %.0f rounds\n",
		runs, s.Mean, s.Min, s.Max)
	fmt.Printf("that is %.2f × log₂(n) — Theorem 1 says this ratio stays O(1) as n grows\n",
		s.Mean/math.Log2(n))
	fmt.Printf("mean transmissions per run: %.0f (%.2f per vertex; cap is k=2 per active vertex per round)\n",
		msgs/runs, msgs/runs/n)
}
