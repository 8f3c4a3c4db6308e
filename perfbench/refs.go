package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"math"
	"os"
	"sync"

	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/sweep"
)

// refs are the stored reference values the output checks compare
// against: each sweep-grid point's mean rounds and each expander-128k
// point's plausible rounds band, keyed by point id. They were computed
// with --write-ref at the seed they record; other seeds must land within
// 10% (grid) or inside the band (expander).
type refs struct {
	Seed     uint64                `json:"seed"`
	Grid     map[string]float64    `json:"grid"`
	Expander map[string][2]float64 `json:"expander"`
}

//go:embed refs.json
var refsJSON []byte

var loadRefs = sync.OnceValue(func() refs {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		panic(err) // refs.json is compiled in; a parse failure is a build defect
	}
	return r
})

// refSeeds and refTrials size the grid references: each point's mean
// rounds is averaged over refSeeds graphs of at least refTrials trials.
const (
	refSeeds  = 4
	refTrials = 100
)

// writeRefs recomputes the reference values from seed and writes them to
// path. The expander band is [0.8, 1.25] × the rounds observed.
func writeRefs(path string, seed uint64) error {
	r := refs{Seed: seed, Grid: map[string]float64{}, Expander: map[string][2]float64{}}
	for k := uint64(0); k < refSeeds; k++ {
		cache := graphcache.New(0)
		for _, spec := range gridSpecs(seed + k) {
			spec.Trials = max(spec.Trials, refTrials)
			rep, err := sweep.Run(context.Background(), spec, sweep.Options{GraphCache: cache})
			if err != nil {
				return err
			}
			for _, res := range rep.Results {
				r.Grid[res.ID] += res.Metric(sweep.MetricRounds).Mean / refSeeds
			}
		}
	}
	rep, err := sweep.Run(context.Background(), expanderSpec(seed), sweep.Options{})
	if err != nil {
		return err
	}
	for _, res := range rep.Results {
		x := res.Metric(sweep.MetricRounds).Mean
		r.Expander[res.ID] = [2]float64{math.Floor(0.8 * x), math.Ceil(1.25 * x)}
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// csr is the computed size of a CSR graph with n vertices of degree r:
// int32 neighbours plus n+1 int64 offsets.
func csr(n, r int64) int64 { return n*r*4 + (n+1)*8 }

// csrBytes is the computed CSR size of a workload's largest graph, 0
// where the programs build their graphs internally.
func csrBytes(workload string) int64 {
	switch workload {
	case "sweep-grid":
		return max(csr(1<<14, 32), csr(1<<10, 1<<10-1))
	case "expander-128k":
		return csr(expanderN, expanderR)
	case "daemon-mixed":
		return csr(daemonN, daemonR)
	}
	return 0
}
