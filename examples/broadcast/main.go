// Broadcast: the systems trade-off the paper's introduction frames —
// propagate a message to all n nodes quickly while capping how many
// transmissions each node makes per round. COBRA (k pushes per informed
// node, then silence until re-informed) is compared against push (every
// informed node pushes forever), push-pull, flooding (degree transmissions
// per node per round) and k independent random walks on the same expander
// overlay network.
package main

import (
	"fmt"

	"cobrawalk"
	"cobrawalk/internal/obs"
)

const (
	nodes  = 4096
	degree = 8
	runs   = 20
	seed   = 11
)

func main() {
	logger := obs.DefaultLogger()
	r := cobrawalk.NewRand(seed)
	g, err := cobrawalk.RandomRegularConnected(nodes, degree, r)
	if err != nil {
		obs.Fatal(logger, "building overlay", "err", err)
	}
	fmt.Printf("overlay: %s\n\n", g)
	fmt.Println("protocol        mean rounds   total msgs   msgs/node   per-node/round cap")
	fmt.Println("--------------------------------------------------------------------------")

	// Every protocol is a registry process, constructed once and reused
	// for all runs.
	protos := []struct {
		name    string
		process string
		walkers int // kwalk's K; 0 keeps the default branching (COBRA k = 2)
		cap     string
	}{
		{"COBRA k=2", "cobra", 0, "2"},
		{"push", "push", 0, "1 (never quiesces)"},
		{"push-pull", "push-pull", 0, "2"},
		{"flood", "flood", 0, fmt.Sprintf("%d (degree)", degree)},
		{"random walk", "kwalk", 1, "1 global"},
		{"2 walks", "kwalk", 2, "2 global"},
	}
	for _, p := range protos {
		proc, err := cobrawalk.NewProcess(p.process, g, cobrawalk.ProcessConfig{
			Branching: cobrawalk.Branching{K: p.walkers},
		})
		if err != nil {
			obs.Fatal(logger, "creating process", "protocol", p.name, "err", err)
		}
		var rounds, msgs float64
		for i := 0; i < runs; i++ {
			res, err := cobrawalk.RunProcess(proc, r, 1<<24, 0)
			if err != nil {
				obs.Fatal(logger, "run failed", "protocol", p.name, "run", i, "err", err)
			}
			if !res.Done {
				obs.Fatal(logger, "run did not cover", "protocol", p.name, "run", i)
			}
			rounds += float64(res.Rounds)
			msgs += float64(res.Transmissions)
		}
		printRow(p.name, rounds/runs, msgs/runs, p.cap)
	}

	fmt.Println()
	fmt.Println("COBRA's point (paper §1): round-optimal up to constants, with a hard per-node")
	fmt.Println("budget of k messages per round and no state beyond one round of memory.")
}

func printRow(name string, rounds, msgs float64, cap string) {
	fmt.Printf("%-15s %11.1f %12.0f %11.2f   %s\n", name, rounds, msgs, msgs/nodes, cap)
}
