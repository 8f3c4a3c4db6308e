package process

import (
	"fmt"
	"strings"

	"cobrawalk/internal/graph"
)

// Canonical process names. These constants are the single source of
// truth; internal/sweep and internal/cli alias them rather than keeping
// their own lists.
const (
	Cobra    = "cobra"     // COBRA cover runs; Rounds = cover time
	BIPS     = "bips"      // BIPS infection runs; Rounds = infection time
	Push     = "push"      // push rumour spreading; Rounds = rounds to inform all
	PushPull = "push-pull" // push-pull rumour spreading
	Flood    = "flood"     // flooding (deterministic; Rounds = start eccentricity)
	KWalk    = "kwalk"     // k independent random walks; K = walker count
)

// Factory constructs a Process on g with the given configuration.
type Factory func(g *graph.Graph, cfg Config) (Process, error)

// Info is one registry entry: a process name, its axis semantics and its
// factory. Adding a process to the repository means adding one Info to
// the register call in init below — the sweep engine, the CLI listings
// and the benchmarks pick it up from there.
type Info struct {
	// Name is the canonical process name (filesystem- and flag-safe).
	Name string
	// Branched reports whether the branching axis applies: Config.Branching
	// (and a sweep's Branchings axis) parameterises the process.
	Branched bool
	// AcceptsRho reports whether fractional branching (Rho > 0) is
	// meaningful. False for kwalk, whose K is a walker count.
	AcceptsRho bool
	// Monotone reports whether the process's reached count never
	// decreases over a run. True for the informed/visited processes;
	// false for bips, whose reached count is the currently infected set
	// |A_t| and can dip when vertices recover. Trajectory consumers use
	// this to decide which invariants a reached series satisfies.
	Monotone bool
	// Kernel reports whether the process runs on the intra-trial round
	// kernel (cobra and bips): Config.KernelWorkers applies, and the
	// sweep layer budgets trial-level against kernel-level parallelism
	// (trialWorkers × kernelWorkers ≤ GOMAXPROCS). Results are
	// byte-identical for every worker count.
	Kernel bool
	// Summary is a one-line description for listings and flag help.
	Summary string
	// New constructs a Process on a graph.
	New Factory
}

// registry holds the entries in canonical order (registration order).
var registry []Info

func register(info Info) {
	if info.Name == "" || info.New == nil {
		panic("process: registry entry needs a name and a factory")
	}
	for _, have := range registry {
		if have.Name == info.Name {
			panic("process: duplicate registration of " + info.Name)
		}
	}
	registry = append(registry, info)
}

func init() {
	register(Info{
		Name: Cobra, Branched: true, AcceptsRho: true, Monotone: true, Kernel: true,
		Summary: "coalescing-branching random walk (cover runs)",
		New:     newCobraProc,
	})
	register(Info{
		Name: BIPS, Branched: true, AcceptsRho: true, Monotone: false, Kernel: true,
		Summary: "biased infection with persistent source (dual epidemic)",
		New:     newBipsProc,
	})
	register(Info{
		Name: Push, Branched: false, Monotone: true,
		Summary: "push rumour spreading (informed vertices push forever)",
		New:     newPushProc,
	})
	register(Info{
		Name: PushPull, Branched: false, Monotone: true,
		Summary: "push-pull rumour spreading (every vertex contacts each round)",
		New:     newPushPullProc,
	})
	register(Info{
		Name: Flood, Branched: false, Monotone: true,
		Summary: "flooding (deterministic; rounds = start eccentricity)",
		New:     newFloodProc,
	})
	register(Info{
		Name: KWalk, Branched: true, AcceptsRho: false, Monotone: true,
		Summary: "K independent random walks from the start set",
		New:     newKWalkProc,
	})
}

// Names returns the registered process names in canonical order.
func Names() []string {
	out := make([]string, len(registry))
	for i, info := range registry {
		out[i] = info.Name
	}
	return out
}

// All returns the registry entries in canonical order. The returned
// slice is a copy; the entries themselves are shared.
func All() []Info {
	return append([]Info(nil), registry...)
}

// Lookup returns the registry entry for name.
func Lookup(name string) (Info, error) {
	for _, info := range registry {
		if info.Name == name {
			return info, nil
		}
	}
	return Info{}, fmt.Errorf("process: unknown process %q (want one of %s)",
		name, strings.Join(Names(), ", "))
}

// New constructs the named process on g — Lookup plus Factory in one
// call, for callers that do not need the Info.
func New(name string, g *graph.Graph, cfg Config) (Process, error) {
	info, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return info.New(g, cfg)
}
