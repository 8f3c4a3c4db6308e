// Package sweep is the declarative parameter-sweep engine: a Spec names
// the axes of a grid — graph family, size, degree, process, branching —
// plus a metric set, and expands into a deterministic, ID-stamped list
// of Points; Run computes the points one at a time in expansion order,
// each point streaming its Monte-Carlo ensemble across the trial and
// kernel workers of one CPU budget through sim.ReduceWithState into
// constant-memory digests, one per requested metric (see metrics.go:
// scalar summaries like rounds and transmissions, and per-round
// trajectory quantile bands like coverage and frontier).
//
// With an artifact directory, every completed point is persisted as one
// JSON record plus a manifest that pins the spec, which makes interrupted
// sweeps resumable: re-running with Options.Resume skips points whose
// records already exist, and a completed resume is byte-identical to an
// uninterrupted run. Per-point results are independent of the trial and
// kernel worker counts (the determinism contract of DESIGN.md §7):
// point seeds derive from the point identity, never from scheduling.
package sweep

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"cobrawalk/internal/core"
	"cobrawalk/internal/process"
)

// Process names accepted by Spec.Processes, aliased from the process
// registry — internal/process is the single source of truth; adding a
// process there makes it sweepable with no change here.
const (
	ProcCobra    = process.Cobra    // COBRA cover runs; Rounds = cover time
	ProcBIPS     = process.BIPS     // BIPS infection runs; Rounds = infection time
	ProcPush     = process.Push     // push rumour spreading; Rounds = rounds to inform all
	ProcPushPull = process.PushPull // push-pull rumour spreading
	ProcFlood    = process.Flood    // flooding (deterministic)
	ProcKWalk    = process.KWalk    // k independent random walks; Branching.K = walker count
)

// Processes returns the registered process names in canonical order,
// delegating to the internal/process registry.
func Processes() []string { return process.Names() }

// processBranched reports whether the process has a branching factor —
// the Branchings axis collapses to a single point for those that do not.
func processBranched(name string) bool {
	info, err := process.Lookup(name)
	return err == nil && info.Branched
}

// Spec declares a sweep grid. Points expands it into the cross product
// family × degree × size × process × branching, with the degree axis
// collapsed for families that take no degree and the branching axis
// collapsed for processes that do not branch. The JSON encoding is the
// file format cmd/sweep -spec reads and the manifest pins.
type Spec struct {
	// Name labels the sweep in manifests and summaries (optional).
	Name string `json:"name,omitempty"`
	// Families lists graph family names (see Families / LookupFamily).
	Families []string `json:"families"`
	// Sizes lists target vertex counts (generators round to their
	// natural lattice; the record carries the realised size).
	Sizes []int `json:"sizes"`
	// Degrees lists degrees for degree-parameterised families. Required
	// iff a degreed family is listed.
	Degrees []int `json:"degrees,omitempty"`
	// Processes lists process names (default: cobra).
	Processes []string `json:"processes,omitempty"`
	// Branchings lists branching factors for cobra/bips points
	// (default: the paper's k = 2).
	Branchings []core.Branching `json:"branchings,omitempty"`
	// Metrics lists the metric names to collect per point (see Metrics /
	// LookupMetric; default: rounds and transmissions). Scalar metrics
	// add a summary to every record; trajectory metrics add a per-round
	// quantile-band block. The metric set never affects the random
	// stream, so two sweeps differing only in Metrics draw identical
	// trials.
	Metrics []string `json:"metrics,omitempty"`
	// Trials is the ensemble size per point (must be >= 1).
	Trials int `json:"trials"`
	// Seed is the sweep master seed; every point derives its own seed
	// from it and the point identity.
	Seed uint64 `json:"seed"`
	// MaxRounds caps each trial (default process.DefaultMaxRounds). A
	// trial that hits the cap fails the point.
	MaxRounds int `json:"max_rounds,omitempty"`
	// MeasureLambda additionally computes λ_max of every point's graph.
	MeasureLambda bool `json:"measure_lambda,omitempty"`
}

// withDefaults fills the optional axes. Run and Points normalise through
// this, so the manifest records the explicit form.
func (s Spec) withDefaults() Spec {
	if len(s.Processes) == 0 {
		s.Processes = []string{ProcCobra}
	}
	if len(s.Branchings) == 0 {
		s.Branchings = []core.Branching{core.DefaultBranching}
	}
	if len(s.Metrics) == 0 {
		s.Metrics = DefaultMetrics()
	}
	if s.MaxRounds <= 0 {
		s.MaxRounds = process.DefaultMaxRounds
	}
	return s
}

func (s Spec) validate() error {
	if len(s.Families) == 0 {
		return fmt.Errorf("sweep: spec needs at least one family")
	}
	needDegrees := false
	for _, f := range s.Families {
		fam, err := LookupFamily(f)
		if err != nil {
			return err
		}
		needDegrees = needDegrees || fam.Degreed
	}
	if needDegrees && len(s.Degrees) == 0 {
		return fmt.Errorf("sweep: spec lists a degree-parameterised family but no degrees")
	}
	for _, d := range s.Degrees {
		if d < 1 {
			return fmt.Errorf("sweep: degree %d, need >= 1", d)
		}
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("sweep: spec needs at least one size")
	}
	for _, n := range s.Sizes {
		if n < 2 {
			return fmt.Errorf("sweep: size %d, need >= 2", n)
		}
	}
	for _, p := range s.Processes {
		info, err := process.Lookup(p)
		if err != nil {
			return fmt.Errorf("sweep: unknown process %q (want one of %s)",
				p, strings.Join(Processes(), ", "))
		}
		if info.Branched && !info.AcceptsRho {
			for _, b := range s.Branchings {
				if b.Rho != 0 {
					return fmt.Errorf("sweep: process %q does not accept fractional branching (Rho = %v)", p, b.Rho)
				}
			}
		}
	}
	for _, b := range s.Branchings {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	seenMetric := make(map[string]bool)
	for _, m := range s.Metrics {
		if _, err := LookupMetric(m); err != nil {
			return err
		}
		if seenMetric[m] {
			return fmt.Errorf("sweep: duplicate metric %q", m)
		}
		seenMetric[m] = true
	}
	if s.Trials < 1 {
		return fmt.Errorf("sweep: trials = %d, need >= 1", s.Trials)
	}
	return nil
}

// Point is one cell of the expanded grid: a fully-specified workload with
// a stable identity. ID and Seed depend only on the point's parameters —
// never on its position, the worker counts, or scheduling — so a point's
// result is reproducible in isolation.
type Point struct {
	// ID is the stable, filesystem-safe handle ("cobra-rand-reg-n4096-d8-k2").
	ID string `json:"id"`
	// Index is the position in expansion order.
	Index int `json:"index"`
	// Family and Size/Degree select the graph.
	Family string `json:"family"`
	Size   int    `json:"size"`
	Degree int    `json:"degree,omitempty"`
	// Process and Branching select the workload.
	Process   string         `json:"process"`
	Branching core.Branching `json:"branching"`
	// Trials, Seed and MaxRounds bound the ensemble. Seed is derived
	// from the spec seed and the point ID.
	Trials    int    `json:"trials"`
	Seed      uint64 `json:"seed"`
	MaxRounds int    `json:"max_rounds"`
	// Metrics carries the spec's metric set: what each trial records and
	// each record summarises. It never feeds the ID or the seeds, so
	// changing the metric set re-records the same draws. Not serialised:
	// in a Result the recorded summaries themselves carry the metric
	// names (and the manifest pins the spec), so the record stays
	// single-sourced.
	Metrics []string `json:"-"`
	// GraphSeed drives graph construction. It is derived from the spec
	// seed and the topology identity (family/size/degree) only — not the
	// process or branching — so every point on the same topology runs on
	// the same graph. That makes cross-process comparisons paired (same
	// realised expander, lower variance) and lets a graph cache serve one
	// build to the whole process × branching fan-out.
	GraphSeed uint64 `json:"graph_seed"`
	// MeasureLambda carries the spec's λ switch.
	MeasureLambda bool `json:"measure_lambda,omitempty"`
}

// fsSafe flattens every rune outside [A-Za-z0-9._-] to '_'. Point IDs
// become artifact file names (points/<id>.json), so family names with
// path structure — "file:/runs/g.csrg" — must collapse to one path
// component. Registry family names pass through unchanged, which keeps
// every existing ID (and therefore every derived seed) stable.
func fsSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, s)
}

// id renders the canonical point handle from the axis values.
func (p Point) id() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s-%s-n%d", p.Process, fsSafe(p.Family), p.Size)
	if p.Degree > 0 {
		fmt.Fprintf(&sb, "-d%d", p.Degree)
	}
	if processBranched(p.Process) {
		fmt.Fprintf(&sb, "-k%d", p.Branching.K)
		if p.Branching.Rho != 0 {
			fmt.Fprintf(&sb, "-rho%s", strconv.FormatFloat(p.Branching.Rho, 'g', -1, 64))
		}
	}
	return sb.String()
}

// topologyID renders the graph-defining axes only ("rand-reg-n4096-d8")
// — the domain GraphSeed derives from and the graph cache keys on. It is
// a strict prefix-free namespace apart from point IDs (those lead with a
// process name, never a family name).
func (p Point) topologyID() string {
	if p.Degree > 0 {
		return fmt.Sprintf("%s-n%d-d%d", fsSafe(p.Family), p.Size, p.Degree)
	}
	return fmt.Sprintf("%s-n%d", fsSafe(p.Family), p.Size)
}

// pointSeed derives a point's master seed from the sweep seed and the
// point identity, so results survive grid edits that reorder points.
// The same derivation over topologyID yields GraphSeed.
func pointSeed(sweepSeed uint64, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return sweepSeed ^ h.Sum64()
}

// Points expands the spec into its deterministic point list, ordered
// family → degree → size → process → branching, with collapsed axes (see
// Spec) and duplicate points rejected.
func (s Spec) Points() ([]Point, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	var pts []Point
	seen := make(map[string]bool)
	for _, famName := range s.Families {
		fam, err := LookupFamily(famName)
		if err != nil {
			return nil, err
		}
		degrees := s.Degrees
		if !fam.Degreed {
			degrees = []int{0}
		}
		for _, deg := range degrees {
			for _, n := range s.Sizes {
				for _, proc := range s.Processes {
					branchings := s.Branchings
					if !processBranched(proc) {
						branchings = []core.Branching{{}}
					}
					for _, br := range branchings {
						pt := Point{
							Index:         len(pts),
							Family:        famName,
							Size:          n,
							Degree:        deg,
							Process:       proc,
							Branching:     br,
							Trials:        s.Trials,
							MaxRounds:     s.MaxRounds,
							Metrics:       s.Metrics,
							MeasureLambda: s.MeasureLambda,
						}
						pt.ID = pt.id()
						pt.Seed = pointSeed(s.Seed, pt.ID)
						pt.GraphSeed = pointSeed(s.Seed, pt.topologyID())
						if seen[pt.ID] {
							return nil, fmt.Errorf("sweep: duplicate point %s (repeated axis value?)", pt.ID)
						}
						seen[pt.ID] = true
						pts = append(pts, pt)
					}
				}
			}
		}
	}
	return pts, nil
}

// ParseBranchings parses the cmd/sweep branching grammar: a
// comma-separated list of items, each `K` or `K+RHO` — e.g. "2,1+0.5"
// means {K:2} and {K:1, Rho:0.5}.
func ParseBranchings(s string) ([]core.Branching, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []core.Branching
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		kStr, rhoStr, hasRho := strings.Cut(item, "+")
		k, err := strconv.Atoi(kStr)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad branching %q (want K or K+RHO): %w", item, err)
		}
		b := core.Branching{K: k}
		if hasRho {
			b.Rho, err = strconv.ParseFloat(rhoStr, 64)
			if err != nil {
				return nil, fmt.Errorf("sweep: bad branching %q (want K or K+RHO): %w", item, err)
			}
		}
		out = append(out, b)
	}
	return out, nil
}
