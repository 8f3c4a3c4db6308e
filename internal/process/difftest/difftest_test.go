package difftest

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/stats"
)

// grid is the family × size × degree slice of the differential suite.
// Regular families drive the engines' hoisted-degree fast paths; the
// irregular ones (barbell, star) force the per-vertex offsets path.
func gridGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	add := func(g *graph.Graph, err error) {
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	for _, n := range []int{64, 256} {
		for _, d := range []int{3, 8} {
			add(graph.RandomRegularConnected(n, d, rng.New(uint64(n*100+d))))
		}
	}
	add(graph.Complete(48))            // deg 47, pow2-free sampler path
	add(graph.Hypercube(6))            // deg 6
	add(graph.Torus(8, 8))             // deg 4
	add(graph.Cycle(101))              // deg 2, slow cover
	add(graph.Barbell(12, 7))          // irregular: cliques + path
	add(graph.Star(33))                // irregular: hub deg 32, leaves deg 1
	add(graph.CompleteBipartite(9, 5)) // irregular bipartite
	return gs
}

// multiChunkGraphs are the grid's large members, one regular and one
// irregular, whose rounds span several process.KernelChunk chunks — the
// only configurations in which the kernel splits one round across
// workers. checkMultiChunk asserts that they still do. The irregular
// member is a fast-mixing G(n, p): on a 96×96 grid cobra's active set
// peaks below two chunks, and a grid large enough to need three costs
// seconds per lockstep run.
func multiChunkGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	regular, err := graph.RandomRegularConnected(8192, 8, rng.New(8192*100+8))
	if err != nil {
		t.Fatal(err)
	}
	irregular, err := graph.ErdosRenyi(8192, 16.0/8192, rng.New(8192*100+16))
	if err != nil {
		t.Fatal(err)
	}
	if !irregular.IsConnected() {
		t.Fatal("multi-chunk G(n, p) is disconnected; pick another seed")
	}
	if _, err := irregular.Regularity(); err == nil {
		t.Fatal("multi-chunk G(n, p) came out regular")
	}
	return []*graph.Graph{regular, irregular}
}

var branchings = []process.Branching{
	{K: 1},
	{K: 2},
	{K: 3},
	{K: 5},
	{K: 1, Rho: 0.5},
	{K: 2, Rho: 0.25},
	{K: 4, Rho: 0.9},
}

// multiChunkBranchings run on the multi-chunk graphs: an integral and
// two fractional branchings whose active sets grow to a constant
// fraction of n (K = 1 keeps cobra's active set at one vertex). Only a
// chunk of more than 2048/(K+2) items refills the engines' bulk-draw
// buffers, so only these graphs refill, and the K = 4 row is the one
// that fails a refill keeping fewer than K+2 draws, such as a threshold
// hard-coded to 4, which K ≤ 2 never exposes.
var multiChunkBranchings = []process.Branching{
	{K: 2},
	{K: 1, Rho: 0.5},
	{K: 4, Rho: 0.9},
}

// kernelWidths are the kernel worker counts every lockstep case runs
// at: the inline single-worker path, a count that does not divide the
// chunk grid evenly, and more workers than most rounds have chunks.
var kernelWidths = []int{1, 3, 8}

// lockstepCase is one (graph, branching) cell of the lockstep grid.
type lockstepCase struct {
	g          *graph.Graph
	br         process.Branching
	multiChunk bool
}

// lockstepCases is the full grid: every small graph under every
// branching, plus the multi-chunk graphs under multiChunkBranchings.
func lockstepCases(t testing.TB) []lockstepCase {
	var cs []lockstepCase
	for _, g := range gridGraphs(t) {
		for _, br := range branchings {
			cs = append(cs, lockstepCase{g: g, br: br})
		}
	}
	for _, g := range multiChunkGraphs(t) {
		for _, br := range multiChunkBranchings {
			cs = append(cs, lockstepCase{g: g, br: br, multiChunk: true})
		}
	}
	return cs
}

// runLockstep pins native to reference on one grid cell at every
// kernel width, from a single start and from a deduplicating
// multi-vertex start set. On a multi-chunk cell it also checks that
// some round really spanned at least three chunks. A non-empty variant
// names the pair in the subtest path, between the branching and the
// width.
func runLockstep(t *testing.T, native, reference process.Factory, c lockstepCase, variant string, seed uint64, starts []int32) {
	for _, w := range kernelWidths {
		c, w := c, w
		label := fmt.Sprintf("%s/%s/w%d", c.g.Name(), c.br, w)
		if variant != "" {
			label = fmt.Sprintf("%s/%s/%s/w%d", c.g.Name(), c.br, variant, w)
		}
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			cfg := process.Config{Branching: c.br, KernelWorkers: w}
			native, maxActive := observeActive(native)
			if err := Lockstep(c.g, cfg, native, reference, seed, 1<<14, 0); err != nil {
				t.Fatal(err)
			}
			if err := Lockstep(c.g, cfg, native, reference, seed+1, 1<<14, starts...); err != nil {
				t.Fatal(err)
			}
			if c.multiChunk {
				checkMultiChunk(t, *maxActive)
			}
		})
	}
}

// observeActive wraps factory so the engines it builds also record the
// largest RoundStat.Active they report, behind Lockstep's own observer.
func observeActive(factory process.Factory) (process.Factory, *int) {
	maxActive := new(int)
	return func(g *graph.Graph, cfg process.Config) (process.Process, error) {
		inner := cfg.Observer
		cfg.Observer = func(rs process.RoundStat) {
			*maxActive = max(*maxActive, rs.Active)
			inner(rs)
		}
		return factory(g, cfg)
	}, maxActive
}

// checkMultiChunk fails unless the largest observed set spans at least
// three kernel chunks. A round chunks the active set C_t (cobra) or the
// candidates Γ(A_t) minus the source (bips). Lockstep steps past Done,
// so A_t = V, whose n−1 candidates are the largest bips list, is
// stepped from; cobra's active set stays near its peak for many rounds
// on these expanders, so its largest C_t is too.
func checkMultiChunk(t *testing.T, maxActive int) {
	t.Helper()
	if chunks := (maxActive - 1 + process.KernelChunk - 1) / process.KernelChunk; chunks < 3 {
		t.Fatalf("largest round spans %d kernel chunks (max active %d), want at least 3", chunks, maxActive)
	}
}

// TestLockstepCobra pins registry cobra to the reference COBRA across
// the grid at every kernel width: byte-identical rounds, reached sets,
// transmissions, trajectories and generator states from identical
// seeds, including a Reset rerun and rounds past Done.
func TestLockstepCobra(t *testing.T) {
	for _, c := range lockstepCases(t) {
		seed := uint64(len(c.g.Name())) + uint64(c.br.K)<<8
		// Multi-vertex start sets exercise Reset dedup too.
		starts := []int32{0, int32(c.g.N() / 2), 0}
		runLockstep(t, nativeFactory(t, process.Cobra), NewReferenceCobra, c, "", seed, starts)
	}
}

// TestLockstepBips pins registry bips to the reference BIPS across the
// grid at every kernel width. Its fast/wN cases pin the closed-form
// ("fast") sampler NewClosedFormBips, which E13 runs, to
// closedFormOracle on the same grid, seeds and starts; like every
// reference it must ignore the kernel width.
func TestLockstepBips(t *testing.T) {
	for _, c := range lockstepCases(t) {
		seed := uint64(len(c.g.Name())) + uint64(c.br.K)<<8 + 7
		starts := []int32{1, int32(c.g.N() - 1)}
		runLockstep(t, nativeFactory(t, process.BIPS), NewReferenceBips, c, "", seed, starts)
		runLockstep(t, NewClosedFormBips, newClosedFormOracle, c, "fast", seed, starts)
	}
}

// closedFormOracle is a second closed-form BIPS sampler, written apart
// from refBips, that NewClosedFormBips is pinned to draw for draw. It
// keeps the reference's set order and stream layout — A_{t+1} is the
// source, then the infected candidates in ascending vertex order, and
// the candidate list draws in process.KernelChunk blocks — but holds A_t
// as a []bool and finds the candidates in pull form: for each vertex u
// in ascending order, u ≠ source, it counts d_A(u) over u's own
// neighbours, and u is a candidate iff d_A(u) > 0. It evaluates the
// one-step law 1-(1-d_A/d)^K·(1-Rho·d_A/d) with math.Pow.
type closedFormOracle struct {
	g     *graph.Graph
	br    process.Branching
	obs   process.RoundObserver
	in    []bool  // in[v] iff v ∈ A_t
	set   []int32 // A_t, the source first
	round int
	sent  int64
}

func newClosedFormOracle(g *graph.Graph, cfg process.Config) (process.Process, error) {
	br, err := newReferenceConfig(g, cfg)
	if err != nil {
		return nil, err
	}
	return &closedFormOracle{g: g, br: br, obs: cfg.Observer, in: make([]bool, g.N())}, nil
}

func (o *closedFormOracle) Reset(starts ...int32) error {
	if len(starts) == 0 {
		return errors.New("closed-form oracle: empty start set")
	}
	for _, v := range starts {
		if v < 0 || int(v) >= o.g.N() {
			return fmt.Errorf("closed-form oracle: vertex %d out of range [0,%d)", v, o.g.N())
		}
	}
	clear(o.in)
	o.set = o.set[:0]
	for _, v := range starts {
		if !o.in[v] {
			o.in[v] = true
			o.set = append(o.set, v)
		}
	}
	o.round, o.sent = 0, 0
	return nil
}

func (o *closedFormOracle) Step(r *rng.Rand) {
	g, source := o.g, o.set[0]
	var cands, dAs []int32
	for u := int32(0); int(u) < g.N(); u++ {
		if u == source {
			continue
		}
		var dA int32
		for _, w := range g.Neighbors(u) {
			if o.in[w] {
				dA++
			}
		}
		if dA > 0 {
			cands = append(cands, u)
			dAs = append(dAs, dA)
		}
	}
	rho := o.br.Rho
	roundSeed := r.Uint64()
	next := []int32{source}
	var sent int64
	var cr *rng.Rand
	for j, u := range cands {
		if j%process.KernelChunk == 0 {
			cr = rng.NewStream(roundSeed, uint64(j/process.KernelChunk))
		}
		p := float64(dAs[j]) / float64(g.Degree(u))
		sent += int64(o.br.K)
		if rho > 0 && cr.Bernoulli(rho) {
			sent++
		}
		if cr.Bernoulli(1 - math.Pow(1-p, float64(o.br.K))*(1-rho*p)) {
			next = append(next, u)
		}
	}
	clear(o.in)
	for _, u := range next {
		o.in[u] = true
	}
	o.set = next
	o.round++
	o.sent += sent
	if o.obs != nil {
		o.obs(process.RoundStat{Round: o.round, Active: len(next), Reached: len(next), Transmissions: sent})
	}
}

func (o *closedFormOracle) Done() bool           { return len(o.set) == o.g.N() }
func (o *closedFormOracle) Round() int           { return o.round }
func (o *closedFormOracle) ReachedCount() int    { return len(o.set) }
func (o *closedFormOracle) Transmissions() int64 { return o.sent }
func (o *closedFormOracle) Reached(v int32) bool { return o.in[v] }

// AppendReached appends A_t in ascending vertex order.
func (o *closedFormOracle) AppendReached(dst []int32) []int32 {
	for v, in := range o.in {
		if in {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// nativeFactory resolves the registry factory for name — the engines
// under test are exactly what production sweeps construct.
func nativeFactory(t testing.TB, name string) process.Factory {
	t.Helper()
	info, err := process.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return info.New
}

// TestLockstepHasTeeth proves the harness detects divergence: a native
// engine configured with a different branching factor must fail, and the
// failure must be a *Mismatch naming the diverging field.
func TestLockstepHasTeeth(t *testing.T) {
	g, err := graph.RandomRegularConnected(128, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	skewed := func(g *graph.Graph, cfg process.Config) (process.Process, error) {
		cfg.Branching = process.Branching{K: 3}
		return nativeFactory(t, process.Cobra)(g, cfg)
	}
	err = Lockstep(g, process.Config{Branching: process.Branching{K: 2}}, skewed, NewReferenceCobra, 11, 1<<14, 0)
	var mm *Mismatch
	if !errors.As(err, &mm) {
		t.Fatalf("skewed engine passed the lockstep harness: %v", err)
	}
}

// reacherProcess is an engine with the process.Reacher extension.
type reacherProcess interface {
	process.Process
	process.Reacher
}

// lyingReached misreports membership of one vertex through Reached while
// every count and AppendReached stay truthful.
type lyingReached struct{ reacherProcess }

func (l lyingReached) Reached(v int32) bool {
	return l.reacherProcess.Reached(v) != (v == 7)
}

// frozenAtDone stops stepping once Done — a plausible shortcut that
// breaks callers which step to a fixed horizon past full infection.
type frozenAtDone struct{ reacherProcess }

func (f frozenAtDone) Step(r *rng.Rand) {
	if !f.Done() {
		f.reacherProcess.Step(r)
	}
}

// TestLockstepCheckHasTeeth proves the harness's Reached and past-Done
// checks bite: wrapped native engines that break either one must fail
// with a *Mismatch.
func TestLockstepCheckHasTeeth(t *testing.T) {
	g, err := graph.RandomRegularConnected(128, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ref  process.Factory
		wrap func(reacherProcess) process.Process
	}{
		{process.Cobra, NewReferenceCobra, func(p reacherProcess) process.Process { return lyingReached{p} }},
		{process.BIPS, NewReferenceBips, func(p reacherProcess) process.Process { return lyingReached{p} }},
		{process.BIPS, NewReferenceBips, func(p reacherProcess) process.Process { return frozenAtDone{p} }},
	} {
		broken := func(g *graph.Graph, cfg process.Config) (process.Process, error) {
			p, err := nativeFactory(t, tc.name)(g, cfg)
			if err != nil {
				return nil, err
			}
			return tc.wrap(p.(reacherProcess)), nil
		}
		err := Lockstep(g, process.Config{}, broken, tc.ref, 11, 1<<14, 0)
		var mm *Mismatch
		if !errors.As(err, &mm) {
			t.Fatalf("%s: broken engine passed the lockstep harness: %v", tc.name, err)
		}
	}
}

// TestReferenceMissProbMatchesPow checks the reference's multiplied-out
// exponents against math.Pow.
func TestReferenceMissProbMatchesPow(t *testing.T) {
	for k := 1; k <= 7; k++ {
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
			got := missProb(p, k)
			want := math.Pow(1-p, float64(k))
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("missProb(%v, %d) = %v, want %v", p, k, got, want)
			}
		}
	}
}

// TestBipsClosedFormVsExactDistribution: the registry engine's exact
// sampling and NewClosedFormBips's one-step law give the same
// infection-time distribution on K32, at integral and at fractional
// branching: their means must agree within 5 combined standard errors,
// and the two-sample KS D must stay below its critical value at
// α = 0.001 (0.138 for 400 against 400 trials).
func TestBipsClosedFormVsExactDistribution(t *testing.T) {
	g, err := graph.Complete(32)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	infectionTimes := func(t *testing.T, factory process.Factory, br process.Branching, seed uint64) []float64 {
		p, err := factory(g, process.Config{Branching: br})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		xs := make([]float64, trials)
		for i := range xs {
			res, err := process.Run(p, r, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatal("uninfected run on K32")
			}
			xs[i] = float64(res.Rounds)
		}
		return xs
	}
	meanSE := func(xs []float64) (mean, se float64) {
		var s stats.Stream
		for _, x := range xs {
			s.Add(x)
		}
		return s.Mean(), s.SE()
	}
	critical, err := stats.KSCritical(trials, trials, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range []process.Branching{{K: 2}, {K: 1, Rho: 0.5}} {
		t.Run(br.String(), func(t *testing.T) {
			t.Parallel()
			exact := infectionTimes(t, nativeFactory(t, process.BIPS), br, 77)
			closed := infectionTimes(t, NewClosedFormBips, br, 78)
			exactMean, exactSE := meanSE(exact)
			closedMean, closedSE := meanSE(closed)
			if diff, tol := math.Abs(exactMean-closedMean), 5*math.Hypot(exactSE, closedSE); diff > tol {
				t.Errorf("exact mean %.3f vs closed-form mean %.3f differ by %.3f > %.3f",
					exactMean, closedMean, diff, tol)
			}
			d, err := stats.KS2(exact, closed)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("means %.3f and %.3f, KS D %.4f (critical %.4f)", exactMean, closedMean, d, critical)
			if d >= critical {
				t.Errorf("KS D = %.4f >= critical %.4f (α = 0.001)", d, critical)
			}
		})
	}
}

// TestInvariants is the property half of the suite, on the registry
// engines alone, inline and on a kernel pool: reached is monotone
// non-decreasing for cobra, transmissions ≥ reached − |starts| for both
// (every newly reached vertex was hit by at least one message), and
// Done ⇒ full coverage on these connected graphs.
func TestInvariants(t *testing.T) {
	for _, g := range gridGraphs(t) {
		for _, name := range []string{process.Cobra, process.BIPS} {
			for _, w := range []int{1, 4} {
				g, name, w := g, name, w
				t.Run(fmt.Sprintf("%s/w%d/%s", name, w, g.Name()), func(t *testing.T) {
					t.Parallel()
					info, err := process.Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					prevReached := -1
					cfg := process.Config{KernelWorkers: w, Observer: func(rs process.RoundStat) {
						if info.Monotone && rs.Reached < prevReached {
							t.Fatalf("round %d: monotone process lost reached vertices: %d -> %d",
								rs.Round, prevReached, rs.Reached)
						}
						prevReached = rs.Reached
						if rs.Active < 0 || rs.Reached < 0 || rs.Reached > g.N() {
							t.Fatalf("round %d: degenerate stat %+v", rs.Round, rs)
						}
					}}
					p, err := info.New(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					r := rng.New(uint64(g.N()))
					for trial := 0; trial < 3; trial++ {
						prevReached = -1
						res, err := process.Run(p, r, 1<<14, 0)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Done {
							t.Fatalf("trial %d hit the round cap on a connected graph", trial)
						}
						if p.ReachedCount() != g.N() {
							t.Fatalf("Done with %d of %d reached", p.ReachedCount(), g.N())
						}
						if res.Transmissions < int64(g.N()-1) {
							t.Fatalf("covered %d vertices with only %d transmissions", g.N(), res.Transmissions)
						}
						set := p.(process.Reacher).AppendReached(nil)
						if len(set) != g.N() {
							t.Fatalf("AppendReached returned %d of %d vertices", len(set), g.N())
						}
						for i, v := range set {
							if int(v) != i {
								t.Fatalf("AppendReached not the ascending full set at index %d: %d", i, v)
							}
						}
					}
				})
			}
		}
	}
}
