package process

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// The tests in this file pin the paper's process semantics on the
// registry cobra and bips engines (where the check is engine-agnostic,
// at every kernel width in kernelWidths): coalescing, the k = 1 walk,
// source persistence, SIS shrinkage, the neighbourhood constraint and
// the exact/fast sampling equivalence.

// kernelWidths are the kernel worker counts the width-agnostic checks
// run at: the inline single-worker path and a pool with helpers.
var kernelWidths = []int{1, 4}

func TestBranchingString(t *testing.T) {
	if s := (Branching{K: 2}).String(); s != "k=2" {
		t.Fatalf("String = %q", s)
	}
	if s := (Branching{K: 1, Rho: 0.25}).String(); s != "k=1+ρ0.25" {
		t.Fatalf("String = %q", s)
	}
	if e := (Branching{K: 1, Rho: 0.5}).Expected(); e != 1.5 {
		t.Fatalf("Expected = %v", e)
	}
}

// checkNewValidation: the named engines reject a nil graph, a graph with
// an isolated vertex and an invalid branching factor.
func checkNewValidation(t *testing.T, names ...string) {
	t.Helper()
	g := mk(t)(graph.Complete(5))
	iso := mk(t)(graph.FromEdges("iso", 3, [][2]int32{{0, 1}}))
	for _, name := range names {
		if _, err := New(name, nil, Config{}); err == nil {
			t.Errorf("%s: nil graph should fail", name)
		}
		if _, err := New(name, iso, Config{}); err == nil {
			t.Errorf("%s: isolated vertex should fail", name)
		}
		for _, br := range []Branching{{K: -1}, {K: 0, Rho: 0.5}, {K: 1, Rho: -0.1}, {K: 1, Rho: 1}} {
			if _, err := New(name, g, Config{Branching: br}); err == nil {
				t.Errorf("%s: branching %+v should fail", name, br)
			}
		}
	}
}

func TestNewCobraValidation(t *testing.T) {
	checkNewValidation(t, Cobra)
}

// TestNewBIPSValidation also pins that every seed of A_0, not only the
// source, is range-checked.
func TestNewBIPSValidation(t *testing.T) {
	checkNewValidation(t, BIPS)
	g := mk(t)(graph.Complete(4))
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", BIPS, w)
		p, err := New(BIPS, g, Config{KernelWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		for _, starts := range [][]int32{{-1}, {4}, {0, 9}} {
			if err := p.Reset(starts...); err == nil {
				t.Errorf("%s: Reset(%v) should fail", name, starts)
			}
		}
	}
}

// TestCobraResetValidation: bad start sets fail through Reset and Run,
// and a failed Reset leaves the engine usable for the next run.
func TestCobraResetValidation(t *testing.T) {
	g := mk(t)(graph.Complete(5))
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", Cobra, w)
		p, err := New(Cobra, g, Config{KernelWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		for _, starts := range [][]int32{nil, {-1}, {5}, {0, 5}} {
			if err := p.Reset(starts...); err == nil {
				t.Errorf("%s: Reset(%v) should fail", name, starts)
			}
		}
		if _, err := Run(p, rng.New(1), 0, 17); err == nil {
			t.Errorf("%s: Run with bad start should fail", name)
		}
		fresh, err := New(Cobra, g, Config{KernelWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(fresh, rng.New(2), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Run(p, rng.New(2), 0, 1); err != nil || got != want {
			t.Errorf("%s: run after failed Resets = %+v, %v; fresh engine %+v", name, got, err, want)
		}
	}
}

// TestMissProbMatchesPow checks the multiplied-out exponents of the fast
// sampling path against math.Pow.
func TestMissProbMatchesPow(t *testing.T) {
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

func TestCobraCoversCompleteGraph(t *testing.T) {
	g := mk(t)(graph.Complete(64))
	p, err := New(Cobra, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, rng.New(1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("COBRA failed to cover K64")
	}
	// The active set at most doubles per round, so cover time >= log2(n).
	if res.Rounds < 6 || res.Rounds > 60 {
		t.Fatalf("cover time %d implausible for K64", res.Rounds)
	}
	if res.Transmissions <= 0 {
		t.Fatal("no transmissions recorded")
	}
}

// TestCobraActiveSetAtMostDoubles: with k = 2, |C_{t+1}| <= 2|C_t|, and
// the active set never empties.
func TestCobraActiveSetAtMostDoubles(t *testing.T) {
	g := mk(t)(graph.Petersen())
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", Cobra, w)
		prev := 1
		p, err := New(Cobra, g, Config{KernelWorkers: w, Observer: func(rs RoundStat) {
			if rs.Active > 2*prev {
				t.Fatalf("%s: active set grew from %d to %d (> 2x)", name, prev, rs.Active)
			}
			if rs.Active == 0 {
				t.Fatalf("%s: active set became empty", name)
			}
			prev = rs.Active
		}})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(2)
		for trial := 0; trial < 50; trial++ {
			if err := p.Reset(0); err != nil {
				t.Fatal(err)
			}
			prev = 1
			for i := 0; i < 20; i++ {
				p.Step(r)
			}
		}
	}
}

// TestCobraK1IsSingleWalker: with k = 1 and Rho = 0 COBRA is a simple
// random walk — exactly one active vertex, moving along an edge.
func TestCobraK1IsSingleWalker(t *testing.T) {
	g := mk(t)(graph.Cycle(12))
	p, err := New(Cobra, g, Config{Branching: Branching{K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c := p.(*cobraProc)
	r := rng.New(3)
	if err := p.Reset(0); err != nil {
		t.Fatal(err)
	}
	prev := int32(0)
	for i := 0; i < 200; i++ {
		p.Step(r)
		if c.curLen != 1 {
			t.Fatalf("k=1 active count = %d at step %d, want 1", c.curLen, i)
		}
		cur := c.curBuf[0]
		if !g.HasEdge(prev, cur) {
			t.Fatalf("walk jumped from %d to %d (not adjacent)", prev, cur)
		}
		prev = cur
	}
}

// TestCobraCoalescing: on K2 both pushes from the active vertex land on
// the other one, and coalescing keeps |C_t| = 1.
func TestCobraCoalescing(t *testing.T) {
	g := mk(t)(graph.Complete(2))
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", Cobra, w)
		p, err := New(Cobra, g, Config{KernelWorkers: w, Observer: func(rs RoundStat) {
			if rs.Active != 1 {
				t.Fatalf("%s: K2 active count = %d, want 1 (coalescing broken)", name, rs.Active)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(4)
		if err := p.Reset(0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			p.Step(r)
		}
		if !p.Done() {
			t.Fatalf("%s: K2 not covered after 10 rounds", name)
		}
	}
}

// TestCobraRunFrom: a full start set is covered at round 0, duplicate
// starts collapse, and an empty start set fails.
func TestCobraRunFrom(t *testing.T) {
	g := mk(t)(graph.Complete(8))
	p, err := New(Cobra, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int32, 8)
	for i := range all {
		all[i] = int32(i)
	}
	res, err := Run(p, rng.New(8), 0, all...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Rounds != 0 || res.Transmissions != 0 {
		t.Fatalf("full start set: %+v", res)
	}
	if err := p.Reset(2, 2, 2); err != nil {
		t.Fatal(err)
	}
	if c := p.(*cobraProc); c.curLen != 1 || p.ReachedCount() != 1 {
		t.Fatalf("duplicate starts not collapsed: active=%d reached=%d", c.curLen, p.ReachedCount())
	}
	if _, err := Run(p, rng.New(1), 0); err == nil {
		t.Fatal("empty start set should fail")
	}
}

// hitTime resets p to start and steps it until target is reached,
// returning that round, or -1 once maxRounds pass without it.
func hitTime(t *testing.T, p Process, r *rng.Rand, maxRounds int, start, target int32) int {
	t.Helper()
	if err := p.Reset(start); err != nil {
		t.Fatal(err)
	}
	for !p.(Reacher).Reached(target) {
		if p.Round() >= maxRounds {
			return -1
		}
		p.Step(r)
	}
	return p.Round()
}

// TestCobraHitTimes: the first round each vertex is Reached is 0 for the
// start, and the latest of them is the cover time; at every round the
// vertices hit so far are exactly ReachedCount many.
func TestCobraHitTimes(t *testing.T) {
	g := mk(t)(graph.Complete(16))
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", Cobra, w)
		p, err := New(Cobra, g, Config{KernelWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		reach := p.(Reacher)
		first := make([]int, g.N())
		for v := range first {
			first[v] = -1
		}
		record := func() {
			hit := 0
			for v := range first {
				if first[v] < 0 && reach.Reached(int32(v)) {
					first[v] = p.Round()
				}
				if first[v] >= 0 {
					hit++
				}
			}
			if hit != p.ReachedCount() {
				t.Fatalf("%s round %d: %d vertices hit, ReachedCount %d", name, p.Round(), hit, p.ReachedCount())
			}
		}
		r := rng.New(5)
		if err := p.Reset(3); err != nil {
			t.Fatal(err)
		}
		for record(); !p.Done() && p.Round() < 1000; record() {
			p.Step(r)
		}
		if first[3] != 0 {
			t.Fatalf("%s: start vertex first visit = %d, want 0", name, first[3])
		}
		maxHit := 0
		for v, h := range first {
			if h < 0 {
				t.Fatalf("%s: vertex %d never visited in a covered run", name, v)
			}
			maxHit = max(maxHit, h)
		}
		if maxHit != p.Round() {
			t.Fatalf("%s: cover time %d != max first visit %d", name, p.Round(), maxHit)
		}
	}
}

// TestCobraRunUntilHit: a start hits itself at round 0, a K10 target is
// hit within a plausible number of rounds, and a one-round budget often
// misses it.
func TestCobraRunUntilHit(t *testing.T) {
	g := mk(t)(graph.Complete(10))
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", Cobra, w)
		p, err := New(Cobra, g, Config{KernelWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(9)
		if hit := hitTime(t, p, r, 1000, 4, 4); hit != 0 {
			t.Fatalf("%s: self hit = %d, want 0", name, hit)
		}
		if hit := hitTime(t, p, r, 1000, 0, 9); hit < 1 || hit > 100 {
			t.Fatalf("%s: hit time %d out of plausible range", name, hit)
		}
		capped := 0
		for i := 0; i < 50; i++ {
			if hitTime(t, p, r, 1, 0, 9) == -1 {
				capped++
			}
		}
		// Round 1 misses 9 with probability (8/9)^2 ≈ 0.79.
		if capped < 25 || capped == 50 {
			t.Fatalf("%s: %d of 50 one-round searches missed, want most but not all", name, capped)
		}
	}
}

// TestCobraDeterminismGivenSeed: two fresh engines fed the same seed
// produce the same run, round by round.
func TestCobraDeterminismGivenSeed(t *testing.T) {
	g := mk(t)(graph.Petersen())
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", Cobra, w)
		run := func() (Result, []RoundStat) {
			var trace []RoundStat
			p, err := New(Cobra, g, Config{KernelWorkers: w, Observer: func(rs RoundStat) { trace = append(trace, rs) }})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(p, rng.New(123), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			return res, trace
		}
		a, traceA := run()
		b, traceB := run()
		if a != b || !reflect.DeepEqual(traceA, traceB) {
			t.Fatalf("%s: non-deterministic: %+v vs %+v", name, a, b)
		}
	}
}

// TestCobraProcessReuseIndependence: one engine reused for many runs on
// one stream leaks no state — each run matches a fresh engine's run on
// an identical stream.
func TestCobraProcessReuseIndependence(t *testing.T) {
	g := mk(t)(graph.Complete(16))
	reused, err := New(Cobra, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := rng.New(55), rng.New(55)
	for i := 0; i < 20; i++ {
		got, err := Run(reused, r1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(Cobra, g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(fresh, r2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: reused %+v vs fresh %+v", i, got, want)
		}
	}
}

// TestCobraCoverTimeLogarithmicOnComplete: COBRA covers K_n in O(log n)
// (Dutta et al.), so mean(K256)/mean(K32) stays far below 256/32 = 8.
func TestCobraCoverTimeLogarithmicOnComplete(t *testing.T) {
	r := rng.New(11)
	meanCover := func(n int) float64 {
		p, err := New(Cobra, mk(t)(graph.Complete(n)), Config{})
		if err != nil {
			t.Fatal(err)
		}
		const trials = 30
		sum := 0.0
		for i := 0; i < trials; i++ {
			res, err := Run(p, r, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatal("uncovered run")
			}
			sum += float64(res.Rounds)
		}
		return sum / trials
	}
	m32, m256 := meanCover(32), meanCover(256)
	if ratio := m256 / m32; ratio > 3 {
		t.Fatalf("cover-time ratio K256/K32 = %.2f (means %.1f, %.1f); not logarithmic", ratio, m256, m32)
	}
	if m256 > 8*math.Log2(256) {
		t.Fatalf("K256 mean cover %.1f far above O(log n) scale", m256)
	}
}

// TestCobraFractionalBranchingCovers: branching 1+ρ covers K32, more
// slowly than the k = 2 doubling allows.
func TestCobraFractionalBranchingCovers(t *testing.T) {
	p, err := New(Cobra, mk(t)(graph.Complete(32)), Config{Branching: Branching{K: 1, Rho: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, rng.New(10), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("1+ρ branching failed to cover K32")
	}
	if res.Rounds < 5 {
		t.Fatalf("cover time %d impossibly small", res.Rounds)
	}
}

// TestBipsFractionalBranching: branching 1+ρ infects K32 on both
// sampling paths.
func TestBipsFractionalBranching(t *testing.T) {
	g := mk(t)(graph.Complete(32))
	for _, fast := range []bool{false, true} {
		p, err := New(BIPS, g, Config{Branching: Branching{K: 1, Rho: 0.5}, FastSampling: fast})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, rng.New(10), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatalf("fast=%v: 1+ρ BIPS failed to infect K32", fast)
		}
	}
}

// TestHighBranchingFactors: K = 4 exercises the unrolled missProb case,
// K = 5 the math.Pow fallback; both sampling paths must infect K32.
func TestHighBranchingFactors(t *testing.T) {
	g := mk(t)(graph.Complete(32))
	r := rng.New(8)
	for _, k := range []int{4, 5} {
		for _, fast := range []bool{false, true} {
			p, err := New(BIPS, g, Config{Branching: Branching{K: k}, FastSampling: fast})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(p, r, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatalf("K=%d fast=%v did not infect", k, fast)
			}
		}
	}
}

// TestProcessesOnIrregularGraphs: COBRA and BIPS are defined on any
// graph without isolated vertices.
func TestProcessesOnIrregularGraphs(t *testing.T) {
	graphs := []*graph.Graph{
		mk(t)(graph.Star(20)),
		mk(t)(graph.RingOfCliques(4, 6)),
		mk(t)(graph.Barbell(6, 2)),
	}
	r := rng.New(7)
	for _, g := range graphs {
		for _, name := range []string{Cobra, BIPS} {
			p, err := New(name, g, Config{})
			if err != nil {
				t.Fatalf("%s %s: %v", name, g.Name(), err)
			}
			res, err := Run(p, r, 0, 0)
			if err != nil {
				t.Fatalf("%s %s: %v", name, g.Name(), err)
			}
			if !res.Done {
				t.Fatalf("%s did not finish on %s", name, g.Name())
			}
		}
	}
}

func TestBipsSourceAlwaysInfected(t *testing.T) {
	g := mk(t)(graph.Cycle(20))
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", BIPS, w)
		p, err := New(BIPS, g, Config{KernelWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		reach := p.(Reacher)
		r := rng.New(1)
		if err := p.Reset(7); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			p.Step(r)
			if !reach.Reached(7) {
				t.Fatalf("%s: source left the infected set at step %d", name, i)
			}
		}
	}
}

// TestBipsInfectsCompleteGraph checks the infection time and the |A_t|
// trajectory a collector records: |A_0| = 1 and the last entry is n.
func TestBipsInfectsCompleteGraph(t *testing.T) {
	g := mk(t)(graph.Complete(64))
	col := NewCollector(g.N())
	p, err := New(BIPS, g, Config{Observer: col.Observe})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCollect(nil, p, col, rng.New(2), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("BIPS failed to infect K64")
	}
	if res.Rounds < 6 || res.Rounds > 80 {
		t.Fatalf("infection time %d implausible for K64", res.Rounds)
	}
	sizes := col.Active()
	if len(sizes) != res.Rounds+1 || sizes[0] != 1 || sizes[len(sizes)-1] != 64 {
		t.Fatalf("trajectory %v for a %d-round run", sizes, res.Rounds)
	}
}

// TestBipsCanShrink: BIPS is SIS-like — non-source vertices refresh
// their membership every round, so |A_t| is not monotone. On a cycle
// with k = 1 shrinkage is common.
func TestBipsCanShrink(t *testing.T) {
	g := mk(t)(graph.Cycle(32))
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", BIPS, w)
		p, err := New(BIPS, g, Config{KernelWorkers: w, Branching: Branching{K: 1}})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(3)
		sawShrink := false
		for trial := 0; trial < 20 && !sawShrink; trial++ {
			if err := p.Reset(0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				before := p.ReachedCount()
				p.Step(r)
				if p.ReachedCount() < before {
					sawShrink = true
					break
				}
			}
		}
		if !sawShrink {
			t.Fatalf("%s: never observed the infected set shrinking; SIS dynamics look wrong", name)
		}
	}
}

// TestBipsExtraSeeds: starts beyond the first seed A_0, duplicates
// collapse, and the first start is the persistent source.
func TestBipsExtraSeeds(t *testing.T) {
	g := mk(t)(graph.Complete(10))
	p, err := New(BIPS, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(0, 3, 5, 3); err != nil {
		t.Fatal(err)
	}
	got := p.(Reacher).AppendReached(nil)
	if len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("A_0 = %v, want [0 3 5]", got)
	}
	r := rng.New(4)
	for i := 0; i < 20; i++ {
		p.Step(r)
		if !p.(Reacher).Reached(0) {
			t.Fatalf("source 0 left A_t at round %d", p.Round())
		}
	}
}

// TestBipsRunUntilContains: the source is in A_0, and a K12 target
// joins A_t within a plausible number of rounds.
func TestBipsRunUntilContains(t *testing.T) {
	g := mk(t)(graph.Complete(12))
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", BIPS, w)
		p, err := New(BIPS, g, Config{KernelWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(4)
		if hit := hitTime(t, p, r, 1000, 3, 3); hit != 0 {
			t.Fatalf("%s: source self-containment = %d, want 0", name, hit)
		}
		if hit := hitTime(t, p, r, 1000, 0, 7); hit < 1 || hit > 200 {
			t.Fatalf("%s: containment time %d implausible", name, hit)
		}
	}
}

// TestBipsDeterminismAndReuse: a reused engine and a fresh one replay the
// same |A_t| trajectory for the same seed.
func TestBipsDeterminismAndReuse(t *testing.T) {
	g := mk(t)(graph.Petersen())
	sizes := func(p Process, col *Collector) []int {
		if _, err := RunCollect(nil, p, col, rng.New(99), 0, 0); err != nil {
			t.Fatal(err)
		}
		return append([]int(nil), col.Active()...)
	}
	engine := func() (Process, *Collector) {
		col := NewCollector(g.N())
		p, err := New(BIPS, g, Config{Observer: col.Observe})
		if err != nil {
			t.Fatal(err)
		}
		return p, col
	}
	p, col := engine()
	a := sizes(p, col)
	if again := sizes(p, col); !reflect.DeepEqual(a, again) {
		t.Fatalf("reused engine diverged: %v vs %v", a, again)
	}
	if fresh := sizes(engine()); !reflect.DeepEqual(a, fresh) {
		t.Fatalf("fresh engine diverged: %v vs %v", a, fresh)
	}
}

// TestBipsNeighbourhoodConstraint: a vertex with no infected neighbour
// cannot become infected, so on a long cycle A_t stays within distance t
// of the source.
func TestBipsNeighbourhoodConstraint(t *testing.T) {
	g := mk(t)(graph.Cycle(101))
	for _, w := range kernelWidths {
		name := fmt.Sprintf("%s/w%d", BIPS, w)
		p, err := New(BIPS, g, Config{KernelWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(6)
		if err := p.Reset(50); err != nil {
			t.Fatal(err)
		}
		var set []int32
		for step := 1; step <= 20; step++ {
			p.Step(r)
			set = p.(Reacher).AppendReached(set[:0])
			for _, v := range set {
				dist := int(math.Abs(float64(v - 50)))
				if dist > 50 {
					dist = 101 - dist
				}
				if dist > step {
					t.Fatalf("%s: vertex %d infected at round %d but is at distance %d", name, v, step, dist)
				}
			}
		}
	}
}

// TestBipsFastVsExactDistribution: the exact-sampling and closed-form
// fast paths produce the same infection-time distribution; compare means
// on K32 within 5 combined standard errors.
func TestBipsFastVsExactDistribution(t *testing.T) {
	g := mk(t)(graph.Complete(32))
	meanInfection := func(fast bool) (mean, se float64) {
		p, err := New(BIPS, g, Config{FastSampling: fast})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(77)
		const trials = 400
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			res, err := Run(p, r, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatal("uninfected run on K32")
			}
			x := float64(res.Rounds)
			sum += x
			sumSq += x * x
		}
		mean = sum / trials
		return mean, math.Sqrt((sumSq/trials - mean*mean) / trials)
	}
	exactMean, exactSE := meanInfection(false)
	fastMean, fastSE := meanInfection(true)
	if diff, tol := math.Abs(exactMean-fastMean), 5*math.Hypot(exactSE, fastSE); diff > tol {
		t.Fatalf("exact mean %.3f vs fast mean %.3f differ by %.3f > %.3f", exactMean, fastMean, diff, tol)
	}
}

// TestPusher pins cobra's Pusher view, through which E14 counts
// per-vertex loads. Every round's AppendPushes holds exactly that
// round's transmissions, and its distinct targets in first-push order
// are the next AppendActive. Every run's counts add up: deliveries to
// the transmissions, K·activations ≤ transmissions ≤ (K+1)·activations
// (equal for integral branching), and no vertex is active more often
// than messages reached it, bar the start's round-0 activation. The
// pushes match at kernel widths 1 and 3, and AppendPushes is empty after
// every Reset, including one between two runs on one stream. The
// 8192-vertex cases span several chunks; with Rho > 0 the chunks' push
// counts vary, so their staging regions are not contiguous.
func TestPusher(t *testing.T) {
	r := rng.New(3)
	cases := []struct {
		name      string
		g         *graph.Graph
		br        Branching
		start     int32
		minChunks int // some round's C_t spans at least this many kernel chunks
	}{
		{"rand-reg-256x8", mk(t)(graph.RandomRegularConnected(256, 8, r)), DefaultBranching, 0, 1},
		{"rand-reg-128x3", mk(t)(graph.RandomRegularConnected(128, 3, r)), DefaultBranching, 0, 1},
		{"complete-48", mk(t)(graph.Complete(48)), DefaultBranching, 0, 1},
		{"barbell-8-3", mk(t)(graph.Barbell(8, 3)), DefaultBranching, 0, 1},
		{"rand-reg-8192x8", mk(t)(graph.RandomRegularConnected(8192, 8, r)), DefaultBranching, 0, 3},
		{"rand-reg-8192x8-k1+0.5", mk(t)(graph.RandomRegularConnected(8192, 8, r)), Branching{K: 1, Rho: 0.5}, 0, 3},
		{"complete-32-from-5", mk(t)(graph.Complete(32)), DefaultBranching, 5, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			var widthPushes [][]int32
			for _, w := range []int{1, 3} {
				var roundSent int64
				p, err := New(Cobra, tc.g, Config{Branching: tc.br, KernelWorkers: w,
					Observer: func(s RoundStat) { roundSent = s.Transmissions }})
				if err != nil {
					t.Fatal(err)
				}
				pu := p.(Pusher)
				stream := rng.New(7)
				var all, active, pushes []int32
				seen := make([]int, n) // seen[u] == round: u already pushed to
				maxChunks := 0
				for run := 0; run < 2; run++ {
					if err := p.Reset(tc.start); err != nil {
						t.Fatal(err)
					}
					if got := pu.AppendPushes(nil); len(got) != 0 {
						t.Fatalf("w%d run %d: %d pushes after Reset", w, run, len(got))
					}
					clear(seen)
					activations, deliveries := make([]int64, n), make([]int64, n)
					active = pu.AppendActive(active[:0])
					for !p.Done() {
						maxChunks = max(maxChunks, chunksFor(len(active)))
						for _, v := range active {
							activations[v]++
						}
						p.Step(stream)
						pushes = pu.AppendPushes(pushes[:0])
						if int64(len(pushes)) != roundSent {
							t.Fatalf("w%d run %d round %d: %d pushes, %d transmissions", w, run, p.Round(), len(pushes), roundSent)
						}
						var first []int32
						for _, u := range pushes {
							deliveries[u]++
							if seen[u] != p.Round() {
								seen[u] = p.Round()
								first = append(first, u)
							}
						}
						active = pu.AppendActive(active[:0])
						if !slices.Equal(first, active) {
							t.Fatalf("w%d run %d round %d: distinct pushes are not the next active set", w, run, p.Round())
						}
						all = append(all, pushes...)
					}
					var sumAct, sumDel int64
					for v := range n {
						sumAct += activations[v]
						sumDel += deliveries[v]
						limit := deliveries[v]
						if int32(v) == tc.start {
							limit++
						}
						if activations[v] > limit {
							t.Fatalf("w%d run %d: vertex %d active %d times from %d deliveries", w, run, v, activations[v], deliveries[v])
						}
					}
					sent := p.Transmissions()
					k := int64(tc.br.K)
					if sumDel != sent || k*sumAct > sent || sent > (k+1)*sumAct || (tc.br.Rho == 0 && k*sumAct != sent) {
						t.Fatalf("w%d run %d: %d deliveries, %d activations, %d transmissions", w, run, sumDel, sumAct, sent)
					}
				}
				if maxChunks < tc.minChunks {
					t.Fatalf("w%d: widest round spans %d chunks, want >= %d", w, maxChunks, tc.minChunks)
				}
				widthPushes = append(widthPushes, all)
			}
			if !slices.Equal(widthPushes[0], widthPushes[1]) {
				t.Fatal("pushes differ between kernel widths 1 and 3")
			}
		})
	}
}
