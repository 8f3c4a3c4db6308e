package process

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

func mk(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func expander(t *testing.T, n, deg int) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegularConnected(n, deg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// engineCase is one registry engine configuration under test: a
// registry entry plus the kernel worker count it runs at.
type engineCase struct {
	Info
	name    string // subtest name: the process, plus /wN for kernel processes
	workers int    // Config.KernelWorkers
}

// build constructs the engine with the case's kernel worker count.
func (ec engineCase) build(g *graph.Graph, cfg Config) (Process, error) {
	cfg.KernelWorkers = ec.workers
	return ec.New(g, cfg)
}

// engineCases expands the registry for the registry-wide tests: every
// process once, and kernel processes once per width in kernelWidths, so
// each contract is checked on the inline kernel path and on a pool.
func engineCases() []engineCase {
	var out []engineCase
	for _, info := range All() {
		if !info.Kernel {
			out = append(out, engineCase{Info: info, name: info.Name})
			continue
		}
		for _, w := range kernelWidths {
			out = append(out, engineCase{Info: info, name: fmt.Sprintf("%s/w%d", info.Name, w), workers: w})
		}
	}
	return out
}

func TestRegistry(t *testing.T) {
	want := []string{Cobra, BIPS, Push, PushPull, Flood, KWalk}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		info, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if info.Name != name || info.New == nil || info.Summary == "" {
			t.Fatalf("incomplete registry entry %+v", info)
		}
	}
	if _, err := Lookup("gossip"); err == nil || !strings.Contains(err.Error(), "unknown process") {
		t.Fatalf("Lookup(gossip) = %v, want unknown-process error", err)
	}
	if _, err := New("gossip", expander(t, 16, 3), Config{}); err == nil {
		t.Fatal("New with unknown name should fail")
	}
	branchedWant := map[string]bool{Cobra: true, BIPS: true, Push: false, PushPull: false, Flood: false, KWalk: true}
	kernelWant := map[string]bool{Cobra: true, BIPS: true}
	for _, info := range All() {
		if info.Branched != branchedWant[info.Name] {
			t.Errorf("%s: Branched = %v, want %v", info.Name, info.Branched, branchedWant[info.Name])
		}
		if info.Kernel != kernelWant[info.Name] {
			t.Errorf("%s: Kernel = %v, want %v", info.Name, info.Kernel, kernelWant[info.Name])
		}
	}
}

// TestAllProcessesCoverAndRepeat drives every registered process to
// completion on a small expander, checks the shared invariants, and
// pins that a reused (Reset) process reproduces the identical run for
// the identical random stream — the reusability contract.
func TestAllProcessesCoverAndRepeat(t *testing.T) {
	g := expander(t, 64, 4)
	for _, info := range engineCases() {
		t.Run(info.name, func(t *testing.T) {
			p, err := info.build(g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			first, err := Run(p, rng.New(7), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Done {
				t.Fatalf("%s did not finish on a 64-vertex expander", info.Name)
			}
			if p.ReachedCount() != g.N() {
				t.Fatalf("ReachedCount = %d, want %d", p.ReachedCount(), g.N())
			}
			if first.Rounds < 1 || first.Transmissions < 1 {
				t.Fatalf("degenerate result %+v", first)
			}
			if first.Transmissions < int64(p.ReachedCount())-1 {
				t.Fatalf("transmissions %d < reached-1 = %d", first.Transmissions, p.ReachedCount()-1)
			}
			// Second run on the same object with a fresh identical stream.
			again, err := Run(p, rng.New(7), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Fatalf("reused process diverged: %+v vs %+v", again, first)
			}
		})
	}
}

func TestFloodRoundsEqualEccentricity(t *testing.T) {
	graphs := []*graph.Graph{
		mk(t)(graph.Cycle(11)),
		mk(t)(graph.Hypercube(5)),
		mk(t)(graph.Path(9)),
		expander(t, 48, 3),
	}
	r := rng.New(1)
	for _, g := range graphs {
		p, err := New(Flood, g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []int32{0, int32(g.N() / 2), int32(g.N() - 1)} {
			res, err := Run(p, r, 0, s)
			if err != nil {
				t.Fatal(err)
			}
			if want := g.Eccentricity(s); !res.Done || res.Rounds != want {
				t.Fatalf("%s: flood from %d took %d rounds (done=%v), want eccentricity %d",
					g.Name(), s, res.Rounds, res.Done, want)
			}
		}
	}
}

// TestPushLogarithmicOnComplete: push on K_n informs everyone in
// ≈ log2(n) + ln(n) rounds (Frieze–Grimmett); for n = 512 that is
// ≈ 15.2, checked within a generous band.
func TestPushLogarithmicOnComplete(t *testing.T) {
	p, err := New(Push, mk(t)(graph.Complete(512)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	const trials = 40
	sum := 0.0
	for i := 0; i < trials; i++ {
		res, err := Run(p, r, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatal("push failed to cover")
		}
		sum += float64(res.Rounds)
	}
	mean := sum / trials
	if want := math.Log2(512) + math.Log(512); mean < want-4 || mean > want+6 {
		t.Fatalf("push mean rounds %.2f, theory ≈ %.2f", mean, want)
	}
}

// TestPushPullFasterOrEqualToPush: push-pull does everything push does
// plus pulls, so it is no slower on average.
func TestPushPullFasterOrEqualToPush(t *testing.T) {
	g := expander(t, 256, 3)
	meanOf := func(name string) float64 {
		p, err := New(name, g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(6)
		const trials = 30
		sum := 0.0
		for i := 0; i < trials; i++ {
			res, err := Run(p, r, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatalf("%s did not cover", name)
			}
			sum += float64(res.Rounds)
		}
		return sum / trials
	}
	if push, pushPull := meanOf(Push), meanOf(PushPull); pushPull > push+1 {
		t.Fatalf("push-pull (%.2f rounds) slower than push (%.2f)", pushPull, push)
	}
}

// kwalkMeanCover is the mean cover time of k independent walks from
// vertex 0 on g over trials runs.
func kwalkMeanCover(t *testing.T, g *graph.Graph, k, trials int, seed uint64) float64 {
	t.Helper()
	p, err := New(KWalk, g, Config{Branching: Branching{K: k}})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	sum := 0.0
	for i := 0; i < trials; i++ {
		res, err := Run(p, r, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatalf("%d walks did not cover %s", k, g.Name())
		}
		sum += float64(res.Rounds)
	}
	return sum / float64(trials)
}

// TestRandomWalkCoverCycleQuadratic: a single walk covers C_n in
// n(n-1)/2 rounds in expectation — 276 for n = 24.
func TestRandomWalkCoverCycleQuadratic(t *testing.T) {
	mean := kwalkMeanCover(t, mk(t)(graph.Cycle(24)), 1, 60, 7)
	if want := 24.0 * 23 / 2; math.Abs(mean-want)/want > 0.25 {
		t.Fatalf("C24 walk cover mean %.1f, theory %.1f", mean, want)
	}
}

// TestMultiWalkSpeedup: eight walks cover a cycle at least twice as fast
// (in rounds) as one.
func TestMultiWalkSpeedup(t *testing.T) {
	g := mk(t)(graph.Cycle(20))
	one, eight := kwalkMeanCover(t, g, 1, 40, 8), kwalkMeanCover(t, g, 8, 40, 8)
	if eight > one/2 {
		t.Fatalf("8 walks (%.1f rounds) show no meaningful speedup over 1 (%.1f)", eight, one)
	}
}

// TestTransmissionAccounting: push sends one message per informed vertex
// per round, flooding Σ deg(informed) — on K4 from one vertex, 1 and 3
// in round one, and flooding covers K4 in that round.
func TestTransmissionAccounting(t *testing.T) {
	g := mk(t)(graph.Complete(4))
	for _, tc := range []struct {
		name string
		sent int64
	}{{Push, 1}, {Flood, 3}} {
		p, err := New(tc.name, g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, rng.New(10), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Transmissions != tc.sent {
			t.Fatalf("%s round-1 transmissions = %d, want %d", tc.name, res.Transmissions, tc.sent)
		}
		if tc.name == Flood && !res.Done {
			t.Fatal("flood should cover K4 in one round")
		}
	}
}

// TestMaxRoundsCap: a run that cannot finish within the cap stops there
// and reports not done — for every registered process, on a long cycle.
func TestMaxRoundsCap(t *testing.T) {
	g := mk(t)(graph.Cycle(1000))
	for _, info := range engineCases() {
		t.Run(info.name, func(t *testing.T) {
			p, err := info.build(g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(p, rng.New(7), 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Done || res.Rounds != 2 {
				t.Fatalf("capped run reported %+v, want 2 rounds, not done", res)
			}
		})
	}
}

// baselines are the comparison protocols as registry configurations:
// push, push-pull, flooding, one random walk and four independent walks.
var baselines = []struct {
	name, proc string
	cfg        Config
}{
	{"push", Push, Config{}},
	{"push-pull", PushPull, Config{}},
	{"flood", Flood, Config{}},
	{"random-walk", KWalk, Config{Branching: Branching{K: 1}}},
	{"4-walks", KWalk, Config{Branching: Branching{K: 4}}},
}

// TestValidation: every baseline rejects a nil graph and a graph with an
// isolated vertex, and Run fails from an empty, negative or out-of-range
// start set.
func TestValidation(t *testing.T) {
	g := mk(t)(graph.Complete(5))
	iso := mk(t)(graph.FromEdges("iso", 3, [][2]int32{{0, 1}}))
	r := rng.New(1)
	for _, b := range baselines {
		t.Run(b.name, func(t *testing.T) {
			if _, err := New(b.proc, nil, b.cfg); err == nil {
				t.Fatal("nil graph should fail")
			}
			if _, err := New(b.proc, iso, b.cfg); err == nil {
				t.Fatal("isolated vertex should fail")
			}
			p, err := New(b.proc, g, b.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, starts := range [][]int32{nil, {-1}, {5}, {0, 5}} {
				if _, err := Run(p, r, 0, starts...); err == nil {
					t.Fatalf("Run from %v should fail", starts)
				}
			}
		})
	}
}

// TestAllProtocolsCoverCompleteGraph: every baseline informs K32 from
// one vertex; flooding does so in exactly one round.
func TestAllProtocolsCoverCompleteGraph(t *testing.T) {
	g := mk(t)(graph.Complete(32))
	r := rng.New(2)
	for _, b := range baselines {
		t.Run(b.name, func(t *testing.T) {
			p, err := New(b.proc, g, b.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(p, r, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done || p.ReachedCount() != g.N() {
				t.Fatalf("did not cover K32: %+v, reached %d", res, p.ReachedCount())
			}
			if res.Rounds < 1 || res.Transmissions < int64(g.N()-1) {
				t.Fatalf("degenerate result %+v", res)
			}
			if b.proc == Flood && res.Rounds != 1 {
				t.Fatalf("flood took %d rounds on K32, want 1", res.Rounds)
			}
		})
	}
}

// TestPushPullTransmissions pins the accounting invariants: every vertex
// contacts exactly once per round (n transmissions per round), and at
// least reached-1 transmissions are needed to inform reached vertices —
// even on capped, partially-informed runs.
func TestPushPullTransmissions(t *testing.T) {
	g := mk(t)(graph.Cycle(64))
	p, err := New(PushPull, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, rng.New(3), 5, 0) // capped: C64 cannot finish in 5 rounds
	if err != nil {
		t.Fatal(err)
	}
	if res.Done {
		t.Fatal("push-pull informed C64 in 5 rounds?")
	}
	if res.Transmissions != int64(res.Rounds)*int64(g.N()) {
		t.Fatalf("transmissions = %d, want rounds×n = %d", res.Transmissions, res.Rounds*g.N())
	}
	if res.Transmissions < int64(p.ReachedCount())-1 {
		t.Fatalf("transmissions %d < reached-1 = %d", res.Transmissions, p.ReachedCount()-1)
	}
}

func TestKWalk(t *testing.T) {
	g := mk(t)(graph.Cycle(24))
	p, err := New(KWalk, g, Config{Branching: Branching{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, rng.New(5), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("3 walks failed to cover C24")
	}
	if res.Transmissions != 3*int64(res.Rounds) {
		t.Fatalf("transmissions = %d, want 3×rounds = %d", res.Transmissions, 3*res.Rounds)
	}
	// Multi-start: walkers spread round-robin, both starts visited at round 0.
	if err := p.Reset(0, 12); err != nil {
		t.Fatal(err)
	}
	if p.ReachedCount() != 2 || p.Round() != 0 {
		t.Fatalf("after Reset(0, 12): reached=%d round=%d", p.ReachedCount(), p.Round())
	}
	// Config validation.
	if _, err := New(KWalk, g, Config{Branching: Branching{K: 1, Rho: 0.5}}); err == nil {
		t.Fatal("kwalk should reject fractional branching")
	}
	if _, err := New(KWalk, g, Config{Branching: Branching{K: -1}}); err == nil {
		t.Fatal("kwalk should reject K < 1")
	}
	// The zero Config defaults to DefaultBranching: 2 walkers.
	q, err := New(KWalk, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Reset(0); err != nil {
		t.Fatal(err)
	}
	q.Step(rng.New(9))
	if q.Transmissions() != 2 {
		t.Fatalf("default kwalk made %d transmissions in one round, want 2 walkers", q.Transmissions())
	}
}

func TestResetValidation(t *testing.T) {
	g := mk(t)(graph.Complete(8))
	for _, info := range All() {
		p, err := info.New(g, Config{})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if err := p.Reset(); err == nil {
			t.Errorf("%s: empty start set should fail", info.Name)
		}
		if err := p.Reset(-1); err == nil {
			t.Errorf("%s: negative start should fail", info.Name)
		}
		if err := p.Reset(8); err == nil {
			t.Errorf("%s: out-of-range start should fail", info.Name)
		}
	}
	for _, info := range All() {
		if _, err := info.New(nil, Config{}); err == nil {
			t.Errorf("%s: nil graph should fail", info.Name)
		}
	}
	iso, err := graph.FromEdges("iso", 3, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range All() {
		if _, err := info.New(iso, Config{}); err == nil {
			t.Errorf("%s: isolated vertex should fail", info.Name)
		}
	}
}

// TestObserver pins the RoundObserver contract for every process: one
// call per Step, increasing round indices, per-round transmissions that
// sum to the total, and a final Reached matching the process state.
func TestObserver(t *testing.T) {
	g := expander(t, 48, 4)
	for _, info := range engineCases() {
		t.Run(info.name, func(t *testing.T) {
			var stats []RoundStat
			p, err := info.build(g, Config{Observer: func(rs RoundStat) { stats = append(stats, rs) }})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(p, rng.New(11), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(stats) != res.Rounds {
				t.Fatalf("observer saw %d rounds, result has %d", len(stats), res.Rounds)
			}
			var sent int64
			for i, rs := range stats {
				if rs.Round != i+1 {
					t.Fatalf("observation %d has round %d", i, rs.Round)
				}
				if rs.Active < 0 || rs.Reached < 1 || rs.Reached > g.N() {
					t.Fatalf("implausible observation %+v", rs)
				}
				sent += rs.Transmissions
			}
			if sent != res.Transmissions {
				t.Fatalf("per-round transmissions sum to %d, total is %d", sent, res.Transmissions)
			}
			if last := stats[len(stats)-1]; last.Reached != p.ReachedCount() {
				t.Fatalf("final observed reached %d, process reports %d", last.Reached, p.ReachedCount())
			}

			// A second run with the observer still attached replays the
			// same trajectory for the same stream.
			first := append([]RoundStat(nil), stats...)
			stats = stats[:0]
			if _, err := Run(p, rng.New(11), 0, 0); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, stats) {
				t.Fatal("observer trajectory not reproducible across Reset")
			}
		})
	}
}

// TestZeroAllocTrials pins the buffer-reuse contract: once warmed, a
// full Reset+Step-to-completion trial performs zero allocations for
// every registered process, and at fractional branching 1+0.5 for those
// that accept it. (AllocsPerRun's integer average also tolerates the
// rare capacity growth when a later run runs longer than any before.)
func TestZeroAllocTrials(t *testing.T) {
	g := expander(t, 512, 8)
	starts := []int32{0}
	type allocCase struct {
		engineCase
		br Branching
	}
	var cases []allocCase
	for _, ec := range engineCases() {
		cases = append(cases, allocCase{ec, Branching{}})
		if ec.AcceptsRho {
			br := Branching{K: 1, Rho: 0.5}
			ec.name += "/" + br.String()
			cases = append(cases, allocCase{ec, br})
		}
	}
	for _, info := range cases {
		t.Run(info.name, func(t *testing.T) {
			p, err := info.build(g, Config{Branching: info.br})
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(13)
			trial := func() {
				if err := p.Reset(starts...); err != nil {
					t.Fatal(err)
				}
				for !p.Done() && p.Round() < DefaultMaxRounds {
					p.Step(r)
				}
				if !p.Done() {
					t.Fatal("trial hit the round cap")
				}
			}
			for i := 0; i < 16; i++ { // warm every buffer past its high-water mark
				trial()
			}
			if allocs := testing.AllocsPerRun(16, trial); allocs != 0 {
				t.Fatalf("%s: %v allocs per trial after warm-up, want 0", info.Name, allocs)
			}
		})
	}
}

// TestBranchingFlowsThrough pins that Config.Branching reaches the
// engines: cobra k=1 sends exactly one message per active vertex per
// round.
func TestBranchingFlowsThrough(t *testing.T) {
	g := mk(t)(graph.Complete(16))
	p, err := New(Cobra, g, Config{Branching: Branching{K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(0); err != nil {
		t.Fatal(err)
	}
	p.Step(rng.New(17))
	if p.Transmissions() != 1 {
		t.Fatalf("cobra k=1 first round sent %d messages, want 1", p.Transmissions())
	}
}

// TestRunContextCancellation pins the prompt-cancellation contract: a
// context cancelled mid-trial aborts the run within cancelCheckInterval
// rounds instead of running to completion, a pre-cancelled context never
// steps, and a nil context behaves exactly like Run.
func TestRunContextCancellation(t *testing.T) {
	// A single walker on a large cycle needs Θ(n²) rounds to cover — a
	// long trial for cancellation to interrupt.
	g := mk(t)(graph.Cycle(512))
	p, err := New(KWalk, g, Config{Branching: Branching{K: 1}})
	if err != nil {
		t.Fatal(err)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(pre, p, rng.New(1), 0, 0)
	if err == nil {
		t.Fatal("pre-cancelled context should abort the run")
	}
	if res.Rounds != 0 || res.Done {
		t.Fatalf("pre-cancelled run reported %+v, want no progress", res)
	}

	// Cancel from a round observer once the run is under way: the run
	// must stop within one check interval of the cancellation round.
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var cancelledAt int
	obs := func(st RoundStat) {
		if st.Round == 100 {
			cancelledAt = st.Round
			cancel2()
		}
	}
	q, err := New(KWalk, g, Config{Branching: Branching{K: 1}, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	res, err = RunContext(ctx, q, rng.New(2), 0, 0)
	if err == nil {
		t.Fatal("cancellation mid-run should surface as an error")
	}
	if cancelledAt == 0 {
		t.Fatal("observer never fired at round 100 — trial too short for the test")
	}
	if res.Done {
		t.Fatal("cancelled run claims completion")
	}
	if res.Rounds < cancelledAt || res.Rounds > cancelledAt+cancelCheckInterval {
		t.Fatalf("run stopped at round %d, want within %d rounds of cancellation at %d",
			res.Rounds, cancelCheckInterval, cancelledAt)
	}

	// nil context: identical to Run on the same seed.
	fresh, err := New(KWalk, g, Config{Branching: Branching{K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(fresh, rng.New(3), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(nil, fresh, rng.New(3), 0, 0)
	if err != nil || got != want {
		t.Fatalf("RunContext(nil) = %+v, %v; Run = %+v", got, err, want)
	}
}
