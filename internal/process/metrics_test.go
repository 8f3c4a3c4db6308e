package process

import (
	"reflect"
	"strings"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// collected constructs an engine with build, attaches a fresh collector
// and runs one collected trial from vertex 0.
func collected(t *testing.T, build Factory, g *graph.Graph, seed uint64) (*Collector, Result) {
	t.Helper()
	c := NewCollector(g.N())
	p, err := build(g, Config{Observer: c.Observe})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCollect(nil, p, c, rng.New(seed), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run did not finish")
	}
	return c, res
}

// TestCollectorContract is the satellite's RoundObserver-contract pin,
// run through the Collector for every registered process: the observer
// fires exactly Round() times (series length = rounds + the start
// state), the reached series is non-decreasing for monotone processes,
// and it ends at ReachedCount() — which at completion is n.
func TestCollectorContract(t *testing.T) {
	g, err := graph.RandomRegularConnected(96, 4, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range engineCases() {
		t.Run(info.name, func(t *testing.T) {
			c, res := collected(t, info.build, g, 11)
			if c.Rounds() != res.Rounds {
				t.Fatalf("collector saw %d rounds, result has %d — observer did not fire once per Step", c.Rounds(), res.Rounds)
			}
			if got := len(c.Reached()); got != res.Rounds+1 {
				t.Fatalf("reached series has %d entries, want rounds+1 = %d", got, res.Rounds+1)
			}
			if c.Transmissions() != res.Transmissions {
				t.Fatalf("collector transmissions %d, result %d", c.Transmissions(), res.Transmissions)
			}
			reached := c.Reached()
			if reached[0] != 1 {
				t.Fatalf("start state reached = %d, want 1 (single start vertex)", reached[0])
			}
			if last := reached[len(reached)-1]; last != g.N() {
				t.Fatalf("final reached %d, want full coverage %d", last, g.N())
			}
			for i, v := range reached {
				if v < 0 || v > g.N() {
					t.Fatalf("implausible reached[%d] = %d", i, v)
				}
				if info.Monotone && i > 0 && v < reached[i-1] {
					t.Fatalf("%s is registered monotone but reached dipped %d → %d at round %d",
						info.Name, reached[i-1], v, i)
				}
			}
			if len(c.Active()) != len(reached) {
				t.Fatal("series lengths disagree")
			}
			if c.PeakActive() < 1 {
				t.Fatalf("peak active %d", c.PeakActive())
			}
			// Completed runs always pass half coverage, in [0, rounds].
			if hr := c.HalfCoverageRound(); hr < 0 || hr > res.Rounds {
				t.Fatalf("half-coverage round %d outside [0, %d]", hr, res.Rounds)
			}
			// Half-coverage is consistent with the series.
			hr := c.HalfCoverageRound()
			if 2*reached[hr] < g.N() {
				t.Fatalf("reached[%d] = %d is below half of %d", hr, reached[hr], g.N())
			}
			for tt := 0; tt < hr; tt++ {
				if 2*reached[tt] >= g.N() {
					t.Fatalf("round %d already at half coverage, but HalfCoverageRound = %d", tt, hr)
				}
			}
		})
	}
}

// TestMonotoneRegistryTruthful cross-checks the Monotone flags: bips is
// the only non-monotone process, and on an unfavourable instance its
// reached series actually dips (the flag is not vacuous).
func TestMonotoneRegistryTruthful(t *testing.T) {
	want := map[string]bool{Cobra: true, BIPS: false, Push: true, PushPull: true, Flood: true, KWalk: true}
	for _, info := range All() {
		if info.Monotone != want[info.Name] {
			t.Errorf("%s: Monotone = %v, want %v", info.Name, info.Monotone, want[info.Name])
		}
	}
	// A sparse cycle keeps BIPS in the small phase for a while, where
	// recoveries outnumber infections in some round of most runs.
	g, err := graph.Cycle(64)
	if err != nil {
		t.Fatal(err)
	}
	dipped := false
	for seed := uint64(1); seed <= 20 && !dipped; seed++ {
		c, _ := collected(t, newBipsProc, g, seed)
		r := c.Reached()
		for i := 1; i < len(r); i++ {
			if r[i] < r[i-1] {
				dipped = true
				break
			}
		}
	}
	if !dipped {
		t.Fatal("bips reached series never dipped across 20 runs — Monotone=false untestable?")
	}
}

// TestCollectorReproducible pins that a collected trial replays exactly:
// same stream, same series, same scalars — the Reset/Begin sequencing in
// RunCollect does not leak state between trials.
func TestCollectorReproducible(t *testing.T) {
	g, err := graph.RandomRegularConnected(64, 4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(g.N())
	p, err := New(Cobra, g, Config{Observer: c.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCollect(nil, p, c, rng.New(3), 0, 0); err != nil {
		t.Fatal(err)
	}
	first := append([]int(nil), c.Reached()...)
	firstActive := append([]int(nil), c.Active()...)
	firstHalf, firstPeak, firstSent := c.HalfCoverageRound(), c.PeakActive(), c.Transmissions()

	// An interleaved different-seed trial must not disturb the replay.
	if _, err := RunCollect(nil, p, c, rng.New(99), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCollect(nil, p, c, rng.New(3), 0, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, c.Reached()) || !reflect.DeepEqual(firstActive, c.Active()) {
		t.Fatal("collected series not reproducible across Reset/Begin")
	}
	if c.HalfCoverageRound() != firstHalf || c.PeakActive() != firstPeak || c.Transmissions() != firstSent {
		t.Fatal("collected scalars not reproducible across Reset/Begin")
	}
}

// TestCollectorZeroAlloc extends the buffer-reuse contract to the
// metrics layer: a warmed Process+Collector pair runs whole collected
// trials with zero allocations, for every registered process.
func TestCollectorZeroAlloc(t *testing.T) {
	g, err := graph.RandomRegularConnected(512, 8, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	starts := []int32{0}
	for _, info := range engineCases() {
		t.Run(info.name, func(t *testing.T) {
			c := NewCollector(g.N())
			p, err := info.build(g, Config{Observer: c.Observe})
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(13)
			trial := func() {
				res, err := RunCollect(nil, p, c, r, DefaultMaxRounds, starts...)
				if err != nil || !res.Done {
					t.Fatalf("trial failed: %+v %v", res, err)
				}
			}
			for i := 0; i < 16; i++ { // warm buffers past their high-water mark
				trial()
			}
			if allocs := testing.AllocsPerRun(16, trial); allocs != 0 {
				t.Fatalf("%s: %v allocs per collected trial after warm-up, want 0", info.Name, allocs)
			}
		})
	}
}

// TestCollectorReserve pins the strict zero-alloc escape hatch: after
// Reserve(cap), a first (cold) trial within the cap allocates nothing.
func TestCollectorReserve(t *testing.T) {
	g, err := graph.Cycle(64)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(g.N())
	c.Reserve(1 << 14)
	p, err := New(KWalk, g, Config{Branching: Branching{K: 1}, Observer: c.Observe})
	if err != nil {
		t.Fatal(err)
	}
	// Warm only the process buffers (walk a few rounds), never the
	// collector past Reserve.
	if err := p.Reset(0); err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	starts := []int32{0} // hoisted: the variadic literal would be the only allocation
	if allocs := testing.AllocsPerRun(4, func() {
		res, err := RunCollect(nil, p, c, r, 1<<14, starts...)
		if err != nil || !res.Done {
			t.Fatalf("trial: %+v %v", res, err)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocs per reserved trial, want 0", allocs)
	}
}

// TestObserveBeforeBeginPanicsWithGuidance pins the misuse diagnostic:
// an attached collector driven without Begin (plain Run instead of
// RunCollect) must fail with an actionable message, not a bare index
// panic.
func TestObserveBeforeBeginPanicsWithGuidance(t *testing.T) {
	g, err := graph.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(g.N())
	p, err := New(Push, g, Config{Observer: c.Observe})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Observe before Begin should panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "RunCollect") {
			t.Fatalf("panic %v lacks RunCollect guidance", r)
		}
	}()
	Run(p, rng.New(1), 0, 0) // misuse: never calls Begin
}

// TestCollectorHalfCoverageStart pins the Begin edge cases: a start set
// already past half coverage reports round 0, and RunCollect without a
// collector is rejected.
func TestCollectorHalfCoverageStart(t *testing.T) {
	g, err := graph.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(g.N())
	p, err := New(Push, g, Config{Observer: c.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCollect(nil, p, c, rng.New(1), 0, 0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if c.Reached()[0] != 4 {
		t.Fatalf("initial reached %d, want 4", c.Reached()[0])
	}
	if c.HalfCoverageRound() != 0 {
		t.Fatalf("half-coverage round %d, want 0 for a half-covered start set", c.HalfCoverageRound())
	}
	if _, err := RunCollect(nil, p, nil, rng.New(1), 0, 0); err == nil {
		t.Fatal("nil collector should be rejected")
	}
}
