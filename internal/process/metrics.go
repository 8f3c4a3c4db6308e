package process

import (
	"context"
	"errors"

	"cobrawalk/internal/rng"
)

// Collector is the metrics layer's per-trial accumulator, built on the
// RoundObserver hook: attach Observe as the process Observer at
// construction time, Begin it at the start of every trial (RunCollect
// does both bookkeeping steps of a driven run), and read the per-trial
// scalars and per-round series afterwards.
//
// All buffers are reused across trials — Begin truncates without
// freeing — so a warmed Collector adds zero allocations to a trial,
// preserving the process layer's zero-alloc contract (BenchmarkProcessStep
// runs with a collector attached).
//
// Series are indexed by round: series[t] is the state after round t, and
// series[0] is the start state recorded by Begin. For the non-monotone
// BIPS process "reached" is |A_t| (the currently infected set), so the
// Reached series can dip; monotone processes (see Info.Monotone) are
// non-decreasing.
//
// A Collector is not safe for concurrent use; pair one with each Process.
type Collector struct {
	graphN int

	transmissions int64
	peakActive    int
	halfRound     int

	reached []int
	active  []int
}

// NewCollector returns a collector for processes on a graph of n
// vertices (n sets the half-coverage threshold).
func NewCollector(n int) *Collector {
	return &Collector{graphN: n, halfRound: -1}
}

// Begin starts a new trial: it clears every accumulator and records the
// start state, initialReached being the process's ReachedCount after
// Reset. The start state seeds index 0 of every series (Active uses the
// same value — the driving set at round 0 is the start set).
func (c *Collector) Begin(initialReached int) {
	c.transmissions = 0
	c.peakActive = initialReached
	c.halfRound = -1
	if 2*initialReached >= c.graphN {
		c.halfRound = 0
	}
	c.reached = append(c.reached[:0], initialReached)
	c.active = append(c.active[:0], initialReached)
}

// Reserve grows the series buffers to hold trials of up to rounds
// rounds without reallocating. Buffers already grow amortised through
// append; Reserve is for callers with a known round cap (benchmarks,
// fixed-horizon ensembles) that want strictly zero allocations per
// trial rather than amortised-zero.
func (c *Collector) Reserve(rounds int) {
	need := rounds + 1 // + the start state
	for _, s := range []*[]int{&c.reached, &c.active} {
		if cap(*s) < need {
			grown := make([]int, len(*s), need)
			copy(grown, *s)
			*s = grown
		}
	}
}

// Observe is the RoundObserver: pass it as Config.Observer when
// constructing the process the collector is paired with. Begin must
// have run for the current trial — RunCollect sequences that; driving
// an attached process with plain Run/RunContext is a misuse that fails
// here with guidance rather than an opaque index panic.
func (c *Collector) Observe(rs RoundStat) {
	if len(c.reached) == 0 {
		panic("process: Collector.Observe before Begin — drive collected runs with RunCollect, or call Begin(p.ReachedCount()) after every Reset")
	}
	c.reached = append(c.reached, rs.Reached)
	c.active = append(c.active, rs.Active)
	c.transmissions += rs.Transmissions
	if rs.Active > c.peakActive {
		c.peakActive = rs.Active
	}
	if c.halfRound < 0 && 2*rs.Reached >= c.graphN {
		c.halfRound = rs.Round
	}
}

// Rounds returns the number of observed rounds this trial.
func (c *Collector) Rounds() int { return len(c.reached) - 1 }

// Transmissions returns the total messages observed this trial.
func (c *Collector) Transmissions() int64 { return c.transmissions }

// PeakActive returns the largest driving-set size seen this trial — the
// peak COBRA frontier |C_t|, peak |A_t| for bips — including the start
// state.
func (c *Collector) PeakActive() int { return c.peakActive }

// HalfCoverageRound returns the first round t with 2·reached(t) >= n (0
// when the start set already covers half), or -1 if the trial never got
// there. Completed runs always have a half-coverage round.
func (c *Collector) HalfCoverageRound() int { return c.halfRound }

// Reached returns the per-round reached series: Reached()[t] is the
// reached count after round t, [0] the start state. The slice is reused
// by the next Begin; copy it to keep it.
func (c *Collector) Reached() []int { return c.reached }

// Active returns the per-round driving-set series: |C_t| for cobra,
// |A_t| for bips, the informed count for push/push-pull/flood, the
// walker count for kwalk. Index 0 is the start state (recorded as the
// start-set size). The slice is reused by the next Begin.
func (c *Collector) Active() []int { return c.active }

// RunCollect drives p through one full collected run: Reset, Begin the
// collector with the post-Reset reached count, then step until Done,
// the round cap, or — with a non-nil ctx — cancellation, exactly like
// RunContext. The collector must have been attached as p's observer
// (Config.Observer = c.Observe) for the series to fill; RunCollect
// cannot verify that, it only sequences Reset and Begin correctly.
func RunCollect(ctx context.Context, p Process, c *Collector, r *rng.Rand, maxRounds int, starts ...int32) (Result, error) {
	if c == nil {
		return Result{}, errors.New("process: RunCollect needs a collector")
	}
	if err := p.Reset(starts...); err != nil {
		return Result{}, err
	}
	c.Begin(p.ReachedCount())
	return drive(ctx, p, r, maxRounds)
}
