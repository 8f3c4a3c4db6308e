// Package process is the unified process layer: every spreading process
// the repository can simulate — COBRA, its dual BIPS, and the comparison
// protocols push, push-pull, flood and k independent random walks — is a
// reusable Process object behind one interface, registered by name in a
// central registry (see registry.go).
//
// A Process is constructed once per graph (allocating its frontier and
// membership buffers) and then Reset/Step many times, so ensembles of
// thousands of trials run without per-trial graph-sized allocations. The
// registry is the single source of truth for process names: the sweep
// engine, the CLI tools and the experiment harness all dispatch through
// it, and adding a process requires only a new registry entry.
package process

import (
	"context"
	"errors"
	"fmt"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// Process is one reusable spreading process bound to a fixed graph.
// Construct via a registry Factory (or the concrete constructors), then
// Reset and Step; every buffer is reused across runs, so a warmed Process
// executes whole trials without allocating.
//
// A Process is not safe for concurrent use; run one per goroutine.
type Process interface {
	// Reset prepares a fresh run from the given non-empty start set.
	// For source-based processes (bips) the first start is the source.
	Reset(starts ...int32) error
	// Step advances the process by one synchronous round.
	Step(r *rng.Rand)
	// Done reports whether the process has reached its goal: every
	// vertex informed, visited or infected.
	Done() bool
	// Round returns the number of rounds executed since Reset.
	Round() int
	// ReachedCount returns the number of vertices currently counted as
	// reached (informed/visited for monotone processes, |A_t| for bips).
	ReachedCount() int
	// Transmissions returns the number of messages sent since Reset.
	Transmissions() int64
}

// RoundStat is the per-round observation delivered to a RoundObserver
// after every Step.
type RoundStat struct {
	// Round is the just-completed round index (1 for the first Step).
	Round int
	// Active is the size of the driving set this round: |C_t| for cobra,
	// |A_t| for bips, the informed count for push/push-pull/flood, the
	// walker count for kwalk.
	Active int
	// Reached is the cumulative reached count after the round.
	Reached int
	// Transmissions is the number of messages sent during this round.
	Transmissions int64
}

// RoundObserver receives a RoundStat after every Step. Observers are the
// raw material for trajectory analyses (Lemma 1 growth phases, frontier
// sizes); a nil observer costs nothing.
type RoundObserver func(RoundStat)

// Config parameterises process construction. The zero value is valid for
// every registered process.
type Config struct {
	// Branching configures branched processes: K pushes (cobra), K
	// neighbour samples (bips) or K walkers (kwalk), plus Rho where the
	// process supports fractional branching. The zero value means
	// DefaultBranching (the paper's k = 2). Unbranched processes ignore
	// it.
	Branching Branching
	// FastSampling switches bips to the closed-form Bernoulli sampling
	// path: each candidate u is infected with its exact probability
	// 1-(1-d_A(u)/d(u))^K·(1-Rho·d_A(u)/d(u)) instead of drawing the K
	// individual neighbour samples. The two paths are identical in
	// distribution. Ignored by every other process.
	FastSampling bool
	// Observer, when non-nil, receives a RoundStat after every Step.
	Observer RoundObserver
	// KernelWorkers is the worker count (calling goroutine included) of
	// the round kernel that cobra and bips run on (Info.Kernel). It is a
	// scheduling knob only: per-chunk counter-derived RNG streams make
	// results byte-identical for every value, pinned by the difftest
	// lockstep grid. <= 0 means 1, so callers that already run engines
	// on a trial worker pool never oversubscribe the machine by default.
	// Non-kernel processes ignore it.
	KernelWorkers int
}

// branching resolves the configured branching factor, defaulting the
// zero value to the paper's k = 2.
func (c Config) branching() Branching {
	if c.Branching == (Branching{}) {
		return DefaultBranching
	}
	return c.Branching
}

// DefaultMaxRounds caps driven runs that pass maxRounds <= 0 to Run.
const DefaultMaxRounds = 1 << 20

// Result reports one driven run (see Run).
type Result struct {
	// Rounds is the number of rounds executed; when Done it is the
	// completion round.
	Rounds int
	// Done reports whether the process reached its goal within the cap.
	Done bool
	// Transmissions counts every message sent.
	Transmissions int64
}

// Run drives p through one full run: it resets the process with the
// given start set and steps until the process is Done or maxRounds is
// reached (maxRounds <= 0 means DefaultMaxRounds). The process remains
// usable for further runs.
func Run(p Process, r *rng.Rand, maxRounds int, starts ...int32) (Result, error) {
	if err := p.Reset(starts...); err != nil {
		return Result{}, err
	}
	return drive(nil, p, r, maxRounds)
}

// drive steps an already-Reset process to completion (or the round cap,
// or — with a non-nil ctx — a cancellation noticed within
// cancelCheckInterval rounds). It is the one stepping loop behind Run,
// RunContext and RunCollect.
func drive(ctx context.Context, p Process, r *rng.Rand, maxRounds int) (Result, error) {
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	for !p.Done() && p.Round() < maxRounds {
		if ctx != nil && p.Round()%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return Result{Rounds: p.Round(), Done: false, Transmissions: p.Transmissions()}, err
			}
		}
		p.Step(r)
	}
	return Result{Rounds: p.Round(), Done: p.Done(), Transmissions: p.Transmissions()}, nil
}

// cancelCheckInterval bounds how many rounds a driven run executes
// between context checks in RunContext: slow single trials (a lone
// random walk on a large cycle runs Θ(n²) cheap rounds) notice a
// cancellation within this many rounds, while the per-round overhead of
// ctx.Err() stays off the fast path.
const cancelCheckInterval = 64

// RunContext is Run with prompt cancellation: it checks ctx every
// cancelCheckInterval rounds and aborts the run with ctx.Err() mid-trial
// instead of running to completion. A nil ctx behaves like Run. The
// returned Result reflects the partial run when the error is non-nil;
// the process remains usable (Reset discards the partial state).
func RunContext(ctx context.Context, p Process, r *rng.Rand, maxRounds int, starts ...int32) (Result, error) {
	if err := p.Reset(starts...); err != nil {
		return Result{}, err
	}
	return drive(ctx, p, r, maxRounds)
}

// checkGraph validates a graph at construction time: processes are
// undefined on empty graphs and graphs with isolated vertices.
func checkGraph(g *graph.Graph) error {
	if g == nil || g.N() == 0 {
		return errors.New("process: empty graph")
	}
	if g.MinDegree() == 0 {
		return errors.New("process: graph has an isolated vertex")
	}
	return nil
}

// checkStarts validates a Reset start set.
func checkStarts(g *graph.Graph, starts []int32) error {
	return checkStartsN(g.N(), starts)
}

// checkStartsN is checkStarts for engines that hold only the vertex count.
func checkStartsN(n int, starts []int32) error {
	if len(starts) == 0 {
		return errors.New("process: empty start set")
	}
	for _, s := range starts {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("process: start vertex %d out of range [0,%d)", s, n)
		}
	}
	return nil
}

// Reacher is the optional Process extension for engines that expose their
// reached set: cobra, bips and the difftest reference engines implement
// it. The differential test harness diffs reached sets through it, and
// the duality estimator reads single-vertex membership.
type Reacher interface {
	// AppendReached appends the reached vertices to dst in ascending id
	// order and returns the extended slice.
	AppendReached(dst []int32) []int32
	// Reached reports whether v is currently reached: visited for
	// cobra, v ∈ A_t for bips.
	Reached(v int32) bool
}

// Pusher is the optional Process extension for engines whose rounds are
// pushes from an active set: cobra implements it. E14 counts per-vertex
// send and receive loads through it.
type Pusher interface {
	// AppendActive appends C_t, the vertices that push at the next Step,
	// and returns the extended slice.
	AppendActive(dst []int32) []int32
	// AppendPushes appends the last Step's push targets in draw order,
	// repeats included, and returns the extended slice. After Reset it
	// appends nothing.
	AppendPushes(dst []int32) []int32
}

// stampSet is an O(1)-clear membership set over vertex ids: v is a
// member iff stamp[v] == epoch, so clear is an epoch bump and only the
// (rare) wrap-around pays an O(n) flush. This is the buffer-reuse
// pattern that keeps Reset allocation-free.
type stampSet struct {
	stamp []uint32
	epoch uint32
}

func newStampSet(n int) stampSet {
	return stampSet{stamp: make([]uint32, n), epoch: 1}
}

func (s *stampSet) clear() {
	s.epoch++
	if s.epoch == 0 { // wrap-around: flush stale stamps
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

func (s *stampSet) has(v int32) bool { return s.stamp[v] == s.epoch }

// add inserts v and reports whether it was absent.
func (s *stampSet) add(v int32) bool {
	if s.stamp[v] == s.epoch {
		return false
	}
	s.stamp[v] = s.epoch
	return true
}
