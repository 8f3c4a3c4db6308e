// Package difftest pins the cobra/bips engines of internal/process to
// plain reference implementations.
//
// The registry engines (bitset frontiers over the CSR arrays,
// precomputed bounded samplers, branch-free loops, rounds fanned out
// over the round kernel's worker pool) are performance rewrites of the
// plain stamp-array processes in reference.go, under one hard contract:
// driven from identical RNG streams they must be byte-identical to the
// reference at every kernel worker count — same reached sets, same
// transmission counts, same per-round trajectories across every sweep
// metric. This package holds both halves of that pin: the reference
// engines and the lockstep harness that drives a native and a
// reference engine from cloned generators and diffs everything
// observable after every round. It also holds NewClosedFormBips, which
// samples BIPS from its one-step law rather than its neighbour samples;
// experiment E13 compares it with the registry engine in distribution,
// the only production use of this package.
package difftest

import (
	"errors"
	"fmt"
	"slices"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// Reference returns the reference-implementation factory for a native
// process name, or nil if the name has no reference twin.
func Reference(name string) process.Factory {
	switch name {
	case process.Cobra:
		return NewReferenceCobra
	case process.BIPS:
		return NewReferenceBips
	default:
		return nil
	}
}

// Mismatch describes the first divergence a lockstep run found. The
// zero-value-pointer (nil) means the run was byte-identical.
type Mismatch struct {
	Round int
	Field string
	Want  string // reference engine's value
	Got   string // native engine's value
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("difftest: round %d: %s: native %s != reference %s", m.Round, m.Field, m.Got, m.Want)
}

// pastDone is how many rounds Lockstep keeps stepping after the
// reference reports Done. Callers step engines past completion — the
// duality and Lemma 2 estimators run bips to a fixed horizon after full
// infection — so the post-Done dynamics are pinned too.
const pastDone = 3

// Lockstep drives a native and a reference engine from identically seeded
// generators and compares everything observable after every round: Round,
// Done, ReachedCount, Transmissions, the RoundStat streams delivered to
// the observers, the generators' own states (a consumption skew that
// happens not to change this round's outputs still fails), and the full
// reached sets, through both AppendReached and Reached (a transient
// divergence that later re-coalesces still fails). A run that reaches
// Done continues pastDone more rounds, each compared in full. It returns
// nil when the engines were byte-identical for the whole run, or the
// first divergence.
//
// Both engines are constructed fresh from their factories with cfg, so
// the harness also covers construction-time defaults; callers pin the
// kernel's worker-count invariance by varying cfg.KernelWorkers, which
// the reference ignores. Each engine is driven twice from the same seed
// to pin Reset reusability.
func Lockstep(g *graph.Graph, cfg process.Config, native, reference process.Factory,
	seed uint64, maxRounds int, starts ...int32) error {
	if maxRounds <= 0 {
		maxRounds = process.DefaultMaxRounds
	}

	var natStats, refStats []process.RoundStat
	natCfg, refCfg := cfg, cfg
	natCfg.Observer = func(rs process.RoundStat) { natStats = append(natStats, rs) }
	refCfg.Observer = func(rs process.RoundStat) { refStats = append(refStats, rs) }

	nat, err := native(g, natCfg)
	if err != nil {
		return fmt.Errorf("difftest: constructing native engine: %w", err)
	}
	ref, err := reference(g, refCfg)
	if err != nil {
		return fmt.Errorf("difftest: constructing reference engine: %w", err)
	}

	for rerun := 0; rerun < 2; rerun++ {
		natStats, refStats = natStats[:0], refStats[:0]
		natRNG, refRNG := rng.New(seed), rng.New(seed)
		if err := nat.Reset(starts...); err != nil {
			return fmt.Errorf("difftest: native Reset: %w", err)
		}
		if err := ref.Reset(starts...); err != nil {
			return fmt.Errorf("difftest: reference Reset: %w", err)
		}
		compare := func() error {
			if err := compareRound(nat, ref, natStats, refStats, natRNG, refRNG); err != nil {
				return err
			}
			return compareReached(g.N(), nat, ref)
		}
		if err := compare(); err != nil {
			return err
		}
		for !ref.Done() && ref.Round() < maxRounds {
			nat.Step(natRNG)
			ref.Step(refRNG)
			if err := compare(); err != nil {
				return err
			}
		}
		if !ref.Done() {
			continue // stopped by the round cap
		}
		// Step a fixed count past Done, not while Done: bips may drop out
		// of full infection and back.
		for i := 0; i < pastDone; i++ {
			nat.Step(natRNG)
			ref.Step(refRNG)
			if err := compare(); err != nil {
				return err
			}
		}
	}
	return nil
}

// compareRound diffs every per-round observable of the two engines.
func compareRound(nat, ref process.Process, natStats, refStats []process.RoundStat, natRNG, refRNG *rng.Rand) error {
	round := ref.Round()
	if got, want := nat.Round(), ref.Round(); got != want {
		return &Mismatch{round, "Round", itoa(want), itoa(got)}
	}
	if got, want := nat.Done(), ref.Done(); got != want {
		return &Mismatch{round, "Done", fmt.Sprint(want), fmt.Sprint(got)}
	}
	if got, want := nat.ReachedCount(), ref.ReachedCount(); got != want {
		return &Mismatch{round, "ReachedCount", itoa(want), itoa(got)}
	}
	if got, want := nat.Transmissions(), ref.Transmissions(); got != want {
		return &Mismatch{round, "Transmissions", fmt.Sprint(want), fmt.Sprint(got)}
	}
	if got, want := len(natStats), len(refStats); got != want {
		return &Mismatch{round, "observed rounds", itoa(want), itoa(got)}
	}
	for i := range refStats {
		if natStats[i] != refStats[i] {
			return &Mismatch{round, fmt.Sprintf("RoundStat[%d]", i),
				fmt.Sprintf("%+v", refStats[i]), fmt.Sprintf("%+v", natStats[i])}
		}
	}
	if got, want := natRNG.State(), refRNG.State(); got != want {
		return &Mismatch{round, "generator state",
			fmt.Sprintf("%x", want), fmt.Sprintf("%x", got)}
	}
	return nil
}

// compareReached diffs the engines' full reached sets, and checks each
// engine's Reached membership test against its own AppendReached over all
// n vertices.
func compareReached(n int, nat, ref process.Process) error {
	natR, okN := nat.(process.Reacher)
	refR, okR := ref.(process.Reacher)
	if !okN || !okR {
		return errors.New("difftest: engine does not implement process.Reacher")
	}
	got := natR.AppendReached(nil)
	want := refR.AppendReached(nil)
	if !slices.Equal(got, want) {
		return &Mismatch{ref.Round(), "reached set",
			fmt.Sprintf("%d vertices %v…", len(want), head(want)),
			fmt.Sprintf("%d vertices %v…", len(got), head(got))}
	}
	for _, side := range []struct {
		name string
		r    process.Reacher
	}{{"native", natR}, {"reference", refR}} {
		if err := checkReached(ref.Round(), side.name, n, side.r, want); err != nil {
			return err
		}
	}
	return nil
}

// checkReached compares r.Reached(v) with membership in set (ascending,
// the engines' common AppendReached) for every vertex v < n. The Mismatch
// it reports carries the set membership as Want and Reached(v) as Got.
func checkReached(round int, side string, n int, r process.Reacher, set []int32) error {
	i := 0
	for v := int32(0); int(v) < n; v++ {
		in := i < len(set) && set[i] == v
		if in {
			i++
		}
		if got := r.Reached(v); got != in {
			return &Mismatch{round, fmt.Sprintf("%s Reached(%d) vs AppendReached", side, v),
				fmt.Sprint(in), fmt.Sprint(got)}
		}
	}
	return nil
}

func head(s []int32) []int32 {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

func itoa(v int) string { return fmt.Sprint(v) }
