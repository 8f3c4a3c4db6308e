// Package core holds the paper's mathematics and its estimators: the
// exact subset-space verifier of the COBRA/BIPS duality (Theorem 4) and
// its Monte-Carlo counterpart, the Lemma 1 growth bound and its
// closed-form one-step expectation, the Lemma 2 exponential-moment
// estimator, and the three-phase trajectory analysis of Lemmas 2-4.
//
// The processes themselves live in internal/process: every estimator
// here steps the registry's cobra and bips engines, so the experiments
// measure the same code the sweep engine and the daemon run. The
// reference implementations those engines are pinned against live in
// internal/process/difftest, beside the closed-form BIPS that samples
// the one-step law ExactExpectedGrowth sums (E13 runs it).
package core

import "cobrawalk/internal/process"

// Branching is the process branching factor: K contacts per round plus
// one more with probability Rho (see process.Branching).
type Branching = process.Branching

// DefaultBranching is the paper's canonical k = 2 branching factor.
var DefaultBranching = process.DefaultBranching
