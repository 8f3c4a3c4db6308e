package process

import "fmt"

// Branching describes the branching factor of a process: every active
// (resp. susceptible) vertex contacts K uniformly random neighbours, with
// replacement, plus one more with probability Rho. The paper's main
// theorems use K=2, Rho=0; Theorem 3 and Corollary 1 use K=1, Rho>0 for an
// expected branching factor of 1+Rho. For kwalk, K is the walker count and
// Rho must be zero.
type Branching struct {
	K   int     `json:"k"`
	Rho float64 `json:"rho,omitempty"`
}

// DefaultBranching is the paper's canonical k = 2 branching factor.
var DefaultBranching = Branching{K: 2}

// Expected returns the expected number of contacts per vertex per round,
// K + Rho.
func (b Branching) Expected() float64 { return float64(b.K) + b.Rho }

// Validate checks the branching parameters: K >= 1 and 0 <= Rho < 1, so
// a NaN Rho fails too.
func (b Branching) Validate() error {
	if b.K < 1 {
		return fmt.Errorf("process: branching K = %d, need >= 1", b.K)
	}
	if !(b.Rho >= 0 && b.Rho < 1) {
		return fmt.Errorf("process: branching Rho = %v, need 0 <= Rho < 1", b.Rho)
	}
	return nil
}

func (b Branching) String() string {
	if b.Rho == 0 {
		return fmt.Sprintf("k=%d", b.K)
	}
	return fmt.Sprintf("k=%d+ρ%.2f", b.K, b.Rho)
}
