// Package stats provides the statistical machinery the experiment harness
// reports with:
//
//   - streaming summaries: Stream (count/mean/variance/min/max via
//     Welford's online algorithm), QuantileSketch (mergeable log-bucket
//     quantiles with bounded relative error), Histogram (fixed-bin,
//     mergeable), Digest (a Stream plus a sketch) and TrajectoryDigest
//     (one Digest per sampled round) — constant-memory accumulators that
//     merge associatively, which is what sim.ReduceWithState folds trial
//     results into so ensembles of 10⁵+ trials never materialise a
//     per-trial slice. DigestSummary is a Digest's snapshot, and its CI
//     is the one normal-approximation interval;
//   - Gini and the least-squares fits for the scaling laws the paper
//     predicts (cover time ∝ log n, cover time ∝ (1-λ)^{-c}), which take a
//     materialised []float64.
//
// Exact references (sorted samples, two-pass moments, interpolated
// quantiles) live in the test files that check these accumulators
// against them.
package stats

import (
	"errors"
	"fmt"
	"sort"
)

// ErrEmpty is returned when an operation requires at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrInsufficient is returned when an operation requires at least two
// samples — a one-trial ensemble has no standard error, so interval
// estimates refuse loudly instead of reporting NaN or zero-width bounds.
var ErrInsufficient = errors.New("stats: need at least 2 observations")

// Gini returns the Gini coefficient of a non-negative sample: 0 for
// perfectly equal values, approaching 1 as a single element dominates.
// Used by the load-balance experiments to summarise per-vertex inequality.
func Gini(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0, fmt.Errorf("stats: Gini needs non-negative data, got %v", sorted[0])
	}
	n := float64(len(sorted))
	var cum, total float64
	for i, x := range sorted {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0, nil // all-zero sample: perfectly equal
	}
	return (2*cum)/(n*total) - (n+1)/n, nil
}
