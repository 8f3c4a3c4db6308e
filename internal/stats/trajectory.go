package stats

import (
	"fmt"
	"math"
	"sort"
)

// TrajectoryDigest aggregates per-round trajectories (|A_t| curves,
// cumulative coverage counts) across a Monte-Carlo ensemble: column k
// holds a Digest of the trajectory value at sample round TrajectoryRound(k),
// so quantile bands (p10/p50/p90 per round) come out in constant memory
// per column no matter how many trials stream through.
//
// The round axis is downsampled geometrically: every round up to
// TrajectoryBaseRounds is sampled exactly, and beyond that sample rounds
// grow by a factor of TrajectoryGrowth per column, capped at
// TrajectoryMaxColumns columns. The axis is a fixed function of the
// column index — never of the data — so a trial contributes to exactly
// the columns its length reaches, wherever and whenever it is folded.
// Column sketch merges are exact (bucket counts are additive integers)
// and column moment merges follow the same fixed-shard-order contract as
// the rest of the stats layer, which keeps ensembles byte-identical
// across worker counts when folded through sim.ReduceWithState.
//
// The zero value is not usable; construct with NewTrajectoryDigest.
type TrajectoryDigest struct {
	cols []*Digest
	// spareD/spareS hold pre-allocated column storage: grow carves new
	// columns out of these slabs and refills them with geometrically
	// growing chunks, so extending the column set one round at a time (a
	// trial slightly longer than every previous one — the common case)
	// costs amortised O(1) allocations instead of a slab pair per call.
	spareD []Digest
	spareS []QuantileSketch
}

const (
	// TrajectoryBaseRounds is the exactly-sampled prefix of the round
	// axis: columns 0..TrajectoryBaseRounds sample rounds 0, 1, ...,
	// TrajectoryBaseRounds (round 0 is the pre-step start state).
	TrajectoryBaseRounds = 64
	// TrajectoryGrowth is the geometric spacing of sample rounds past the
	// base prefix — about 14 samples per doubling of the round index.
	TrajectoryGrowth = 1.05
	// TrajectoryMaxColumns caps the column count; rounds past the last
	// sample round (≈ 10⁹ at the default base and growth, far beyond any
	// round cap the engine accepts) are not sampled.
	TrajectoryMaxColumns = 384
)

// trajectoryRounds is the precomputed sample-round axis — a fixed
// function of the constants above, tabulated once so the hot fold path
// does table lookups and a binary search instead of math.Pow per column.
var trajectoryRounds = func() [TrajectoryMaxColumns]int {
	var r [TrajectoryMaxColumns]int
	for k := range r {
		if k <= TrajectoryBaseRounds {
			r[k] = k
		} else {
			r[k] = int(math.Ceil(TrajectoryBaseRounds * math.Pow(TrajectoryGrowth, float64(k-TrajectoryBaseRounds))))
		}
	}
	return r
}()

// TrajectoryRound returns the sample round of column k: k itself for
// k <= TrajectoryBaseRounds, then ⌈base·growth^(k-base)⌉, strictly
// increasing. It returns -1 for k outside [0, TrajectoryMaxColumns).
func TrajectoryRound(k int) int {
	if k < 0 || k >= TrajectoryMaxColumns {
		return -1
	}
	return trajectoryRounds[k]
}

// trajectoryColumnsFor returns the number of columns a series of the
// given length populates: the count of sample rounds < seriesLen.
func trajectoryColumnsFor(seriesLen int) int {
	return sort.SearchInts(trajectoryRounds[:], seriesLen)
}

// NewTrajectoryDigest returns an empty trajectory digest.
func NewTrajectoryDigest() *TrajectoryDigest {
	return &TrajectoryDigest{}
}

// AddTrial folds one trial's trajectory: series[t] is the value after
// round t, with series[0] the start state. The trial contributes one
// observation to every column whose sample round the series reaches;
// trials of different lengths therefore populate different column
// prefixes, and each column's N counts the trials that ran at least that
// long.
func (t *TrajectoryDigest) AddTrial(series []int) {
	need := trajectoryColumnsFor(len(series))
	t.grow(need)
	for k := 0; k < need; k++ {
		t.cols[k].Add(float64(series[trajectoryRounds[k]]))
	}
}

// grow extends the column set to at least need columns, drawing storage
// from the spare slabs.
func (t *TrajectoryDigest) grow(need int) {
	for len(t.cols) < need {
		if len(t.spareD) == 0 {
			// One slab pair covers the whole request plus a small reserve:
			// the geometric round axis keeps later extensions to a column
			// or two, so a fixed reserve beats doubling here (columns are
			// ~140 B each — over-reserving across hundreds of per-worker
			// digests costs real memory).
			chunk := max(need-len(t.cols), 8)
			if room := TrajectoryMaxColumns - len(t.cols); chunk > room {
				chunk = room
			}
			t.spareD = make([]Digest, chunk)
			t.spareS = make([]QuantileSketch, chunk)
		}
		d, s := &t.spareD[0], &t.spareS[0]
		t.spareD, t.spareS = t.spareD[1:], t.spareS[1:]
		s.init(DefaultSketchAlpha)
		d.Sketch = s
		t.cols = append(t.cols, d)
	}
}

// Columns returns the number of populated columns.
func (t *TrajectoryDigest) Columns() int { return len(t.cols) }

// N returns the number of trials folded so far (the N of column 0; every
// trial has a start state, so every trial reaches column 0).
func (t *TrajectoryDigest) N() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].N()
}

// Merge combines another trajectory digest into this one, column by
// column. Merging is associative and column counts need not match: the
// result has the longer column set.
func (t *TrajectoryDigest) Merge(o *TrajectoryDigest) error {
	if o == nil {
		return nil
	}
	t.grow(len(o.cols))
	for k, col := range o.cols {
		if err := t.cols[k].Merge(col); err != nil {
			return fmt.Errorf("stats: merging trajectory column %d: %w", k, err)
		}
	}
	return nil
}

// TrajectorySummary is the machine-readable snapshot of a
// TrajectoryDigest: parallel per-column arrays of the sample round, the
// surviving-trial count and the mean and p10/p50/p90 quantile band. It is
// the trajectory block of sweep records and the payload of the daemon's
// /v1/jobs/{id}/trajectories stream.
type TrajectorySummary struct {
	// Rounds[k] is the sample round of column k.
	Rounds []int `json:"rounds"`
	// N[k] counts the trials whose run reached round Rounds[k].
	N []int `json:"n"`
	// Mean and the quantiles describe the trajectory value distribution
	// at each sample round, over the N[k] surviving trials.
	Mean []float64 `json:"mean"`
	P10  []float64 `json:"p10"`
	P50  []float64 `json:"p50"`
	P90  []float64 `json:"p90"`
}

// Summary snapshots the digest. It returns ErrEmpty when no trials have
// been folded.
func (t *TrajectoryDigest) Summary() (TrajectorySummary, error) {
	if len(t.cols) == 0 {
		return TrajectorySummary{}, ErrEmpty
	}
	s := TrajectorySummary{
		Rounds: make([]int, len(t.cols)),
		N:      make([]int, len(t.cols)),
		Mean:   make([]float64, len(t.cols)),
		P10:    make([]float64, len(t.cols)),
		P50:    make([]float64, len(t.cols)),
		P90:    make([]float64, len(t.cols)),
	}
	qs := [3]float64{0.10, 0.50, 0.90}
	var band [3]float64
	for k, col := range t.cols {
		s.Rounds[k] = TrajectoryRound(k)
		s.N[k] = col.N()
		s.Mean[k] = col.Stream.Mean()
		col.quantiles(qs[:], band[:])
		s.P10[k], s.P50[k], s.P90[k] = band[0], band[1], band[2]
	}
	return s, nil
}
