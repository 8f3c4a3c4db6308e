package stats

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestTrajectoryRoundAxis(t *testing.T) {
	// The exact prefix samples every round including the start state.
	for k := 0; k <= TrajectoryBaseRounds; k++ {
		if got := TrajectoryRound(k); got != k {
			t.Fatalf("TrajectoryRound(%d) = %d, want %d", k, got, k)
		}
	}
	// Beyond the prefix the axis is strictly increasing.
	prev := TrajectoryBaseRounds
	for k := TrajectoryBaseRounds + 1; k < TrajectoryMaxColumns; k++ {
		r := TrajectoryRound(k)
		if r <= prev {
			t.Fatalf("axis not strictly increasing: round(%d) = %d, round(%d) = %d", k-1, prev, k, r)
		}
		prev = r
	}
	// The last sample round comfortably exceeds every engine round cap.
	if last := TrajectoryRound(TrajectoryMaxColumns - 1); last < 1<<24 {
		t.Fatalf("last sample round %d too small to cover long runs", last)
	}
	if TrajectoryRound(-1) != -1 || TrajectoryRound(TrajectoryMaxColumns) != -1 {
		t.Fatal("out-of-range columns should return -1")
	}
}

func TestTrajectoryDigestKnown(t *testing.T) {
	d := NewTrajectoryDigest()
	// Three trials of different lengths; values chosen so per-column
	// means are exact.
	d.AddTrial([]int{1, 2, 4})    // rounds 0..2
	d.AddTrial([]int{1, 4, 8, 8}) // rounds 0..3
	d.AddTrial([]int{1, 6})       // rounds 0..1
	if d.N() != 3 {
		t.Fatalf("N = %d, want 3", d.N())
	}
	if d.Columns() != 4 {
		t.Fatalf("Columns = %d, want 4 (longest trial ran 3 rounds)", d.Columns())
	}
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Rounds, []int{0, 1, 2, 3}) {
		t.Fatalf("Rounds = %v", s.Rounds)
	}
	if !reflect.DeepEqual(s.N, []int{3, 3, 2, 1}) {
		t.Fatalf("N = %v, want survivors [3 3 2 1]", s.N)
	}
	wantMean := []float64{1, 4, 6, 8}
	for k := range wantMean {
		if math.Abs(s.Mean[k]-wantMean[k]) > 1e-12 {
			t.Fatalf("Mean[%d] = %v, want %v", k, s.Mean[k], wantMean[k])
		}
	}
	// Sketch quantiles are within the default 1% relative accuracy.
	if math.Abs(s.P50[1]-4) > 4*2*DefaultSketchAlpha {
		t.Fatalf("P50[1] = %v, want ≈ 4", s.P50[1])
	}
	if s.P10[1] > s.P50[1] || s.P50[1] > s.P90[1] {
		t.Fatalf("quantile band not ordered at column 1: %v %v %v", s.P10[1], s.P50[1], s.P90[1])
	}
}

// TestTrajectoryShardedMerge pins the determinism contract the sim layer
// relies on: trials partitioned into fixed shards and merged in
// ascending shard order reproduce byte-identically run after run, the
// quantile band is exactly the sequential one (sketch bucket counts are
// additive integers), and the means agree to floating-point tolerance.
func TestTrajectoryShardedMerge(t *testing.T) {
	trials := make([][]int, 40)
	for i := range trials {
		length := 3 + (i*7)%90
		s := make([]int, length+1)
		for r := range s {
			v := 1 + r*(i%5+1)
			if v > 100 {
				v = 100
			}
			s[r] = v
		}
		trials[i] = s
	}
	seq := NewTrajectoryDigest()
	for _, tr := range trials {
		seq.AddTrial(tr)
	}

	// shardFold mimics sim.ReduceWithState: contiguous trial blocks per
	// shard, merged in ascending shard order.
	shardFold := func(shards int) *TrajectoryDigest {
		per := (len(trials) + shards - 1) / shards
		total := NewTrajectoryDigest()
		for s := 0; s < shards; s++ {
			d := NewTrajectoryDigest()
			for i := s * per; i < (s+1)*per && i < len(trials); i++ {
				d.AddTrial(trials[i])
			}
			if err := total.Merge(d); err != nil {
				t.Fatal(err)
			}
		}
		return total
	}

	a, err := shardFold(4).Summary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := shardFold(4).Summary()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("identical sharded folds are not byte-identical")
	}

	ref, err := seq.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.N, ref.N) || !reflect.DeepEqual(a.Rounds, ref.Rounds) {
		t.Fatalf("sharded column structure differs: %v vs %v", a.N, ref.N)
	}
	// Sketch merges are exact, so the quantile band is bitwise the
	// sequential one even across groupings.
	if !reflect.DeepEqual(a.P10, ref.P10) || !reflect.DeepEqual(a.P50, ref.P50) || !reflect.DeepEqual(a.P90, ref.P90) {
		t.Fatal("quantile bands differ between sharded and sequential folds")
	}
	for k := range ref.Mean {
		if math.Abs(a.Mean[k]-ref.Mean[k]) > 1e-9*(1+math.Abs(ref.Mean[k])) {
			t.Fatalf("column %d mean drifted: %v vs %v", k, a.Mean[k], ref.Mean[k])
		}
	}
	if err := seq.Merge(nil); err != nil {
		t.Fatal("nil merge should be a no-op")
	}
}

func TestTrajectoryDownsampledColumns(t *testing.T) {
	// A long monotone trial: every sampled column must hold the exact
	// value at its sample round, skipping unsampled rounds.
	series := make([]int, 1001)
	for r := range series {
		series[r] = r
	}
	d := NewTrajectoryDigest()
	d.AddTrial(series)
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range s.Rounds {
		if r > 1000 {
			t.Fatalf("column %d samples round %d beyond the trial", k, r)
		}
		if s.Mean[k] != float64(r) {
			t.Fatalf("column %d (round %d) mean = %v, want %d", k, r, s.Mean[k], r)
		}
	}
	if last := s.Rounds[len(s.Rounds)-1]; last <= TrajectoryBaseRounds {
		t.Fatalf("downsampled region never reached: last sampled round %d", last)
	}
	// Roughly logarithmic: far fewer columns than rounds.
	if len(s.Rounds) > 200 {
		t.Fatalf("%d columns for a 1000-round trial — axis not downsampled", len(s.Rounds))
	}
}

func TestTrajectoryEmpty(t *testing.T) {
	if _, err := NewTrajectoryDigest().Summary(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty summary err = %v, want ErrEmpty", err)
	}
}

// TestDigestSummaryCISmallN is the satellite's table-driven pin: interval
// estimates from serialised summaries refuse N < 2 explicitly rather
// than reporting NaN or zero-width bounds.
func TestDigestSummaryCISmallN(t *testing.T) {
	cases := []struct {
		name    string
		adds    []float64
		wantErr error
	}{
		{"empty", nil, ErrEmpty},
		{"single", []float64{42}, ErrInsufficient},
		{"pair", []float64{1, 3}, nil},
		{"triple", []float64{1, 2, 3}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDigest()
			for _, x := range tc.adds {
				d.Add(x)
			}
			var s DigestSummary
			if len(tc.adds) > 0 {
				var err error
				if s, err = d.Summary(); err != nil {
					t.Fatal(err)
				}
			}
			iv, err := s.CI(0.95)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("CI err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || iv.Lo > iv.Hi {
				t.Fatalf("degenerate interval %+v", iv)
			}
			if iv.Lo == iv.Hi {
				t.Fatalf("zero-width interval %+v for N = %d", iv, s.N)
			}
		})
	}
	// Bad level still rejected for healthy N.
	d := NewDigest()
	d.Add(1)
	d.Add(2)
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CI(1.5); err == nil {
		t.Fatal("level outside (0,1) should fail")
	}
}
