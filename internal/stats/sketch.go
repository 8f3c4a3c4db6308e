package stats

import (
	"fmt"
	"math"
	"sort"
)

// QuantileSketch estimates quantiles of a stream in constant memory using
// logarithmically-spaced buckets (the DDSketch construction of Masson,
// Rim & Lee, VLDB 2019): a value x > 0 lands in bucket ⌈log_γ(x)⌉ with
// γ = (1+α)/(1-α), which guarantees every reported quantile is within
// relative error α of an exact sample quantile. Zero and negative values
// get their own buckets (negatives mirror the positive layout), so the
// sketch accepts arbitrary float64 observations.
//
// Bucket counts are additive, so merging two sketches is exact — a merged
// sketch is indistinguishable from one that saw both streams — and the
// result is independent of merge order. Memory is O(distinct buckets):
// for α = 0.01 a stream spanning [1, 10⁹] touches ~1000 buckets.
//
// The zero value is not usable; construct with NewQuantileSketch.
type QuantileSketch struct {
	alpha  float64
	gamma  float64 // (1+α)/(1-α)
	lnG    float64 // ln γ
	pos    map[int]int64
	neg    map[int]int64
	zeros  int64
	posInf int64
	negInf int64
	total  int64
}

// DefaultSketchAlpha is the relative accuracy used by NewDefaultSketch:
// quantiles are reported to within 1%.
const DefaultSketchAlpha = 0.01

// NewQuantileSketch returns an empty sketch with relative accuracy alpha
// (0 < alpha < 1).
func NewQuantileSketch(alpha float64) (*QuantileSketch, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("stats: sketch accuracy %v outside (0,1)", alpha)
	}
	s := new(QuantileSketch)
	s.init(alpha)
	return s, nil
}

// init prepares a zero sketch in place with the given (already validated)
// accuracy. The bucket maps stay nil until first use — a trajectory
// ensemble batch-allocates hundreds of column sketches, most of which see
// only a handful of distinct buckets, so eager maps were pure overhead.
func (s *QuantileSketch) init(alpha float64) {
	g := (1 + alpha) / (1 - alpha)
	s.alpha = alpha
	s.gamma = g
	s.lnG = math.Log(g)
}

// posMap and negMap create their bucket map on first use, without a size
// hint: hintless small maps stay on the runtime's cheap single-group path
// until they actually grow, where a larger hint pays three allocations up
// front for every sketch that might never see that side of zero.

func (s *QuantileSketch) posMap() map[int]int64 {
	if s.pos == nil {
		s.pos = make(map[int]int64)
	}
	return s.pos
}

func (s *QuantileSketch) negMap() map[int]int64 {
	if s.neg == nil {
		s.neg = make(map[int]int64)
	}
	return s.neg
}

// NewDefaultSketch returns an empty sketch with DefaultSketchAlpha
// accuracy.
func NewDefaultSketch() *QuantileSketch {
	s, err := NewQuantileSketch(DefaultSketchAlpha)
	if err != nil {
		panic(err) // unreachable: constant accuracy is valid
	}
	return s
}

// bucket maps a positive value to its bucket index ⌈log_γ(x)⌉.
func (s *QuantileSketch) bucket(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lnG))
}

// Add incorporates one observation. NaN is ignored; ±Inf get dedicated
// end buckets (int(log(±Inf)) would otherwise be implementation-defined).
func (s *QuantileSketch) Add(x float64) {
	switch {
	case math.IsNaN(x):
		return
	case math.IsInf(x, 1):
		s.posInf++
	case math.IsInf(x, -1):
		s.negInf++
	case x > 0:
		s.posMap()[s.bucket(x)]++
	case x < 0:
		s.negMap()[s.bucket(-x)]++
	default:
		s.zeros++
	}
	s.total++
}

// N returns the number of recorded observations.
func (s *QuantileSketch) N() int64 { return s.total }

// Alpha returns the relative accuracy the sketch was built with.
func (s *QuantileSketch) Alpha() float64 { return s.alpha }

// Merge combines another sketch into this one. The two sketches must have
// been built with the same accuracy.
func (s *QuantileSketch) Merge(o *QuantileSketch) error {
	if o == nil || o.total == 0 {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("stats: merging sketches with accuracies %v and %v", s.alpha, o.alpha)
	}
	if len(o.pos) > 0 {
		dst := s.posMap()
		for b, c := range o.pos {
			dst[b] += c
		}
	}
	if len(o.neg) > 0 {
		dst := s.negMap()
		for b, c := range o.neg {
			dst[b] += c
		}
	}
	s.zeros += o.zeros
	s.posInf += o.posInf
	s.negInf += o.negInf
	s.total += o.total
	return nil
}

// value returns the representative value of positive bucket b: the
// γ-geometric midpoint 2γ^b/(γ+1), which is within α of every value the
// bucket can hold.
func (s *QuantileSketch) value(b int) float64 {
	return 2 * math.Pow(s.gamma, float64(b)) / (s.gamma + 1)
}

// Quantile returns the q-th quantile (0 <= q <= 1) with relative error at
// most Alpha. It returns ErrEmpty for an empty sketch.
func (s *QuantileSketch) Quantile(q float64) (float64, error) {
	var (
		qs  = [1]float64{q}
		out [1]float64
	)
	if err := s.Quantiles(qs[:], out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}

// Quantiles fills out[i] with the qs[i]-th quantile for every requested
// quantile in one walk over the buckets — each out[i] is exactly what
// Quantile(qs[i]) returns, at a fraction of the cost when several
// quantiles are wanted from the same sketch (summary rows, trajectory
// bands). qs must be sorted ascending, with every entry in [0, 1], and
// out must have the same length. It returns ErrEmpty for an empty sketch.
func (s *QuantileSketch) Quantiles(qs []float64, out []float64) error {
	if len(out) != len(qs) {
		return fmt.Errorf("stats: Quantiles got %d outputs for %d quantiles", len(out), len(qs))
	}
	if s.total == 0 {
		return ErrEmpty
	}
	var ranksBuf [8]int64
	ranks := ranksBuf[:0]
	if len(qs) > len(ranksBuf) {
		ranks = make([]int64, 0, len(qs))
	}
	for i, q := range qs {
		if q < 0 || q > 1 {
			return fmt.Errorf("stats: quantile %v outside [0,1]", q)
		}
		if i > 0 && q < qs[i-1] {
			return fmt.Errorf("stats: Quantiles wants ascending quantiles, got %v after %v", q, qs[i-1])
		}
		// Rank of the q-th order statistic among total observations.
		rank := int64(math.Ceil(q * float64(s.total)))
		if rank < 1 {
			rank = 1
		}
		ranks = append(ranks, rank)
	}
	s.quantileWalk(ranks, out)
	return nil
}

// quantileWalk resolves ascending ranks against the bucket cumulative
// distribution in one pass, in ascending value order: -Inf, negatives
// (descending index), zeros, positives (ascending index), +Inf.
func (s *QuantileSketch) quantileWalk(ranks []int64, out []float64) {
	i := 0
	cum := s.negInf
	for i < len(ranks) && cum >= ranks[i] {
		out[i] = math.Inf(-1)
		i++
	}
	for _, b := range sortedKeys(s.neg, true) {
		if i == len(ranks) {
			return
		}
		cum += s.neg[b]
		for i < len(ranks) && cum >= ranks[i] {
			out[i] = -s.value(b)
			i++
		}
	}
	cum += s.zeros
	for i < len(ranks) && cum >= ranks[i] {
		out[i] = 0
		i++
	}
	posKeys := sortedKeys(s.pos, false)
	for _, b := range posKeys {
		if i == len(ranks) {
			return
		}
		cum += s.pos[b]
		for i < len(ranks) && cum >= ranks[i] {
			out[i] = s.value(b)
			i++
		}
	}
	if i == len(ranks) {
		return
	}
	// Ranks past the whole distribution: +Inf when the stream held any,
	// else (rounding pathologies only) the largest finite bucket.
	tail := math.Inf(-1)
	switch {
	case s.posInf > 0:
		tail = math.Inf(1)
	case len(posKeys) > 0:
		tail = s.value(posKeys[len(posKeys)-1])
	case s.zeros > 0:
		tail = 0
	default:
		if keys := sortedKeys(s.neg, false); len(keys) > 0 {
			tail = -s.value(keys[len(keys)-1])
		}
	}
	for ; i < len(ranks); i++ {
		out[i] = tail
	}
}

// FixedHistogram redistributes the sketch's buckets into a fixed-bin
// Histogram over [lo, hi) for display; each sketch bucket contributes its
// full count at its representative value, so the histogram total equals
// N. Accuracy is the sketch's α, ample for ASCII rendering.
func (s *QuantileSketch) FixedHistogram(lo, hi float64, bins int) (*Histogram, error) {
	h, err := NewHistogram(lo, hi, bins)
	if err != nil {
		return nil, err
	}
	h.AddN(lo, s.negInf) // infinities clamp into the edge bins
	for _, b := range sortedKeys(s.neg, true) {
		h.AddN(-s.value(b), s.neg[b])
	}
	h.AddN(0, s.zeros)
	for _, b := range sortedKeys(s.pos, false) {
		h.AddN(s.value(b), s.pos[b])
	}
	h.AddN(hi, s.posInf)
	return h, nil
}

// sortedKeys returns the map's keys ascending, or descending when rev.
func sortedKeys(m map[int]int64, rev bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if rev {
		for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	return keys
}
