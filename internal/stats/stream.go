package stats

import "math"

// Stream is a constant-memory streaming accumulator for the moments the
// experiment tables report: count, mean, variance (Welford), min and max.
// The zero value is an empty accumulator ready for use. Streams merge
// associatively, so a sample can be folded shard-by-shard in parallel and
// combined afterwards; merging in a fixed shard order makes the result
// bit-reproducible regardless of how many goroutines did the folding.
type Stream struct {
	w        Welford
	min, max float64
}

// Add incorporates one observation.
func (s *Stream) Add(x float64) {
	if s.w.N() == 0 || x < s.min {
		s.min = x
	}
	if s.w.N() == 0 || x > s.max {
		s.max = x
	}
	s.w.Add(x)
}

// Merge combines another accumulator into this one.
func (s *Stream) Merge(o Stream) {
	if o.w.N() == 0 {
		return
	}
	if s.w.N() == 0 {
		*s = o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.w.Merge(o.w)
}

// N returns the number of observations so far.
func (s Stream) N() int { return s.w.N() }

// Mean returns the running mean (NaN when empty).
func (s Stream) Mean() float64 { return s.w.Mean() }

// Variance returns the unbiased sample variance (0 for n <= 1).
func (s Stream) Variance() float64 { return s.w.Variance() }

// Std returns the sample standard deviation.
func (s Stream) Std() float64 { return s.w.Std() }

// SE returns the standard error of the running mean.
func (s Stream) SE() float64 { return s.w.SE() }

// Min returns the smallest observation (NaN when empty).
func (s Stream) Min() float64 {
	if s.w.N() == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation (NaN when empty).
func (s Stream) Max() float64 {
	if s.w.N() == 0 {
		return math.NaN()
	}
	return s.max
}

// CI returns the normal-approximation confidence interval for the running
// mean at the given level (e.g. 0.95) — the streaming counterpart of
// NormalCI. A single observation has no standard error, so N < 2
// returns ErrInsufficient (ErrEmpty for N == 0) instead of a zero-width
// interval, as DigestSummary.CI does.
func (s Stream) CI(level float64) (Interval, error) {
	if s.w.N() == 0 {
		return Interval{}, ErrEmpty
	}
	if s.w.N() < 2 {
		return Interval{}, ErrInsufficient
	}
	if level <= 0 || level >= 1 {
		return Interval{}, errBadLevel(level)
	}
	h := zQuantile(level) * s.SE()
	m := s.Mean()
	return Interval{Point: m, Lo: m - h, Hi: m + h, Level: level}, nil
}
