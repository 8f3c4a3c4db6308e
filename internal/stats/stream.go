package stats

import "math"

// Stream is a constant-memory streaming accumulator for the moments the
// experiment tables report: count, mean, variance (Welford's online
// algorithm, numerically stable for long runs), min and max. The zero
// value is an empty accumulator ready for use. Streams merge
// associatively (Chan et al.'s pairwise update), so a sample can be
// folded shard-by-shard in parallel and combined afterwards; merging in a
// fixed shard order makes the result bit-reproducible regardless of how
// many goroutines did the folding. A Digest's Summary turns a Stream's
// moments into the normal-approximation interval (DigestSummary.CI).
type Stream struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (s *Stream) Add(x float64) {
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge combines another accumulator into this one.
func (s *Stream) Merge(o Stream) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.mean += delta * float64(o.n) / float64(n)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.n = n
}

// N returns the number of observations so far.
func (s Stream) N() int { return s.n }

// Mean returns the running mean (NaN when empty).
func (s Stream) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Variance returns the unbiased sample variance (0 for n <= 1).
func (s Stream) Variance() float64 {
	if s.n <= 1 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s Stream) Std() float64 { return math.Sqrt(s.Variance()) }

// SE returns the standard error of the running mean (NaN when empty).
func (s Stream) SE() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation (NaN when empty).
func (s Stream) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation (NaN when empty).
func (s Stream) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}
