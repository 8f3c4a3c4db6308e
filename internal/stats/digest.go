package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Digest is the summary every ensemble folds into: it takes observations
// one at a time into a Stream (count/mean/variance/min/max, exact) and a
// QuantileSketch (p50/p90/p95/p99 to within the sketch's relative
// accuracy), holding constant memory regardless of how many observations
// it sees. Digests merge associatively, which is what lets the Monte-Carlo
// harness aggregate 10⁵+ trials across a worker pool without ever
// materialising a per-trial slice.
type Digest struct {
	Stream Stream
	Sketch *QuantileSketch
}

// NewDigest returns an empty digest with the default sketch accuracy.
func NewDigest() *Digest {
	return &Digest{Sketch: NewDefaultSketch()}
}

// Add incorporates one observation.
func (d *Digest) Add(x float64) {
	d.Stream.Add(x)
	d.Sketch.Add(x)
}

// Merge combines another digest into this one.
func (d *Digest) Merge(o *Digest) error {
	if o == nil {
		return nil
	}
	d.Stream.Merge(o.Stream)
	return d.Sketch.Merge(o.Sketch)
}

// N returns the number of observations so far.
func (d *Digest) N() int { return d.Stream.N() }

// Quantile returns the q-th quantile estimate, within the sketch's
// relative accuracy and inside [Min, Max] of the observations.
func (d *Digest) Quantile(q float64) (float64, error) {
	qs := [1]float64{q}
	var out [1]float64
	err := d.quantiles(qs[:], out[:])
	return out[0], err
}

// quantiles fills out[i] with the qs[i]-th quantile (qs ascending, in
// [0, 1]) from one walk over the sketch, clamped into the stream's
// [Min, Max]: the sketch answers with a bucket's midpoint, which can lie
// up to α past the observed extremes (an all-949 sample would read a
// median of 944.05), and a quantile outside the sample's range reads as
// a bug. It is the one quantile path of Digest and TrajectoryDigest. On
// error the outputs are NaN.
func (d *Digest) quantiles(qs, out []float64) error {
	if err := d.Sketch.Quantiles(qs, out); err != nil {
		for i := range out {
			out[i] = math.NaN()
		}
		return err
	}
	lo, hi := d.Stream.Min(), d.Stream.Max()
	for i, x := range out {
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		out[i] = x
	}
	return nil
}

// DigestSummary is the machine-readable snapshot of a Digest, shaped for
// the -json output of the simulation commands. Quantiles carry the
// sketch's relative accuracy; everything else is exact.
type DigestSummary struct {
	N        int     `json:"n"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	Std      float64 `json:"std"`
	SE       float64 `json:"se"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
}

// Summary snapshots the digest. It returns ErrEmpty when no observations
// have been added.
func (d *Digest) Summary() (DigestSummary, error) {
	if d.Stream.N() == 0 {
		return DigestSummary{}, ErrEmpty
	}
	qs := [4]float64{0.50, 0.90, 0.95, 0.99}
	var p [4]float64
	d.quantiles(qs[:], p[:])
	return DigestSummary{
		N:        d.Stream.N(),
		Mean:     d.Stream.Mean(),
		Variance: d.Stream.Variance(),
		Std:      d.Stream.Std(),
		SE:       d.Stream.SE(),
		Min:      d.Stream.Min(),
		Max:      d.Stream.Max(),
		P50:      p[0],
		P90:      p[1],
		P95:      p[2],
		P99:      p[3],
	}, nil
}

// CI returns the normal-approximation confidence interval for the mean
// at the given level (e.g. 0.95), mean ± z·SE. It is the one interval
// the stats layer builds: the simulators take it from a live Digest's
// Summary, and consumers that only hold the serialised summary (sweep
// records) get the same bounds. A single observation has no standard
// error, so N < 2 returns ErrInsufficient (ErrEmpty for N == 0) instead
// of degenerate bounds.
func (s DigestSummary) CI(level float64) (Interval, error) {
	if s.N == 0 {
		return Interval{}, ErrEmpty
	}
	if s.N < 2 {
		return Interval{}, ErrInsufficient
	}
	if level <= 0 || level >= 1 {
		return Interval{}, errBadLevel(level)
	}
	h := zQuantile(level) * s.SE
	return Interval{Point: s.Mean, Lo: s.Mean - h, Hi: s.Mean + h, Level: level}, nil
}

func (s DigestSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g sd=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.SE, s.Std, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// MarshalJSON renders non-finite fields as null so the output stays valid
// JSON even for degenerate samples (encoding/json rejects NaN and ±Inf).
// Dispersion fields of an N < 2 ensemble are null too: a single
// observation has no variance, standard deviation or standard error, and
// serialising them as zeros reads as "perfectly concentrated" — the
// NDJSON mirror of the summary table's blank ±95% column (and of CI
// returning ErrInsufficient).
func (s DigestSummary) MarshalJSON() ([]byte, error) {
	variance, std, se := finiteOrNil(s.Variance), finiteOrNil(s.Std), finiteOrNil(s.SE)
	if s.N < 2 {
		variance, std, se = nil, nil, nil
	}
	return json.Marshal(map[string]any{
		"n":        s.N,
		"mean":     finiteOrNil(s.Mean),
		"variance": variance,
		"std":      std,
		"se":       se,
		"min":      finiteOrNil(s.Min),
		"max":      finiteOrNil(s.Max),
		"p50":      finiteOrNil(s.P50),
		"p90":      finiteOrNil(s.P90),
		"p95":      finiteOrNil(s.P95),
		"p99":      finiteOrNil(s.P99),
	})
}

func finiteOrNil(x float64) any {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return nil
	}
	return x
}
