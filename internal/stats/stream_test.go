package stats

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"cobrawalk/internal/rng"
)

func randomSample(n int, seed uint64) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		// Long-tailed positives, like cover times.
		xs[i] = math.Exp(3*r.Float64()) * (1 + 50*r.Float64())
	}
	return xs
}

// exact is the reference the streaming accumulators are checked
// against: the sorted sample and its two-pass moments.
type exact struct {
	sorted         []float64
	mean, variance float64
}

func summarize(xs []float64) exact {
	e := exact{sorted: append([]float64(nil), xs...)}
	sort.Float64s(e.sorted)
	for _, x := range e.sorted {
		e.mean += x
	}
	e.mean /= float64(len(xs))
	for _, x := range e.sorted {
		e.variance += (x - e.mean) * (x - e.mean)
	}
	if len(xs) > 1 {
		e.variance /= float64(len(xs) - 1)
	}
	return e
}

func (e exact) min() float64 { return e.sorted[0] }
func (e exact) max() float64 { return e.sorted[len(e.sorted)-1] }

// quantile interpolates linearly between the order statistics either
// side of position q·(N-1).
func (e exact) quantile(q float64) float64 {
	pos := q * float64(len(e.sorted)-1)
	lo := int(pos)
	if lo == len(e.sorted)-1 {
		return e.sorted[lo]
	}
	frac := pos - float64(lo)
	return e.sorted[lo]*(1-frac) + e.sorted[lo+1]*frac
}

func TestStreamMatchesSummarize(t *testing.T) {
	xs := randomSample(10000, 1)
	var s Stream
	for _, x := range xs {
		s.Add(x)
	}
	want := summarize(xs)
	if s.N() != len(xs) {
		t.Fatalf("N = %d, want %d", s.N(), len(xs))
	}
	const tol = 1e-9
	approx := func(name string, got, ref float64) {
		t.Helper()
		if math.Abs(got-ref) > tol*math.Max(1, math.Abs(ref)) {
			t.Fatalf("%s = %v, want %v", name, got, ref)
		}
	}
	approx("mean", s.Mean(), want.mean)
	approx("variance", s.Variance(), want.variance)
	approx("std", s.Std(), math.Sqrt(want.variance))
	approx("se", s.SE(), math.Sqrt(want.variance/float64(len(xs))))
	if s.Min() != want.min() || s.Max() != want.max() {
		t.Fatalf("min/max = %v/%v, want %v/%v", s.Min(), s.Max(), want.min(), want.max())
	}
}

func TestStreamMergeMatchesSequential(t *testing.T) {
	xs := randomSample(5000, 2)
	var whole Stream
	for _, x := range xs {
		whole.Add(x)
	}
	// Shard into 7 pieces, merge in order: same observations, same order
	// of merge regardless of how the pieces were filled.
	const shards = 7
	parts := make([]Stream, shards)
	for i, x := range xs {
		parts[i*shards/len(xs)].Add(x)
	}
	var merged Stream
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.N() != whole.N() {
		t.Fatalf("N = %d, want %d", merged.N(), whole.N())
	}
	if math.Abs(merged.Mean()-whole.Mean()) > 1e-9*whole.Mean() {
		t.Fatalf("merged mean %v, sequential %v", merged.Mean(), whole.Mean())
	}
	if math.Abs(merged.Variance()-whole.Variance()) > 1e-6*whole.Variance() {
		t.Fatalf("merged variance %v, sequential %v", merged.Variance(), whole.Variance())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatal("merged min/max mismatch")
	}
	// Merging into an empty stream copies; merging an empty one is a
	// no-op.
	var empty Stream
	empty.Merge(whole)
	if empty != whole {
		t.Fatalf("merge into empty: %+v, want %+v", empty, whole)
	}
	whole.Merge(Stream{})
	if whole != empty {
		t.Fatal("merging an empty stream changed state")
	}
}

func TestStreamMergeDeterministic(t *testing.T) {
	// Bit-identical results for the same shard partition, however many
	// times we run it — the property sim.ReduceWithState relies on.
	xs := randomSample(1000, 3)
	build := func() Stream {
		parts := make([]Stream, 4)
		for i, x := range xs {
			parts[i%4].Add(x)
		}
		var out Stream
		for _, p := range parts {
			out.Merge(p)
		}
		return out
	}
	a, b := build(), build()
	if a.Mean() != b.Mean() || a.Variance() != b.Variance() {
		t.Fatal("same partition should give bit-identical results")
	}
}

func TestStreamEmptyAndCI(t *testing.T) {
	var s Stream
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.SE()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty stream should report NaN")
	}
	if s.N() != 0 || s.Variance() != 0 {
		t.Fatal("empty stream should report N = 0 and variance 0")
	}
	// The interval comes from the digest snapshot: mean ± z·SE with the
	// exact two-pass moments.
	xs := randomSample(400, 4)
	ci, err := digestOf(t, xs).CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(xs)
	h := zQuantile(0.95) * math.Sqrt(want.variance/float64(len(xs)))
	if math.Abs(ci.Lo-(want.mean-h)) > 1e-9 || math.Abs(ci.Hi-(want.mean+h)) > 1e-9 {
		t.Fatalf("digest CI [%v,%v], exact [%v,%v]", ci.Lo, ci.Hi, want.mean-h, want.mean+h)
	}
}

func TestSketchRelativeError(t *testing.T) {
	xs := randomSample(20000, 5)
	sk := NewDefaultSketch()
	for _, x := range xs {
		sk.Add(x)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99} {
		got, err := sk.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := summarize(xs).quantile(q)
		// The guarantee is relative to an exact order statistic; linear
		// interpolation shifts it by at most one neighbour gap, so allow
		// 2α.
		if math.Abs(got-want) > 2*DefaultSketchAlpha*want {
			t.Fatalf("q=%v: sketch %v, exact %v", q, got, want)
		}
	}
}

func TestSketchMergeExact(t *testing.T) {
	xs := randomSample(8000, 6)
	whole := NewDefaultSketch()
	for _, x := range xs {
		whole.Add(x)
	}
	parts := make([]*QuantileSketch, 5)
	for i := range parts {
		parts[i] = NewDefaultSketch()
	}
	for i, x := range xs {
		parts[i%5].Add(x)
	}
	merged := NewDefaultSketch()
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.N() != whole.N() {
		t.Fatalf("N = %d, want %d", merged.N(), whole.N())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		a, err := merged.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := whole.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("q=%v: merged %v, whole %v (merge must be exact)", q, a, b)
		}
	}
}

func TestSketchSignsAndErrors(t *testing.T) {
	sk := NewDefaultSketch()
	if _, err := sk.Quantile(0.5); err == nil {
		t.Fatal("empty sketch should fail")
	}
	for _, x := range []float64{-10, -1, 0, 0, 1, 10, math.NaN()} {
		sk.Add(x)
	}
	if sk.N() != 6 {
		t.Fatalf("N = %d, want 6 (NaN ignored)", sk.N())
	}
	lo, err := sk.Quantile(0)
	if err != nil {
		t.Fatal(err)
	}
	if lo > -9 {
		t.Fatalf("q=0 should land near -10, got %v", lo)
	}
	med, err := sk.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med != 0 {
		t.Fatalf("median of {-10,-1,0,0,1,10} should be 0, got %v", med)
	}
	if _, err := sk.Quantile(2); err == nil {
		t.Fatal("q>1 should fail")
	}
	if _, err := NewQuantileSketch(0); err == nil {
		t.Fatal("alpha=0 should fail")
	}
	other, err := NewQuantileSketch(0.1)
	if err != nil {
		t.Fatal(err)
	}
	other.Add(1)
	if err := sk.Merge(other); err == nil {
		t.Fatal("mismatched accuracies should fail to merge")
	}
}

func TestSketchInfinities(t *testing.T) {
	sk := NewDefaultSketch()
	for _, x := range []float64{math.Inf(-1), 1, 2, 3, math.Inf(1), math.Inf(1)} {
		sk.Add(x)
	}
	if sk.N() != 6 {
		t.Fatalf("N = %d, want 6", sk.N())
	}
	lo, err := sk.Quantile(0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(lo, -1) {
		t.Fatalf("q=0 = %v, want -Inf", lo)
	}
	hi, err := sk.Quantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(hi, 1) {
		t.Fatalf("q=1 = %v, want +Inf", hi)
	}
	// Finite quantiles must be untouched by the infinite observations.
	med, err := sk.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-2) > 2*DefaultSketchAlpha*2 {
		t.Fatalf("median = %v, want ≈2", med)
	}
	// Merge must carry the infinity counters.
	other := NewDefaultSketch()
	other.Add(math.Inf(1))
	if err := sk.Merge(other); err != nil {
		t.Fatal(err)
	}
	if sk.N() != 7 {
		t.Fatalf("merged N = %d, want 7", sk.N())
	}
	// FixedHistogram clamps infinities into the edge bins, losing nothing.
	h, err := sk.FixedHistogram(0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 7 {
		t.Fatalf("hist total = %d, want 7", h.Total())
	}
}

func TestHistogramMergeAndAddN(t *testing.T) {
	a, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	a.AddN(1, 3)
	b.AddN(9, 2)
	b.Add(5)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 6 {
		t.Fatalf("total = %d, want 6", a.Total())
	}
	var sum int64
	for _, c := range a.Counts {
		sum += c
	}
	if sum != a.Total() {
		t.Fatalf("bin counts sum %d != total %d", sum, a.Total())
	}
	mismatched, err := NewHistogram(0, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(mismatched); err == nil {
		t.Fatal("mismatched ranges should fail to merge")
	}
}

func TestDigestSummaryAndJSON(t *testing.T) {
	d := NewDigest()
	if _, err := d.Summary(); err == nil {
		t.Fatal("empty digest should fail")
	}
	xs := randomSample(3000, 7)
	for _, x := range xs {
		d.Add(x)
	}
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(xs)
	if s.N != len(xs) || math.Abs(s.Mean-want.mean) > 1e-9*want.mean {
		t.Fatalf("digest %+v disagrees with the exact mean %v", s, want.mean)
	}
	if p95 := want.quantile(0.95); math.Abs(s.P95-p95) > 2*DefaultSketchAlpha*p95 {
		t.Fatalf("p95 = %v, exact %v", s.P95, p95)
	}
	if s.P50 > s.P90 || s.P90 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles out of order: %+v", s)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("summary JSON invalid: %v\n%s", err, blob)
	}
	for _, key := range []string{"n", "mean", "p50", "p90", "p99", "min", "max"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("JSON missing %q: %s", key, blob)
		}
	}
	if !strings.Contains(s.String(), "mean=") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestDigestMerge(t *testing.T) {
	xs := randomSample(2000, 8)
	whole := NewDigest()
	for _, x := range xs {
		whole.Add(x)
	}
	parts := []*Digest{NewDigest(), NewDigest(), NewDigest()}
	for i, x := range xs {
		parts[i%3].Add(x)
	}
	merged := NewDigest()
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := merged.Merge(nil); err != nil {
		t.Fatal("nil merge should be a no-op")
	}
	a, err := merged.Summary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := whole.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if a.N != b.N || a.Min != b.Min || a.Max != b.Max || a.P95 != b.P95 {
		t.Fatalf("merged %+v, whole %+v", a, b)
	}
	if math.Abs(a.Mean-b.Mean) > 1e-9*b.Mean {
		t.Fatalf("merged mean %v, whole %v", a.Mean, b.Mean)
	}
}

// TestDigestSummaryJSONRoundTrip pins the DigestSummary wire format: a
// marshalled summary unmarshals back field-for-field, non-finite values
// travel as null (and come back as the zero value), and the CI
// reconstructed from the snapshot is the live stream's mean ± z·SE.
func TestDigestSummaryJSONRoundTrip(t *testing.T) {
	d := NewDigest()
	xs := randomSample(2500, 13)
	for _, x := range xs {
		d.Add(x)
	}
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back DigestSummary
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, blob)
	}
	if back != s {
		t.Fatalf("round trip changed the summary:\n got %+v\nwant %+v", back, s)
	}
	// Re-marshalling is byte-stable — the property sweep artifacts rely
	// on for byte-identical resumes.
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("re-marshal not byte-stable:\n%s\n%s", blob, blob2)
	}

	// CI from the round-tripped snapshot is the live stream's
	// mean ± z·SE, bit for bit.
	got, err := back.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	h := zQuantile(0.95) * d.Stream.SE()
	if got.Lo != d.Stream.Mean()-h || got.Hi != d.Stream.Mean()+h {
		t.Fatalf("snapshot CI %+v, stream mean %v ± %v", got, d.Stream.Mean(), h)
	}
	if _, err := (DigestSummary{}).CI(0.95); err == nil {
		t.Fatal("empty summary CI should fail")
	}
	if _, err := s.CI(1.5); err == nil {
		t.Fatal("bad level should fail")
	}

	// Non-finite fields marshal as null...
	inf := NewDigest()
	inf.Add(math.Inf(1))
	si, err := inf.Summary()
	if err != nil {
		t.Fatal(err)
	}
	iblob, err := json.Marshal(si)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(iblob), `"max":null`) {
		t.Fatalf("+Inf max should marshal as null: %s", iblob)
	}
	// ...and unmarshal to the zero value rather than erroring.
	var iback DigestSummary
	if err := json.Unmarshal(iblob, &iback); err != nil {
		t.Fatalf("null fields should unmarshal: %v", err)
	}
	if iback.Max != 0 || iback.N != 1 {
		t.Fatalf("null round trip: %+v", iback)
	}
}

// TestDigestSummaryJSONSingleObservation pins the N < 2 wire format: a
// one-trial ensemble has no dispersion, so variance/std/se travel as
// null — not as zeros that read as a perfectly concentrated sample — and
// the round trip stays byte-stable (the resume byte-identity contract).
func TestDigestSummaryJSONSingleObservation(t *testing.T) {
	d := NewDigest()
	d.Add(17.5)
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"variance":null`, `"std":null`, `"se":null`, `"mean":17.5`, `"n":1`} {
		if !strings.Contains(string(blob), want) {
			t.Fatalf("single-observation summary missing %s: %s", want, blob)
		}
	}
	var back DigestSummary
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("single-observation re-marshal not byte-stable:\n%s\n%s", blob, blob2)
	}
}

// TestSketchSingleValue: a sketch holding one observation reports that
// observation (within α) at every quantile.
func TestSketchSingleValue(t *testing.T) {
	for _, v := range []float64{42.5, -3.25, 0} {
		sk := NewDefaultSketch()
		sk.Add(v)
		if sk.N() != 1 {
			t.Fatalf("N = %d", sk.N())
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
			got, err := sk.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-v) > DefaultSketchAlpha*math.Abs(v)+1e-12 {
				t.Fatalf("value %v: Q(%v) = %v", v, q, got)
			}
		}
	}
}

// TestSketchAllEqual: a constant sample collapses into one bucket, so
// every quantile agrees to within α and the digest summary stays sane.
func TestSketchAllEqual(t *testing.T) {
	const v = 7.5
	d := NewDigest()
	for i := 0; i < 1000; i++ {
		d.Add(v)
	}
	lo, err := d.Quantile(0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := d.Quantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if lo != hi {
		t.Fatalf("constant sample spread across buckets: Q(0)=%v Q(1)=%v", lo, hi)
	}
	if math.Abs(lo-v) > DefaultSketchAlpha*v {
		t.Fatalf("Q = %v, want within %v of %v", lo, DefaultSketchAlpha*v, v)
	}
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1000 || s.Mean != v || s.Variance != 0 || s.Min != v || s.Max != v {
		t.Fatalf("summary of constant sample: %+v", s)
	}
	if s.P50 != s.P99 {
		t.Fatalf("constant quantiles differ: %+v", s)
	}
}

// TestSketchQuantilesBatch pins the contract of the one-pass batch
// accessor: for sorted quantiles it returns exactly what per-quantile
// Quantile calls return, across sign mixes and infinities.
func TestSketchQuantilesBatch(t *testing.T) {
	streams := map[string][]float64{
		"positive":  randomSample(5000, 3),
		"mixed":     {-50, -3, -3, 0, 0, 0, 0.25, 1, 1, 7, 1e6},
		"signs+inf": {math.Inf(-1), -2, 0, 5, math.Inf(1), math.Inf(1)},
		"zeros":     {0, 0, 0},
	}
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	for name, xs := range streams {
		sk := NewDefaultSketch()
		for _, x := range xs {
			sk.Add(x)
		}
		out := make([]float64, len(qs))
		if err := sk.Quantiles(qs, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, q := range qs {
			want, err := sk.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if out[i] != want && !(math.IsNaN(out[i]) && math.IsNaN(want)) {
				t.Fatalf("%s q=%v: batch %v, single %v", name, q, out[i], want)
			}
		}
	}

	sk := NewDefaultSketch()
	sk.Add(1)
	out := make([]float64, 2)
	if err := sk.Quantiles([]float64{0.9, 0.1}, out); err == nil {
		t.Fatal("descending quantiles accepted")
	}
	if err := sk.Quantiles([]float64{0.5}, out); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := sk.Quantiles([]float64{0.1, 1.5}, out); err == nil {
		t.Fatal("q>1 accepted")
	}
	if err := NewDefaultSketch().Quantiles([]float64{0.5}, out[:1]); err != ErrEmpty {
		t.Fatalf("empty sketch: got %v, want ErrEmpty", err)
	}
}

// TestDigestQuantilesWithinRange: every quantile a Digest or a
// TrajectoryDigest column reports lies in [Min, Max] of what it saw, so
// a sample of equal values reports exactly that value. The sketch alone
// answers with a bucket midpoint up to α past the extremes: 944.049… for
// an all-949 sample, 0.99 for an all-1 sample.
func TestDigestQuantilesWithinRange(t *testing.T) {
	qs := []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1}
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"all 949", []float64{949, 949}},
		{"all 1", []float64{1, 1}},
		{"all 19", []float64{19, 19, 19, 19}},
		{"all -3.25", []float64{-3.25, -3.25, -3.25}},
		{"one value", []float64{42.5}},
		{"18 and 19", []float64{18, 19, 19, 19}},
		{"random", randomSample(500, 11)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDigest()
			for _, x := range tc.xs {
				d.Add(x)
			}
			lo, hi := slices.Min(tc.xs), slices.Max(tc.xs)
			for _, q := range qs {
				got, err := d.Quantile(q)
				if err != nil {
					t.Fatal(err)
				}
				if got < lo || got > hi {
					t.Errorf("Quantile(%v) = %v outside [%v, %v]", q, got, lo, hi)
				}
			}
			s, err := d.Summary()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []float64{s.P50, s.P90, s.P95, s.P99} {
				if p < lo || p > hi {
					t.Errorf("summary %+v: quantile %v outside [%v, %v]", s, p, lo, hi)
				}
			}
			if lo == hi && (s.P50 != lo || s.P99 != lo) {
				t.Errorf("equal values %v: p50 %v, p99 %v", lo, s.P50, s.P99)
			}
		})
	}
	t.Run("trajectory column of equal values", func(t *testing.T) {
		td := NewTrajectoryDigest()
		td.AddTrial([]int{1, 949, 1000})
		td.AddTrial([]int{1, 949, 1000})
		s, err := td.Summary()
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range []float64{1, 949, 1000} {
			if s.P10[k] != want || s.P50[k] != want || s.P90[k] != want {
				t.Errorf("column %d: band %v/%v/%v, want %v", k, s.P10[k], s.P50[k], s.P90[k], want)
			}
		}
	})
}
