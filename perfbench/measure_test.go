package main

import (
	"errors"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},  // 10 samples above rank 10
		{19, 0.5, 10, false}, // only 9 above
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (c.n > 0 && got != c.want) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if v := pctlValue(seq(19), 0.5); v != 0 {
		t.Errorf("pctlValue with too few samples = %v, want 0", v)
	}
	if s := pctlText(seq(19), 0.5, "ms"); s != "n/a (n=19)" {
		t.Errorf("pctlText = %q", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

// simulate drives an openLoop as a single-connection sender: request i
// is sent at its due time or when request i-1 finishes, whichever is
// later, and takes service[i].
func simulate(interval time.Duration, service []time.Duration) *openLoop {
	t0 := time.Unix(0, 0)
	o := &openLoop{start: t0, interval: interval}
	free := t0
	for i, s := range service {
		sent := o.due(i)
		if free.After(sent) {
			sent = free
		}
		free = sent.Add(s)
		o.observe(i, sent, free)
	}
	return o
}

// One stalled read charges the reads queued behind it: their latency
// runs from their due time, not from when they were finally sent.
func TestDueTimeLatencyChargesQueuedReads(t *testing.T) {
	ms1 := time.Millisecond
	o := simulate(5*ms1, []time.Duration{ms1, 20 * ms1, ms1, ms1, ms1, ms1, ms1, ms1, ms1, ms1})
	// Read 1 is due at 5 and ends at 25. Read 2 (due 10) waits until 25
	// and ends at 26: 16 ms from its due time, 15 ms of it late.
	wantLat := []float64{1, 20, 16, 12, 8, 4, 1, 1, 1, 1}
	wantLate := []float64{0, 0, 15, 11, 7, 3, 0, 0, 0, 0}
	for i := range wantLat {
		if o.latency[i] != wantLat[i] || o.late[i] != wantLate[i] {
			t.Errorf("read %d: latency %v late %v, want %v %v", i, o.latency[i], o.late[i], wantLat[i], wantLate[i])
		}
	}
	if o.backlogGrowing() {
		t.Error("a recovered stall flagged as a growing backlog")
	}
}

// A sender slower than its schedule falls further behind every request.
func TestBacklogGrowing(t *testing.T) {
	service := make([]time.Duration, 40)
	for i := range service {
		service[i] = 7 * time.Millisecond
	}
	if !simulate(5*time.Millisecond, service).backlogGrowing() {
		t.Error("7 ms reads every 5 ms not flagged as a growing backlog")
	}
	for i := range service {
		service[i] = 3 * time.Millisecond
	}
	if simulate(5*time.Millisecond, service).backlogGrowing() {
		t.Error("3 ms reads every 5 ms flagged as a growing backlog")
	}
}

// Failed and wrong outputs both count as failed operations.
func TestTallyErrorRate(t *testing.T) {
	var tl tally
	tl.record(10, true, nil, "ok")
	tl.record(3, false, nil, "wrong output")
	tl.record(2, true, errors.New("boom"), "error")
	if tl.attempted != 15 || tl.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 15 and 5", tl.attempted, tl.failed)
	}
	if r := tl.errorRate(); r != 5.0/15 {
		t.Errorf("error rate %v, want 1/3", r)
	}
	if len(tl.problems) != 2 {
		t.Errorf("problems %q, want two", tl.problems)
	}
	var empty tally
	if empty.errorRate() != 0 {
		t.Error("empty tally has a non-zero error rate")
	}
}

// A stall in one part of one unit is dropped by that part's median; the
// other parts still count in full.
func TestPartMediansDropOneStalledPart(t *testing.T) {
	units := []map[string]float64{
		{"a": 1, "b": 2},
		{"a": 1, "b": 9}, // b stalled in this unit
		{"a": 1, "b": 2},
	}
	if got := partMedians(units); len(got) != 2 || got["a"] != 1 || got["b"] != 2 {
		t.Errorf("partMedians = %v, want a=1 b=2", got)
	}
	if got := partMedians([]map[string]float64{{"batch": 4}, {"batch": 2}}); got["batch"] != 3 {
		t.Errorf("one-part median of two = %v, want 3", got)
	}
}

// A run always does its first unit, then starts another only when one of
// the mean unit time so far is expected to end within the window.
func TestAnotherFillsTheWindow(t *testing.T) {
	window := 20 * time.Second
	for _, c := range []struct {
		elapsed time.Duration
		n       int
		want    bool
	}{
		{0, 0, true},
		{30 * time.Second, 1, false}, // a first unit longer than the window ends the run
		{15 * time.Second, 3, true},  // 15 s + 5 s ends on the window
		{16 * time.Second, 3, false}, // 16 s + 5.3 s would overrun it
		{10 * time.Second, 1, true},
	} {
		if got := another(c.elapsed, c.n, window); got != c.want {
			t.Errorf("another(%v, %d, %v) = %v, want %v", c.elapsed, c.n, window, got, c.want)
		}
	}
}
