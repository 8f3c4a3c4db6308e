package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a percentile with fewer samples beyond it is one or two outliers, not
// a statistic, and is reported as unavailable.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie beyond its rank. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], n-(k+1) >= minBeyond
}

// median is the middle value (mean of the middle two for even counts),
// used for the repeated-unit timings where every sample is a full unit.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// partMedians is each part's median time across units. Each unit
// reports the seconds its named parts took; the sum of the per-part
// medians is the time of one unit measured robustly, since a stall that
// hits one part of one unit is dropped by that part's median instead of
// moving the whole unit's time.
func partMedians(units []map[string]float64) map[string]float64 {
	byPart := map[string][]float64{}
	for _, u := range units {
		for name, s := range u {
			byPart[name] = append(byPart[name], s)
		}
	}
	out := make(map[string]float64, len(byPart))
	for name, xs := range byPart {
		out[name] = median(xs)
	}
	return out
}

// pctlText renders a percentile with its sample count, or "n/a" when
// too few samples lie beyond it.
func pctlText(xs []float64, q float64, unit string) string {
	v, ok := percentile(xs, q)
	if !ok {
		return fmt.Sprintf("n/a (n=%d)", len(xs))
	}
	return fmt.Sprintf("%.4g %s (n=%d)", v, unit, len(xs))
}

// pctlValue is percentile for machine output: 0 when unavailable.
func pctlValue(xs []float64, q float64) float64 {
	v, ok := percentile(xs, q)
	if !ok {
		return 0
	}
	return v
}

// tally counts operations attempted and failed. A wrong output counts
// as failed exactly like an error, so an engine that stops early shows
// up in error_rate instead of looking fast.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
}

// record counts n operations; when err is non-nil or ok is false, all n
// count as failed and the first few reasons are kept for the report.
func (t *tally) record(n int64, ok bool, err error, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	if err == nil && ok {
		return
	}
	t.failed += n
	if len(t.problems) < 10 {
		if err != nil {
			what = fmt.Sprintf("%s: %v", what, err)
		}
		t.problems = append(t.problems, what)
	}
}

// errorRate is failed ÷ attempted.
func (t *tally) errorRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// openLoop paces requests on a fixed schedule: request i is due at
// start + i·interval whether or not earlier requests have finished.
// Latency is charged from the due time, so a stalled request also
// charges the wait of every request queued behind it, and lateness is
// how long after its due time each request was actually sent.
type openLoop struct {
	start    time.Time
	interval time.Duration
	latency  []float64 // ms, end − due
	late     []float64 // ms, sent − due
}

// due returns the scheduled send time of request i.
func (o *openLoop) due(i int) time.Time {
	return o.start.Add(time.Duration(i) * o.interval)
}

// observe records request i sent at sent and finished at end.
func (o *openLoop) observe(i int, sent, end time.Time) {
	d := o.due(i)
	o.latency = append(o.latency, ms(end.Sub(d)))
	o.late = append(o.late, ms(sent.Sub(d)))
}

// backlogGrowing reports whether lateness kept rising through the run:
// the last quarter's median lateness exceeds both the first quarter's
// and one interval. A generator that keeps up has flat lateness near 0.
func (o *openLoop) backlogGrowing() bool {
	n := len(o.late)
	if n < 8 {
		return false
	}
	first, last := median(o.late[:n/4]), median(o.late[n-n/4:])
	return last > first && last > ms(o.interval)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
