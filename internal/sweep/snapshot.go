package sweep

// snapshot.go is the live-observability tap on a running ensemble: a
// periodic, read-only view of a point's partial digests while trials
// are still folding in. The serving layer broadcasts these over SSE so
// an operator can watch quantile bands converge instead of polling for
// the finished artifact.
//
// Determinism: the snapshot path must never move a byte of the final
// results. It doesn't — snapshots are built from *shadow* accumulators
// that duplicate each fold outside the reduction tree, the real
// per-shard accumulators and the trial rng streams are never read or
// touched, and delivery is timer-gated (an Options field, which by
// contract cannot affect results). Killing the hook, changing its
// interval, or racing its timer differently changes only what is
// observed, never what is computed. The shadow digests fold trials in
// completion order rather than the fixed shard-merge order, so a
// snapshot's float rounding may differ run to run — snapshots are
// advisory views; only the final Result carries the contract.

import (
	"sync"
	"time"

	"cobrawalk/internal/sim"
	"cobrawalk/internal/stats"
)

// DefaultSnapshotInterval spaces Options.Snapshot deliveries when
// Options.SnapshotInterval is unset.
const DefaultSnapshotInterval = 500 * time.Millisecond

// Snapshot is a mid-ensemble view of one running point: the partial
// scalar summaries and trajectory quantile bands over the trials folded
// so far. Fields mirror Result so readers can reuse decoding.
type Snapshot struct {
	// Point is the running point.
	Point Point `json:"point"`
	// Trials counts the trials folded into this snapshot's digests
	// (the final Result will hold Point.Trials).
	Trials int `json:"trials"`
	// Metrics holds the partial ensemble summary per requested scalar
	// metric, keyed by registry name.
	Metrics map[string]stats.DigestSummary `json:"metrics"`
	// Trajectories holds the partial per-round quantile-band block per
	// requested trajectory metric, keyed by registry name.
	Trajectories map[string]stats.TrajectorySummary `json:"trajectories,omitempty"`
}

// snapshotReducer wraps the point reducer so every fold also feeds a
// shadow accumulator under its own mutex; when at least interval has
// passed since the last delivery, the fold that crossed the line
// summarises the shadow and hands a Snapshot to snap. With snap == nil
// the reducer is returned untouched — the hot path pays nothing.
func snapshotReducer(red sim.Reducer[Trial, pointAcc], pt Point, scalars, trajs []MetricInfo, snap func(Snapshot), interval time.Duration) sim.Reducer[Trial, pointAcc] {
	if snap == nil {
		return red
	}
	if interval <= 0 {
		interval = DefaultSnapshotInterval
	}
	var (
		mu     sync.Mutex
		shadow = red.New()
		trials int
		last   = time.Now()
	)
	fold := red.Fold
	red.Fold = func(acc pointAcc, trial int, v Trial) pointAcc {
		acc = fold(acc, trial, v)
		// The collector buffers in v are only valid until the worker's
		// next trial, but Fold runs synchronously before that — reading
		// them a second time here is safe.
		mu.Lock()
		defer mu.Unlock()
		shadow = fold(shadow, trial, v)
		trials++
		if now := time.Now(); now.Sub(last) >= interval {
			last = now
			snap(snapshotOf(pt, trials, shadow, scalars, trajs))
		}
		return acc
	}
	return red
}

// snapshotOf summarises the shadow accumulator into a Snapshot.
// Metrics whose digests cannot summarise yet (empty) are skipped.
func snapshotOf(pt Point, trials int, acc pointAcc, scalars, trajs []MetricInfo) Snapshot {
	s := Snapshot{
		Point:   pt,
		Trials:  trials,
		Metrics: make(map[string]stats.DigestSummary, len(scalars)),
	}
	for i, m := range scalars {
		sum, err := acc.scalars[i].Summary()
		if err != nil {
			continue
		}
		s.Metrics[m.Name] = sum
	}
	if len(trajs) > 0 {
		s.Trajectories = make(map[string]stats.TrajectorySummary, len(trajs))
		for i, m := range trajs {
			sum, err := acc.trajs[i].Summary()
			if err != nil {
				continue
			}
			s.Trajectories[m.Name] = sum
		}
	}
	return s
}
