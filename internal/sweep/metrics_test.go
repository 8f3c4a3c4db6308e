package sweep

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestMetricRegistry(t *testing.T) {
	want := []string{MetricRounds, MetricTransmissions, MetricPeakActive, MetricHalfCoverage, MetricCoverage, MetricFrontier}
	if got := MetricNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MetricNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		m, err := LookupMetric(name)
		if err != nil || m.Name != name || m.Summary == "" {
			t.Fatalf("incomplete registry entry for %s: %+v, %v", name, m, err)
		}
		if m.Trajectory && m.series == nil || !m.Trajectory && m.scalar == nil {
			t.Fatalf("%s: extractor does not match kind", name)
		}
	}
	if _, err := LookupMetric("latency"); err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("LookupMetric(latency) = %v", err)
	}
	if got, err := ParseMetrics(" rounds, coverage "); err != nil || !reflect.DeepEqual(got, []string{"rounds", "coverage"}) {
		t.Fatalf("ParseMetrics = %v, %v", got, err)
	}
	if got, err := ParseMetrics(""); err != nil || got != nil {
		t.Fatalf("empty ParseMetrics = %v, %v", got, err)
	}
	if _, err := ParseMetrics("rounds,latency"); err == nil {
		t.Fatal("unknown metric should fail to parse")
	}
}

func TestMetricSpecValidation(t *testing.T) {
	s := smallSpec()
	s.Metrics = []string{"rounds", "latency"}
	if _, err := s.Points(); err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("unknown metric: %v", err)
	}
	s.Metrics = []string{"rounds", "rounds"}
	if _, err := s.Points(); err == nil || !strings.Contains(err.Error(), "duplicate metric") {
		t.Fatalf("duplicate metric: %v", err)
	}
	// Defaults fill the canonical pair.
	s.Metrics = nil
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts[0].Metrics, DefaultMetrics()) {
		t.Fatalf("default metrics = %v", pts[0].Metrics)
	}
}

// trajSpec exercises every registered metric on every registered process
// in one small grid.
func trajSpec() Spec {
	return Spec{
		Name:      "traj",
		Families:  []string{"rand-reg"},
		Sizes:     []int{32},
		Degrees:   []int{4},
		Processes: Processes(),
		Metrics:   MetricNames(),
		Trials:    6,
		Seed:      17,
		MaxRounds: 1 << 14,
	}
}

func TestTrajectoryMetricsRecorded(t *testing.T) {
	rep, err := Run(context.Background(), trajSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		for _, m := range []string{MetricRounds, MetricTransmissions, MetricPeakActive, MetricHalfCoverage} {
			if !res.HasMetric(m) || res.Metric(m).N != 6 {
				t.Fatalf("point %s: scalar %s missing or short: %+v", res.ID, m, res.Metric(m))
			}
		}
		rounds := res.Metric(MetricRounds)
		if peak := res.Metric(MetricPeakActive); peak.Max > float64(res.GraphN) {
			t.Fatalf("point %s: peak active %v exceeds n", res.ID, peak.Max)
		}
		if half := res.Metric(MetricHalfCoverage); half.Max > rounds.Max || half.Min < 0 {
			t.Fatalf("point %s: half-coverage %+v out of [0, rounds]", res.ID, half)
		}
		for _, m := range []string{MetricCoverage, MetricFrontier} {
			traj, ok := res.Trajectory(m)
			if !ok {
				t.Fatalf("point %s: no %s trajectory", res.ID, m)
			}
			if len(traj.Rounds) == 0 || traj.N[0] != 6 {
				t.Fatalf("point %s: degenerate %s trajectory %+v", res.ID, m, traj)
			}
			// Every trial completed, so the longest trial's last sampled
			// column exists and its p50 is within [1, n].
			last := len(traj.Rounds) - 1
			if traj.P50[last] < 1 || traj.P50[last] > float64(res.GraphN)*(1+2*0.01) {
				t.Fatalf("point %s: %s final p50 %v implausible", res.ID, m, traj.P50[last])
			}
		}
		// Coverage at the start state is the single start vertex.
		cov, _ := res.Trajectory(MetricCoverage)
		if cov.Mean[0] != 1 {
			t.Fatalf("point %s: coverage start column mean %v, want 1", res.ID, cov.Mean[0])
		}
	}
}

// TestTrajectoryWorkerIndependence is the acceptance pin: a
// trajectory-enabled sweep is byte-identical across trial worker
// counts.
func TestTrajectoryWorkerIndependence(t *testing.T) {
	base, err := Run(context.Background(), trajSpec(), Options{TrialWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), trajSpec(), Options{TrialWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, base) != reportJSON(t, parallel) {
		t.Fatal("trajectory-enabled report depends on worker counts")
	}
}

// TestMetricSetDoesNotChangeDraws pins that attaching collectors (and
// digesting extra metrics) cannot disturb the random stream: the rounds
// and transmissions summaries of a full-metrics sweep are byte-identical
// to a default-metrics sweep of the same spec.
func TestMetricSetDoesNotChangeDraws(t *testing.T) {
	full := trajSpec()
	lean := trajSpec()
	lean.Metrics = DefaultMetrics()
	repFull, err := Run(context.Background(), full, Options{TrialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	repLean, err := Run(context.Background(), lean, Options{TrialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, rf := range repFull.Results {
		rl := repLean.Results[i]
		if !reflect.DeepEqual(rf.Metric(MetricRounds), rl.Metric(MetricRounds)) ||
			!reflect.DeepEqual(rf.Metric(MetricTransmissions), rl.Metric(MetricTransmissions)) {
			t.Fatalf("point %s: metric set changed the canonical digests", rf.ID)
		}
	}
}

// TestTrajectoryResumeByteIdentical extends the resume contract to
// trajectory-enabled sweeps: kill mid-run, resume with different worker
// counts, and every artifact byte — trajectory blocks included — matches
// an uninterrupted run.
func TestTrajectoryResumeByteIdentical(t *testing.T) {
	spec := trajSpec()

	dirA := t.TempDir()
	repA, err := Run(context.Background(), spec, Options{Dir: dirA, TrialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}

	dirB := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	if _, err := Run(ctx, spec, Options{
		Dir: dirB, TrialWorkers: 1,
		PointDone: func(Result, bool) {
			if done++; done == 2 {
				cancel()
			}
		},
	}); err == nil {
		t.Fatal("interrupted run should report an error")
	}

	repB, err := Run(context.Background(), spec, Options{Dir: dirB, Resume: true, TrialWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if repB.Resumed < 2 {
		t.Fatalf("resume loaded %d points, want >= 2", repB.Resumed)
	}
	treeA, treeB := readTree(t, dirA), readTree(t, dirB)
	if !reflect.DeepEqual(treeA, treeB) {
		for rel, want := range treeA {
			if got, ok := treeB[rel]; !ok || got != want {
				t.Fatalf("artifact %s differs between uninterrupted and resumed trajectory runs", rel)
			}
		}
		t.Fatal("artifact trees differ")
	}
	if reportJSON(t, repA) != reportJSON(t, repB) {
		t.Fatal("in-memory reports differ between uninterrupted and resumed trajectory runs")
	}
	// Records carry the trajectory blocks on disk.
	if !strings.Contains(treeA["results.ndjson"], `"trajectories"`) ||
		!strings.Contains(treeA["results.ndjson"], `"`+MetricCoverage+`"`) {
		t.Fatal("results.ndjson lacks trajectory blocks")
	}
}

// TestResumeRejectsDifferentMetricSet pins the per-record guard: a
// record computed under one metric set cannot silently satisfy a resume
// that expects another (the manifest catches whole-dir mixes; this
// catches hand-mixed records).
func TestResumeRejectsDifferentMetricSet(t *testing.T) {
	spec := Spec{Families: []string{"complete"}, Sizes: []int{12}, Trials: 2, Seed: 2}
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	// Same grid, richer metrics: the manifest differs, so openArtifacts
	// refuses first.
	richer := spec
	richer.Metrics = []string{MetricRounds, MetricTransmissions, MetricCoverage}
	if _, err := Run(context.Background(), richer, Options{Dir: dir, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "manifest") {
		t.Fatalf("manifest guard: %v", err)
	}
	// Bypass the manifest by grafting the old record into a fresh richer
	// dir: the per-record metric guard must catch it.
	dir2 := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	Run(ctx, richer, Options{Dir: dir2}) // writes the manifest, computes nothing
	old := readTree(t, dir)
	for rel, blob := range old {
		if strings.HasPrefix(rel, "points/") {
			writeFileAtomic(filepath.Join(dir2, rel), []byte(blob))
		}
	}
	if _, err := Run(context.Background(), richer, Options{Dir: dir2, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "metric") {
		t.Fatalf("record metric guard: %v", err)
	}
}

// TestHalfCoverageMatchesCollector spot-checks a recorded scalar against
// a direct collected run: the sweep's half-coverage digest for a
// deterministic process (flood) equals the collector's answer.
func TestHalfCoverageMatchesCollector(t *testing.T) {
	spec := Spec{
		Families:  []string{"cycle"},
		Sizes:     []int{24},
		Processes: []string{ProcFlood},
		Metrics:   []string{MetricRounds, MetricHalfCoverage},
		Trials:    3,
		Seed:      5,
	}
	rep, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	// Flooding a C24 from one vertex reaches 2t+1 vertices after t
	// rounds; half coverage (12) lands at t = 6.
	half := res.Metric(MetricHalfCoverage)
	if half.Min != 6 || half.Max != 6 {
		t.Fatalf("flood half-coverage digest %+v, want exactly 6", half)
	}
}
