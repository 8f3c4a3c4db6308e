package sweep

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestWorkerBudgetResolve pins the anti-oversubscription arithmetic:
// the trial pool takes its knob (default: the budget) capped at the
// trial count, kernel processes get the slack maxProcs / trialWorkers
// and at least 1, and non-kernel processes always resolve to one kernel
// worker.
func TestWorkerBudgetResolve(t *testing.T) {
	cases := []struct {
		name           string
		b              workerBudget
		trials         int
		kernel         bool
		wantTW, wantKW int
	}{
		{"defaults-wide-ensemble", workerBudget{maxProcs: 8}, 100, true, 8, 1},
		{"defaults-single-trial", workerBudget{maxProcs: 8}, 1, true, 1, 8},
		{"defaults-small-ensemble", workerBudget{maxProcs: 8}, 2, true, 2, 4},
		{"explicit-trials-slack-kernel", workerBudget{trialWorkers: 2, maxProcs: 8}, 100, true, 2, 4},
		{"explicit-trials-exceed-budget", workerBudget{trialWorkers: 16, maxProcs: 8}, 100, true, 16, 1},
		{"non-kernel-defaults", workerBudget{maxProcs: 8}, 100, false, 8, 1},
		{"non-kernel-explicit-trials", workerBudget{trialWorkers: 3, maxProcs: 8}, 100, false, 3, 1},
		{"trials-cap", workerBudget{maxProcs: 8}, 3, true, 3, 2},
	}
	for _, tc := range cases {
		tw, kw := tc.b.resolve(tc.trials, tc.kernel)
		if tw != tc.wantTW || kw != tc.wantKW {
			t.Errorf("%s: resolve(%d, %v) = (%d, %d), want (%d, %d)",
				tc.name, tc.trials, tc.kernel, tw, kw, tc.wantTW, tc.wantKW)
		}
	}
	// The zero budget falls back to GOMAXPROCS.
	tw, kw := workerBudget{}.resolve(1, true)
	if want := runtime.GOMAXPROCS(0); tw != 1 || kw != want {
		t.Errorf("zero budget: resolve = (%d, %d), want (1, %d)", tw, kw, want)
	}
}

// kernelSpecs sweep both kernel processes with every registered metric,
// so the golden diff below covers trajectory digests and snapshots too:
// a regular and an irregular family at a size whose rounds fit in one
// kernel chunk, and an expander whose rounds span several chunks, so
// one round is split across workers.
func kernelSpecs() []Spec {
	return []Spec{{
		Name:      "kernel-golden",
		Families:  []string{"rand-reg", "complete"},
		Sizes:     []int{24},
		Degrees:   []int{4},
		Processes: []string{ProcCobra, ProcBIPS},
		Metrics:   MetricNames(),
		Trials:    6,
		Seed:      23,
		MaxRounds: 1 << 14,
	}, {
		Name:      "kernel-golden-multichunk",
		Families:  []string{"rand-reg"},
		Sizes:     []int{8192},
		Degrees:   []int{8},
		Processes: []string{ProcCobra, ProcBIPS},
		Metrics:   MetricNames(),
		Trials:    3,
		Seed:      23,
		MaxRounds: 1 << 14,
	}}
}

// TestKernelGoldenDiffWorkers is the sweep-level half of the kernel
// determinism pin: kernel workers 1 vs 4 (2 trial workers on a budget of
// 2 against 1 trial worker on a budget of 4, snapshots enabled on both
// sides) must produce byte-identical artifact trees — manifest,
// per-point records and results.ndjson — and identical in-memory
// reports.
func TestKernelGoldenDiffWorkers(t *testing.T) {
	for _, spec := range kernelSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			run := func(dir string, trialWorkers, maxProcs int) *Report {
				t.Helper()
				rep, err := Run(context.Background(), spec, Options{
					Dir:              dir,
					TrialWorkers:     trialWorkers,
					MaxProcs:         maxProcs,
					Snapshot:         func(Snapshot) {},
					SnapshotInterval: time.Nanosecond, // force deliveries every fold
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			dirA, dirB := t.TempDir(), t.TempDir()
			repA := run(dirA, 2, 2)
			repB := run(dirB, 1, 4)
			if reportJSON(t, repA) != reportJSON(t, repB) {
				t.Fatal("kernel sweep report depends on kernel worker count")
			}
			treeA, treeB := readTree(t, dirA), readTree(t, dirB)
			if !reflect.DeepEqual(treeA, treeB) {
				for rel, want := range treeA {
					if got, ok := treeB[rel]; !ok || got != want {
						t.Fatalf("artifact %s differs between kernel workers 1 and 4", rel)
					}
				}
				t.Fatal("artifact trees differ between kernel workers 1 and 4")
			}
			if _, ok := treeA["results.ndjson"]; !ok {
				t.Fatal("results.ndjson missing from kernel sweep artifacts")
			}
		})
	}
}
