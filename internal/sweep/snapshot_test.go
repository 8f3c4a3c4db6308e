package sweep

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// snapSpec is a small trajectory-enabled grid: two points so callback
// interleaving is exercised, with enough trials for several snapshots
// at a 1ns interval (which fires on every fold).
func snapSpec() Spec {
	return Spec{
		Name:      "snap",
		Families:  []string{"rand-reg"},
		Sizes:     []int{32},
		Degrees:   []int{4},
		Processes: []string{ProcCobra, ProcBIPS},
		Metrics:   []string{"rounds", "transmissions", "coverage"},
		Trials:    8,
		Seed:      5,
		MaxRounds: 1 << 14,
	}
}

func TestSnapshotHookDelivers(t *testing.T) {
	var (
		mu    sync.Mutex
		snaps []Snapshot
	)
	rep, err := Run(context.Background(), snapSpec(), Options{
		TrialWorkers:     2,
		Snapshot:         func(s Snapshot) { mu.Lock(); snaps = append(snaps, s); mu.Unlock() },
		SnapshotInterval: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots delivered at a 1ns interval")
	}
	lastTrials := make(map[string]int)
	for _, s := range snaps {
		if s.Trials < 1 || s.Trials > s.Point.Trials {
			t.Fatalf("snapshot for %s has trials %d outside [1, %d]", s.Point.ID, s.Trials, s.Point.Trials)
		}
		if s.Trials < lastTrials[s.Point.ID] {
			t.Fatalf("snapshot trials went backwards for %s: %d after %d", s.Point.ID, s.Trials, lastTrials[s.Point.ID])
		}
		lastTrials[s.Point.ID] = s.Trials
		for _, name := range []string{"rounds", "transmissions"} {
			d, ok := s.Metrics[name]
			if !ok {
				t.Fatalf("snapshot for %s lacks scalar metric %q", s.Point.ID, name)
			}
			if d.N != s.Trials {
				t.Fatalf("snapshot for %s: metric %q has N=%d, want %d", s.Point.ID, name, d.N, s.Trials)
			}
		}
		tr, ok := s.Trajectories["coverage"]
		if !ok {
			t.Fatalf("snapshot for %s lacks trajectory metric", s.Point.ID)
		}
		if len(tr.Rounds) == 0 || tr.N[0] != s.Trials {
			t.Fatalf("snapshot for %s: trajectory has %d columns, N[0]=%v, want N[0]=%d",
				s.Point.ID, len(tr.Rounds), tr.N, s.Trials)
		}
	}
	for _, res := range rep.Results {
		if lastTrials[res.ID] == 0 {
			t.Fatalf("point %s delivered no snapshots", res.ID)
		}
	}
}

// TestSnapshotDoesNotChangeResults is the determinism half of the
// contract: enabling snapshots (at any interval, any worker count)
// must not move a byte of the results.
func TestSnapshotDoesNotChangeResults(t *testing.T) {
	encode := func(opts Options) string {
		rep, err := Run(context.Background(), snapSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(rep.Results)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	base := encode(Options{TrialWorkers: 1})
	withSnaps := encode(Options{
		TrialWorkers:     4,
		Snapshot:         func(Snapshot) {},
		SnapshotInterval: time.Nanosecond,
	})
	if base != withSnaps {
		t.Fatal("snapshot hook changed the results")
	}
}

// TestSnapshotSerialisedWithLifecycle pins the ordering contract:
// points run one at a time in expansion order, so the lifecycle
// callbacks read start p0, done p0, start p1, … and every snapshot falls
// inside its own point's start–done window. A resumed run reports its
// loaded points first, in expansion order, and then runs the rest.
func TestSnapshotSerialisedWithLifecycle(t *testing.T) {
	spec := snapSpec()
	spec.Sizes = []int{32, 48} // four points
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	run := func(dir string, resume bool) []string {
		t.Helper()
		var (
			mu  sync.Mutex
			seq []string
		)
		record := func(ev string) {
			mu.Lock()
			seq = append(seq, ev)
			mu.Unlock()
		}
		_, err := Run(context.Background(), spec, Options{
			Dir:          dir,
			Resume:       resume,
			TrialWorkers: 2,
			PointStart:   func(pt Point) { record("start " + pt.ID) },
			PointDone: func(res Result, resumed bool) {
				if resumed {
					record("resumed " + res.ID)
				} else {
					record("done " + res.ID)
				}
			},
			Snapshot:         func(s Snapshot) { record("snapshot " + s.Point.ID) },
			SnapshotInterval: time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	// check splits seq into lifecycle calls, which must read want, and
	// snapshots, each of which must directly follow its own point's start
	// among the lifecycle calls.
	check := func(name string, seq, want []string) {
		t.Helper()
		var lifecycle []string
		snaps := 0
		for _, ev := range seq {
			id, ok := strings.CutPrefix(ev, "snapshot ")
			if !ok {
				lifecycle = append(lifecycle, ev)
				continue
			}
			snaps++
			if n := len(lifecycle); n == 0 || lifecycle[n-1] != "start "+id {
				t.Fatalf("%s: snapshot for %s outside its start–done window (calls so far %q)", name, id, lifecycle)
			}
		}
		if !slices.Equal(lifecycle, want) {
			t.Errorf("%s: lifecycle calls\n%q\nwant\n%q", name, lifecycle, want)
		}
		if snaps == 0 {
			t.Errorf("%s: no snapshots delivered at a 1ns interval", name)
		}
	}

	dir := t.TempDir()
	var want []string
	for _, pt := range pts {
		want = append(want, "start "+pt.ID, "done "+pt.ID)
	}
	check("fresh", run(dir, false), want)

	// Drop points 0 and 2: the resume loads 1 and 3 first, then runs 0 and 2.
	for _, i := range []int{0, 2} {
		if err := os.Remove(filepath.Join(dir, pointsDir, pts[i].ID+".json")); err != nil {
			t.Fatal(err)
		}
	}
	want = []string{
		"resumed " + pts[1].ID, "resumed " + pts[3].ID,
		"start " + pts[0].ID, "done " + pts[0].ID,
		"start " + pts[2].ID, "done " + pts[2].ID,
	}
	check("resume", run(dir, true), want)
}

func TestSpecHash(t *testing.T) {
	base := snapSpec()
	h := base.Hash()
	if h == "" {
		t.Fatal("empty hash")
	}
	if again := snapSpec().Hash(); again != h {
		t.Fatalf("hash not stable: %s vs %s", h, again)
	}
	// Normalisation: a spec with its defaults spelled out hashes the
	// same as one that leaves them implicit.
	explicit := base
	explicit.MaxRounds = 1 << 14
	if explicit.Hash() != h {
		t.Fatal("explicit defaults changed the hash")
	}
	implicitMetrics := base
	implicitMetrics.Metrics = nil
	defaulted := base
	defaulted.Metrics = DefaultMetrics()
	if implicitMetrics.Hash() != defaulted.Hash() {
		t.Fatal("defaulted metric set hashes differently from implicit")
	}
	// Any material change moves the hash.
	for name, mut := range map[string]func(*Spec){
		"seed":    func(s *Spec) { s.Seed++ },
		"trials":  func(s *Spec) { s.Trials++ },
		"sizes":   func(s *Spec) { s.Sizes = []int{64} },
		"metrics": func(s *Spec) { s.Metrics = []string{"rounds"} },
	} {
		s := snapSpec()
		mut(&s)
		if s.Hash() == h {
			t.Errorf("%s change did not move the hash", name)
		}
	}
}
