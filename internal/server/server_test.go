package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/sweep"
)

// smokeSpec is the tiny grid the golden tests run: two processes on one
// topology, so the shared graph cache is exercised too.
func smokeSpec() sweep.Spec {
	return sweep.Spec{
		Name:      "smoke",
		Families:  []string{"rand-reg"},
		Sizes:     []int{48},
		Degrees:   []int{4},
		Processes: []string{"cobra", "push"},
		Trials:    5,
		Seed:      11,
		MaxRounds: 1 << 14,
	}
}

// referenceNDJSON runs the spec through the sweep engine directly — the
// exact path cmd/sweep -out takes — and returns results.ndjson.
func referenceNDJSON(t *testing.T, spec sweep.Spec) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := sweep.Run(context.Background(), spec, sweep.Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func newTestManager(t *testing.T, dir string, cfg Config) *Manager {
	t.Helper()
	cfg.Dir = dir
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// httpJSON performs a request against the test server and decodes the
// JSON response into out (skipped when out is nil).
func httpJSON(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, blob, err)
		}
	}
	return resp.StatusCode
}

// pollUntil polls the job status over HTTP until pred holds or the
// deadline passes.
func pollUntil(t *testing.T, base, id string, pred func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st Status
		if code := httpJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach the expected state: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(st Status) bool { return st.State.Terminal() }

// TestServerSmokeGolden is the CI smoke: boot the server over httptest,
// submit a tiny sweep, poll it to done, and golden-diff the streamed
// NDJSON against the sweep engine's own artifacts for the same spec —
// the determinism acceptance criterion, pinned end to end over HTTP.
func TestServerSmokeGolden(t *testing.T) {
	want := referenceNDJSON(t, smokeSpec())

	m := newTestManager(t, t.TempDir(), Config{MaxConcurrent: 2})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	specBlob, err := json.Marshal(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if code := httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", specBlob, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	if st.ID == "" || st.Points != 2 {
		t.Fatalf("submitted job = %+v, want an ID and 2 points", st)
	}

	final := pollUntil(t, ts.URL, st.ID, terminal)
	if final.State != StateDone || final.PointsDone != 2 {
		t.Fatalf("job finished as %+v, want done with 2 points", final)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("server results differ from cmd/sweep artifacts:\nserver: %s\nsweep:  %s", got, want)
	}

	// A second job on the same spec exercises the shared graph cache:
	// same bytes, and /v1/healthz reports the hits.
	var st2 Status
	httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", specBlob, &st2)
	pollUntil(t, ts.URL, st2.ID, func(s Status) bool { return s.State == StateDone })
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st2.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got2, _ := io.ReadAll(resp2.Body)
	if !bytes.Equal(got2, want) {
		t.Fatal("second job's results differ — cache state leaked into results")
	}
	var health struct {
		Status string `json:"status"`
		Cache  struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
		Jobs map[string]int `json:"jobs"`
	}
	httpJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &health)
	if health.Status != "ok" {
		t.Fatalf("healthz status %q", health.Status)
	}
	// 4 points total across both jobs, one shared topology: 1 miss.
	if health.Cache.Misses != 1 || health.Cache.Hits != 3 {
		t.Fatalf("cache counters = %+v, want 1 miss / 3 hits", health.Cache)
	}
	if health.Jobs["done"] != 2 {
		t.Fatalf("healthz job counts = %v, want 2 done", health.Jobs)
	}
}

// restartSpec has 8 points whose kwalk trials are slow enough (Θ(n²)
// rounds on a cycle) that the first manager is reliably killed mid-job.
func restartSpec() sweep.Spec {
	return sweep.Spec{
		Name:       "restart",
		Families:   []string{"cycle"},
		Sizes:      []int{256, 320, 384, 448},
		Processes:  []string{"kwalk"},
		Branchings: []core.Branching{{K: 1}, {K: 2}},
		Trials:     10,
		Seed:       23,
	}
}

// TestRestartResumeByteIdentical extends TestResumeByteIdentical to the
// server path: a daemon killed mid-job and restarted on the same data
// dir resumes the job and finishes with results.ndjson byte-identical
// to an uninterrupted cmd/sweep run of the same spec.
func TestRestartResumeByteIdentical(t *testing.T) {
	spec := restartSpec()
	want := referenceNDJSON(t, spec)

	dir := t.TempDir()
	first, err := NewManager(Config{Dir: dir, TrialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := first.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the daemon once at least one point has completed.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, ok := first.Get(st.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if cur.PointsDone >= 1 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before the kill: %+v — restartSpec is too fast for this test", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("first point never completed")
		}
		time.Sleep(time.Millisecond)
	}
	first.Close()

	// The persisted state must still be resumable, not a terminal one.
	var rec Record
	if err := readJSONFile(filepath.Join(dir, jobsDirName, st.ID, jobFileName), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State.Terminal() {
		t.Fatalf("shutdown persisted terminal state %s", rec.State)
	}

	// Restart: the recovered manager finishes the job.
	second := newTestManager(t, dir, Config{TrialWorkers: 4})
	dl := time.Now().Add(120 * time.Second)
	var final Status
	for {
		var ok bool
		final, ok = second.Get(st.ID)
		if !ok {
			t.Fatal("restarted manager lost the job")
		}
		if final.State.Terminal() {
			break
		}
		if time.Now().After(dl) {
			t.Fatalf("resumed job never finished: %+v", final)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != StateDone {
		t.Fatalf("resumed job finished as %+v", final)
	}
	if final.PointsResumed < 1 || final.PointsResumed >= final.Points {
		t.Fatalf("resumed %d of %d points, want in [1, %d)", final.PointsResumed, final.Points, final.Points)
	}

	path, _, err := second.ResultsMeta(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed job's results.ndjson differs from an uninterrupted run")
	}
}

// TestCancelJob pins DELETE semantics: a running job with an effectively
// unbounded trial stops promptly and settles as cancelled, after which
// results are a 409 conflict and a second cancel is rejected.
func TestCancelJob(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	// One walker on a 2^18 cycle needs ~10^10 rounds: hours, uncancelled.
	spec := sweep.Spec{
		Families:   []string{"cycle"},
		Sizes:      []int{1 << 18},
		Processes:  []string{"kwalk"},
		Branchings: []core.Branching{{K: 1}},
		Trials:     4,
		Seed:       3,
		MaxRounds:  1 << 40,
	}
	blob, _ := json.Marshal(spec)
	var st Status
	if code := httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", blob, &st); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	pollUntil(t, ts.URL, st.ID, func(s Status) bool { return s.State == StateRunning })

	start := time.Now()
	if code := httpJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", code)
	}
	final := pollUntil(t, ts.URL, st.ID, terminal)
	if final.State != StateCancelled {
		t.Fatalf("cancelled job settled as %+v", final)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v — the trial did not stop promptly", elapsed)
	}

	var errResp map[string]string
	if code := httpJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/results", nil, &errResp); code != http.StatusConflict {
		t.Fatalf("results of a cancelled job: status %d, want 409", code)
	}
	if code := httpJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil, &errResp); code != http.StatusConflict {
		t.Fatalf("double cancel: status %d, want 409", code)
	}
}

// TestCancelQueuedJob: with one scheduler slot occupied by a long job, a
// queued job cancels without ever running.
func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{MaxConcurrent: 1})

	long := sweep.Spec{
		Families: []string{"cycle"}, Sizes: []int{1 << 18},
		Processes: []string{"kwalk"}, Branchings: []core.Branching{{K: 1}},
		Trials: 4, Seed: 3, MaxRounds: 1 << 40,
	}
	blocker, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := m.Get(queued.ID)
		if st.State == StateCancelled {
			if st.Started != nil || st.PointsDone != 0 {
				t.Fatalf("queued job ran before cancelling: %+v", st)
			}
			break
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("queued job settled as %+v, want cancelled", st)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCancelAfterOutcomeDecided replays a Cancel that lands after settle
// has decided a job's outcome but before the job reads as settled: it
// is refused with the 409 of a terminal job and adds no cancel-requested
// event after the terminal one.
func TestCancelAfterOutcomeDecided(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{})
	j := m.newJob(Record{ID: "j0001", State: StateRunning}, t.TempDir())
	m.mu.Lock()
	m.jobs[j.rec.ID] = j
	j.outcome = StateDone
	m.mu.Unlock()
	m.event(j, string(StateDone), "", nil)

	_, err := m.Cancel(j.rec.ID)
	if err == nil || statusFor(err) != http.StatusConflict || !strings.Contains(err.Error(), "already done") {
		t.Fatalf("Cancel after the outcome was decided: err %v, want a 409 naming done", err)
	}
	events, err := m.EventsAfter(j.rec.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last := events[len(events)-1]; last.Name != string(StateDone) {
		t.Fatalf("last event %q, want done", last.Name)
	}
}

// TestHTTPValidation sweeps the API's error surface.
func TestHTTPValidation(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	var errResp map[string]string
	cases := []struct {
		method, path string
		body         []byte
		wantCode     int
		wantErr      string
	}{
		{"POST", "/v1/jobs", []byte(`{not json`), http.StatusBadRequest, "parsing spec"},
		{"POST", "/v1/jobs", []byte(`{"families":["complete"],"sizes":[16],"trials":1,"sede":1}`), http.StatusBadRequest, "unknown field"},
		{"POST", "/v1/jobs", []byte(`{"families":["mobius"],"sizes":[16],"trials":1}`), http.StatusBadRequest, "unknown family"},
		{"POST", "/v1/jobs", []byte(`{"families":["complete"],"sizes":[16]}`), http.StatusBadRequest, "trials"},
		{"GET", "/v1/jobs/j9999", nil, http.StatusNotFound, "no job"},
		{"DELETE", "/v1/jobs/j9999", nil, http.StatusNotFound, "no job"},
		{"GET", "/v1/jobs/j9999/results", nil, http.StatusNotFound, "no job"},
	}
	for _, tc := range cases {
		errResp = nil
		code := httpJSON(t, tc.method, ts.URL+tc.path, tc.body, &errResp)
		if code != tc.wantCode || !strings.Contains(errResp["error"], tc.wantErr) {
			t.Errorf("%s %s: code %d, err %q; want %d mentioning %q",
				tc.method, tc.path, code, errResp["error"], tc.wantCode, tc.wantErr)
		}
	}

	// Registry and version endpoints respond with the canonical data.
	var procs struct {
		Processes []struct {
			Name string `json:"name"`
		} `json:"processes"`
	}
	httpJSON(t, http.MethodGet, ts.URL+"/v1/processes", nil, &procs)
	if len(procs.Processes) == 0 || procs.Processes[0].Name != "cobra" {
		t.Fatalf("process registry over HTTP = %+v", procs)
	}
	var fams struct {
		Families []struct {
			Name string `json:"name"`
		} `json:"families"`
	}
	httpJSON(t, http.MethodGet, ts.URL+"/v1/families", nil, &fams)
	if len(fams.Families) == 0 || fams.Families[0].Name != "rand-reg" {
		t.Fatalf("family registry over HTTP = %+v", fams)
	}
	var ver struct {
		Module    string `json:"module"`
		GoVersion string `json:"go_version"`
	}
	httpJSON(t, http.MethodGet, ts.URL+"/v1/version", nil, &ver)
	if ver.Module != "cobrawalk" || ver.GoVersion == "" {
		t.Fatalf("/v1/version = %+v", ver)
	}

	// The job listing includes submitted jobs in order.
	if _, err := m.Submit(smokeSpec()); err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	httpJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != "j0001" {
		t.Fatalf("job listing = %+v", list.Jobs)
	}
}

// TestSubmitRejectsFileFamilies pins that a job spec cannot make the
// daemon open a host path: a valid store file outside the data dir is
// refused with 400, and the refusal reads the same whether the path
// holds a store file, some other file or nothing, so it reveals nothing
// about the host's files.
func TestSubmitRejectsFileFamilies(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	outside := t.TempDir()
	g, err := graph.Complete(16)
	if err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(outside, "k16.csrg")
	if err := graphstore.Write(store, g); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(outside, "junk.csrg")
	if err := os.WriteFile(junk, []byte("not a graph store"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(outside, "missing.csrg")
	fileSpec := func(families ...string) sweep.Spec {
		return sweep.Spec{Families: families, Sizes: []int{16}, Trials: 1, Seed: 1}
	}
	// The store file is a valid sweep family: cmd/sweep still takes it.
	if _, err := fileSpec("file:" + store).Points(); err != nil {
		t.Fatalf("store file is not a valid sweep family: %v", err)
	}

	var msgs []string
	for _, families := range [][]string{
		{"file:" + store},
		{"complete", "file:" + store},
		{"file:" + junk},
		{"file:" + missing},
	} {
		blob, _ := json.Marshal(fileSpec(families...))
		var errResp struct {
			Error string `json:"error"`
		}
		code := httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", blob, &errResp)
		msg := errResp.Error
		if code != http.StatusBadRequest {
			t.Fatalf("families %v: status %d (%q), want 400", families, code, msg)
		}
		if !strings.Contains(msg, "-graph-dir") || !strings.Contains(msg, "graphbuild") {
			t.Fatalf("families %v: error %q should point to -graph-dir and cmd/graphbuild", families, msg)
		}
		msgs = append(msgs, msg)
	}
	for _, msg := range msgs[1:] {
		if msg != msgs[0] {
			t.Fatalf("refusals differ by path, leaking host file state: %q", msgs)
		}
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("refused specs created jobs: %+v", jobs)
	}
}

// TestRestoredHistoryIsServable: terminal jobs survive a restart as
// queryable history, including their results.
func TestRestoredHistoryIsServable(t *testing.T) {
	dir := t.TempDir()
	first, err := NewManager(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := first.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := first.Get(st.ID)
		if cur.State == StateDone {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job settled as %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	first.Close()

	second := newTestManager(t, dir, Config{})
	got, ok := second.Get(st.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("restored job = %+v, %v", got, ok)
	}
	if _, _, err := second.ResultsMeta(st.ID); err != nil {
		t.Fatal(err)
	}
	// The next submission does not reuse the restored job's ID.
	next, err := second.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if next.ID == st.ID {
		t.Fatalf("ID %s reused after restart", next.ID)
	}
}

// TestRestoreToleratesDamage: a foreign directory and a job with an
// unreadable record must not keep the daemon from booting; healthy jobs
// restore, skipped IDs are never reused, and the damaged directory is
// left in place for the operator.
func TestRestoreToleratesDamage(t *testing.T) {
	dir := t.TempDir()
	first, err := NewManager(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := first.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := first.Get(st.ID)
		if cur.State == StateDone {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job settled as %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	first.Close()

	// Damage the data dir: a foreign directory and a job with garbage.
	jobsDir := filepath.Join(dir, jobsDirName)
	if err := os.MkdirAll(filepath.Join(jobsDir, "backup"), 0o755); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(jobsDir, "j0099")
	if err := os.MkdirAll(corrupt, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corrupt, jobFileName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	second := newTestManager(t, dir, Config{})
	if got, ok := second.Get(st.ID); !ok || got.State != StateDone {
		t.Fatalf("healthy job lost after damaged restore: %+v, %v", got, ok)
	}
	if _, ok := second.Get("j0099"); ok {
		t.Fatal("corrupt job should not be served")
	}
	next, err := second.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j0100" {
		t.Fatalf("next ID = %s, want j0100 (skipped j0099 must still advance the counter)", next.ID)
	}
	if blob, err := os.ReadFile(filepath.Join(corrupt, jobFileName)); err != nil || string(blob) != "{not json" {
		t.Fatalf("damaged record was touched: %q, %v", blob, err)
	}
}

// trajectorySpec is smokeSpec with trajectory metrics enabled, on the
// two core paper processes.
func trajectorySpec() sweep.Spec {
	s := smokeSpec()
	s.Name = "traj"
	s.Processes = []string{"cobra", "bips"}
	s.Metrics = []string{"rounds", "transmissions", "coverage", "frontier"}
	return s
}

// TestTrajectoriesEndpointGolden is the acceptance pin for the serving
// layer: GET /v1/jobs/{id}/trajectories streams per-round quantile bands
// that match the cmd/sweep artifacts for the same spec — every band line
// equals the trajectory block of the corresponding persisted record.
func TestTrajectoriesEndpointGolden(t *testing.T) {
	spec := trajectorySpec()
	wantResults := referenceNDJSON(t, spec)

	m := newTestManager(t, t.TempDir(), Config{})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	specBlob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if code := httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", specBlob, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}

	final := pollUntil(t, ts.URL, st.ID, terminal)
	if final.State != StateDone {
		t.Fatalf("job finished as %+v", final)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trajectories")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trajectories content type %q", ct)
	}
	type band struct {
		ID     string    `json:"id"`
		Metric string    `json:"metric"`
		Rounds []int     `json:"rounds"`
		N      []int     `json:"n"`
		Mean   []float64 `json:"mean"`
		P10    []float64 `json:"p10"`
		P50    []float64 `json:"p50"`
		P90    []float64 `json:"p90"`
	}
	var bands []band
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var b band
		if err := dec.Decode(&b); err != nil {
			t.Fatal(err)
		}
		bands = append(bands, b)
	}
	// 2 points × 2 trajectory metrics, metric names sorted per point.
	if len(bands) != 4 {
		t.Fatalf("got %d band lines, want 4", len(bands))
	}

	// Golden: the bands must equal the trajectory blocks of the sweep
	// engine's own artifacts for the same spec.
	var wantBands []band
	rdec := json.NewDecoder(bytes.NewReader(wantResults))
	for rdec.More() {
		var res sweep.Result
		if err := rdec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		for _, metric := range []string{"coverage", "frontier"} {
			traj, ok := res.Trajectory(metric)
			if !ok {
				t.Fatalf("reference record %s lacks %s", res.ID, metric)
			}
			wantBands = append(wantBands, band{
				ID: res.ID, Metric: metric,
				Rounds: traj.Rounds, N: traj.N, Mean: traj.Mean,
				P10: traj.P10, P50: traj.P50, P90: traj.P90,
			})
		}
	}
	if len(bands) != len(wantBands) {
		t.Fatalf("band count %d vs reference %d", len(bands), len(wantBands))
	}
	for i := range bands {
		got, _ := json.Marshal(bands[i])
		want, _ := json.Marshal(wantBands[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("band %d differs:\nserver: %s\nsweep:  %s", i, got, want)
		}
	}

	// Sanity on the shape itself: bands are quantile-ordered per round
	// and the start column saw every trial.
	for _, b := range bands {
		if b.N[0] != spec.Trials {
			t.Fatalf("band %s/%s start column n = %d, want %d", b.ID, b.Metric, b.N[0], spec.Trials)
		}
		for k := range b.Rounds {
			if b.P10[k] > b.P50[k] || b.P50[k] > b.P90[k] {
				t.Fatalf("band %s/%s column %d not ordered: %v %v %v",
					b.ID, b.Metric, k, b.P10[k], b.P50[k], b.P90[k])
			}
		}
	}

	// A job without trajectory metrics streams an empty body, not an error.
	leanBlob, _ := json.Marshal(smokeSpec())
	var lean Status
	httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", leanBlob, &lean)
	pollUntil(t, ts.URL, lean.ID, terminal)
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + lean.ID + "/trajectories")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if body, _ := io.ReadAll(resp2.Body); resp2.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("trajectory-less job: status %d body %q, want 200 with empty body", resp2.StatusCode, body)
	}

	// Unknown job → 404.
	var errResp map[string]string
	if code := httpJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j9999/trajectories", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown job trajectories: status %d", code)
	}
}

// TestMetricsAndCacheStatsEndpoints pins the registry/observability
// reads: /v1/metrics lists the sweep metric registry and /v1/healthz's
// "cache" block serves the shared graph cache counters, which have no
// endpoint of their own: GET /v1/cachestats answers 404.
func TestMetricsAndCacheStatsEndpoints(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	var metrics struct {
		Metrics []struct {
			Name       string `json:"name"`
			Trajectory bool   `json:"trajectory"`
			Summary    string `json:"summary"`
		} `json:"metrics"`
	}
	httpJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &metrics)
	if len(metrics.Metrics) != len(sweep.MetricNames()) {
		t.Fatalf("metric registry over HTTP = %+v", metrics)
	}
	if metrics.Metrics[0].Name != "rounds" || metrics.Metrics[0].Trajectory {
		t.Fatalf("first metric = %+v, want scalar rounds", metrics.Metrics[0])
	}

	var before struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
			Budget int    `json:"budget"`
		} `json:"cache"`
	}
	httpJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &before)
	if st := before.Cache; st.Hits != 0 || st.Misses != 0 || st.Budget <= 0 {
		t.Fatalf("fresh cache stats = %+v", st)
	}
	if code := httpJSON(t, http.MethodGet, ts.URL+"/v1/cachestats", nil, nil); code != http.StatusNotFound {
		t.Fatalf("/v1/cachestats: status %d, want 404 (the counters live in /v1/healthz)", code)
	}

	specBlob, _ := json.Marshal(smokeSpec())
	var st Status
	httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", specBlob, &st)
	pollUntil(t, ts.URL, st.ID, terminal)

	var after struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	httpJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &after)
	// 2 points, 1 topology: one build, one hit.
	if st := after.Cache; st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats after job = %+v, want 1 miss / 1 hit", st)
	}
}
