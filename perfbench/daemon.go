package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/server"
	"cobrawalk/internal/sweep"
)

// The daemon-mixed job: a small rand-reg ensemble with trajectories, so
// the engines do little and the serving layer's write path (submit,
// persist, SSE fan-out) shares the machine with its read path.
const (
	daemonN      = 256
	daemonR      = 8
	daemonTrials = 200
	daemonSeeds  = 4   // submitted specs rotate over this many seeds, so specs repeat
	daemonBatch  = 5   // jobs per measured unit
	readRate     = 200 // open-loop reads per second
	// daemonSegment is how many batches one daemon instance serves before
	// the benchmark boots a fresh one, outside the timed batches. The
	// daemon retains every job and GET /v1/jobs encodes them all, so on a
	// single daemon the list read would cost more with every job the run
	// adds; a fresh daemon every few batches keeps the read load the same
	// from segment to segment and from run to run.
	daemonSegment = 8
)

// daemonMixed runs an in-process cobrawalkd (server.NewManager +
// server.NewHandler, default config) on a loopback listener, driven by
// one closed-loop submitter and one open-loop reader, each over a single
// connection.
type daemonMixed struct {
	specs []sweep.Spec
	ref   [][]byte // results.ndjson of an in-process sweep.Run per spec
	reps  int      // daemons booted, naming their data directories
	next  int      // submitted jobs, for spec rotation and request ids
	// missingDone counts job streams that ended without a done event.
	missingDone int

	// The running daemon and the batches it has served.
	mgr     *server.Manager
	srv     *http.Server
	base    string
	sub, rd *http.Client
	batches int
	reader  *reader

	mu    sync.Mutex
	done  []doneJob // completed jobs of the running daemon, the reader's targets
	jobMs []float64
	reads readLog

	// While tracing, the handler wrapper files each server span under its
	// X-Request-Id, and the client spans wait in jobs and readSpans; they
	// are joined and handed to the tracer between batches.
	tracing     atomic.Bool
	serverSpans map[string]span
	jobs        []jobTrace
	readSpans   []span
	// jobResidual sums, over traced jobs, the part of each job span that
	// no server request span or job phase covers.
	jobResidual time.Duration
	// counters sums the traced daemons' /metrics and graph cache counters.
	counters struct {
		cacheHits, cacheMisses, dropped float64
		graphs                          graphcache.Stats
	}
}

type doneJob struct {
	id, etag string
	spec     int
}

// jobTrace is one traced job: its span, and its requests' client spans.
type jobTrace struct {
	id         string
	start, end time.Time
	reqs       []span
}

// readLog gathers the open-loop reader's figures across daemon segments.
type readLog struct {
	latency, late []float64 // ms, from each read's due time
	// segments counts the reader's segments and backlogged those whose
	// lateness kept growing; one stall late in a short segment can flag
	// it, so the run's backlog counts as growing when most segments' did.
	segments, backlogged int
	cond, notMod         int // conditional results reads, and 304s among them
}

func daemonSpec(seed uint64, i int) sweep.Spec {
	return sweep.Spec{
		Name:       fmt.Sprintf("daemon-mixed-%d", i),
		Families:   []string{"rand-reg"},
		Sizes:      []int{daemonN},
		Degrees:    []int{daemonR},
		Processes:  []string{sweep.ProcCobra, sweep.ProcBIPS},
		Branchings: []core.Branching{{K: 2}},
		Metrics:    []string{sweep.MetricRounds, sweep.MetricCoverage, sweep.MetricFrontier},
		Trials:     daemonTrials,
		Seed:       seed + uint64(i),
	}
}

func (w *daemonMixed) opName() string { return "jobs" }

// setup computes the reference sweeps in-process and boots a fresh
// daemon. A previous set-up's daemon is shut down first.
func (w *daemonMixed) setup(b *bench) error {
	w.shutdown()
	w.specs, w.ref, w.next = nil, nil, 0
	for i := 0; i < daemonSeeds; i++ {
		spec := daemonSpec(b.seed, i)
		dir := filepath.Join(b.dir, fmt.Sprintf("ref-%d-%d", w.reps, i))
		if _, err := sweep.Run(context.Background(), spec, sweep.Options{Dir: dir}); err != nil {
			return fmt.Errorf("reference sweep: %w", err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, "results.ndjson"))
		if err != nil {
			return err
		}
		w.specs, w.ref = append(w.specs, spec), append(w.ref, blob)
	}
	w.missingDone = 0
	return w.boot(b)
}

// boot starts a fresh daemon over a new data directory and runs one
// warm-up job per spec, which fills its graph and read caches and gives
// the reader its first targets. Warm-up jobs are checked but not timed.
func (w *daemonMixed) boot(b *bench) error {
	w.reps++
	mgr, err := server.NewManager(server.Config{Dir: filepath.Join(b.dir, fmt.Sprintf("daemon-%d", w.reps))})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return err
	}
	w.mgr, w.base = mgr, "http://"+ln.Addr().String()
	w.srv = &http.Server{Handler: w.spanHandler(server.NewHandler(mgr))}
	go w.srv.Serve(ln)
	w.sub, w.rd = oneConnClient(), oneConnClient()
	w.mu.Lock()
	w.done, w.batches = nil, 0
	w.mu.Unlock()
	for range w.specs {
		if err := w.job(b, false); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
	}
	return nil
}

// oneConnClient is an HTTP client limited to a single connection.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// spanHandler records a server span for every request under its
// X-Request-Id while tracing.
func (w *daemonMixed) spanHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		if w.tracing.Load() {
			id := r.Header.Get("X-Request-Id")
			w.mu.Lock()
			w.serverSpans[id] = span{Trace: id, Layer: "server", Name: route(r), Start: t0, End: time.Now()}
			w.mu.Unlock()
		}
	})
}

// route names a request by endpoint, matching the per-layer metrics.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost:
		return "submit"
	case p == "/metrics":
		return "scrape"
	case p == "/v1/jobs":
		return "list"
	case strings.HasSuffix(p, "/results"):
		return "results"
	case strings.HasSuffix(p, "/trajectories"):
		return "trajectories"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/stream"):
		return "stream"
	default:
		return "status"
	}
}

// unit submits daemonBatch jobs one after another and times them as one
// part. Every daemonSegment batches it first replaces the daemon with a
// fresh one, untimed; the open-loop reader runs from the first batch of a
// segment until the segment ends.
func (w *daemonMixed) unit(b *bench) (float64, map[string]float64, error) {
	if w.batches == daemonSegment {
		if err := w.restart(b); err != nil {
			return 0, nil, err
		}
	}
	if w.reader == nil {
		w.reader = w.startReader(b)
	}
	w.batches++
	t0 := time.Now()
	for i := 0; i < daemonBatch; i++ {
		if err := w.job(b, true); err != nil {
			return float64(i), nil, err
		}
	}
	return daemonBatch, map[string]float64{"batch": time.Since(t0).Seconds()}, nil
}

// restart ends the running daemon's segment and boots a fresh daemon.
func (w *daemonMixed) restart(b *bench) error {
	if err := w.endSegment(b); err != nil {
		return err
	}
	w.shutdown()
	return w.boot(b)
}

// endSegment halts the reader, keeping its figures, and while tracing
// hands the segment's spans to the tracer and adds up the daemon's
// counters. It runs between timed batches, so the /events and /metrics
// fetches it makes are never timed.
func (w *daemonMixed) endSegment(b *bench) error {
	if rd := w.reader; rd != nil {
		rd.halt()
		w.reads.latency = append(w.reads.latency, rd.loop.latency...)
		w.reads.late = append(w.reads.late, rd.loop.late...)
		w.reads.segments++
		if rd.loop.backlogGrowing() {
			w.reads.backlogged++
		}
		w.reads.cond += rd.cond
		w.reads.notMod += rd.notMod
		w.reader = nil
	}
	if !w.tracing.Load() || w.mgr == nil {
		return nil
	}
	w.flushSpans(b.tr)
	g := w.mgr.CacheStats()
	w.counters.graphs.Hits += g.Hits
	w.counters.graphs.Misses += g.Misses
	w.counters.graphs.DiskHits += g.DiskHits
	return w.scrape()
}

// job runs one closed-loop job: POST the spec, follow its SSE stream to
// done, then GET /results and /trajectories. The results must equal the
// in-process sweep of the same spec. A measured job's time counts toward
// the job latency and, while tracing, its spans are kept.
func (w *daemonMixed) job(b *bench, measured bool) error {
	k := w.next % len(w.specs)
	w.next++
	t0 := time.Now()
	var reqs []span
	do := func(method, path string, body []byte) (*http.Response, []byte, error) {
		id := fmt.Sprintf("job%d-%d", w.next, len(reqs))
		req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("X-Request-Id", id)
		a := time.Now()
		resp, err := w.sub.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		reqs = append(reqs, span{Trace: id, Layer: "client", Name: route(req), Start: a, End: time.Now()})
		return resp, blob, err
	}
	spec, _ := json.Marshal(w.specs[k]) // a plain struct always marshals
	resp, blob, err := do(http.MethodPost, "/v1/jobs", spec)
	if err != nil {
		return err
	}
	var st server.Status
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(blob, &st) != nil {
		return fmt.Errorf("submit: %s %s", resp.Status, blob)
	}
	if _, blob, err = do(http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil); err != nil {
		return err
	}
	if last := lastSSEEvent(blob); last != "done" {
		// A stream can end without its done event: a subscription landing
		// between the job settling and the done event being published
		// seals the job's topic first (Manager.Subscribe calls
		// hub.ensureClosed), and the done event is then dropped. Count
		// it, and check that the job reached done with a status read.
		w.missingDone++
		resp, blob, err := do(http.MethodGet, "/v1/jobs/"+st.ID, nil)
		if err != nil {
			return err
		}
		var now server.Status
		if resp.StatusCode != http.StatusOK || json.Unmarshal(blob, &now) != nil || now.State != server.StateDone {
			b.ops.record(1, false, nil, fmt.Sprintf("job %s: stream ended with %q, state %q", st.ID, last, now.State))
			return nil
		}
	}
	resp, results, err := do(http.MethodGet, "/v1/jobs/"+st.ID+"/results", nil)
	if err != nil {
		return err
	}
	etag := resp.Header.Get("ETag")
	if _, _, err = do(http.MethodGet, "/v1/jobs/"+st.ID+"/trajectories", nil); err != nil {
		return err
	}
	end := time.Now()
	ok := resp.StatusCode == http.StatusOK && bytes.Equal(results, w.ref[k])
	b.ops.record(1, ok, nil, fmt.Sprintf("job %s: results differ from the in-process sweep", st.ID))
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done = append(w.done, doneJob{id: st.ID, etag: etag, spec: k})
	if measured {
		w.jobMs = append(w.jobMs, ms(end.Sub(t0)))
		if w.tracing.Load() {
			w.jobs = append(w.jobs, jobTrace{id: st.ID, start: t0, end: end, reqs: reqs})
		}
	}
	return nil
}

// lastSSEEvent returns the name of the last event in an SSE body.
func lastSSEEvent(body []byte) string {
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = name
		}
	}
	return last
}

// flushSpans hands the kept spans to the tracer: each job span with its
// request spans, each request's server span under its client span, and
// the job phases read from the /events timestamps — queue wait
// (queued → running), each point (point-start → point) and settle (last
// point → done) — plus the reader's request spans with their server
// spans. It adds to jobResidual the part of each job span that neither
// a server span nor a phase covers.
func (w *daemonMixed) flushSpans(tr *tracer) {
	w.mu.Lock()
	jobs, reads, server := w.jobs, w.readSpans, w.serverSpans
	w.jobs, w.readSpans, w.serverSpans = nil, nil, map[string]span{}
	w.mu.Unlock()
	addReq := func(parent int, c span) (span, bool) {
		id := tr.add(parent, c.Trace, c.Layer, c.Name, c.Start, c.End)
		s, ok := server[c.Trace]
		if ok {
			tr.add(id, s.Trace, s.Layer, s.Name, s.Start, s.End)
		}
		return s, ok
	}
	for _, r := range reads {
		addReq(0, r)
	}
	for _, j := range jobs {
		root := tr.add(0, j.id, "client", "job", j.start, j.end)
		var covered []span
		for _, r := range j.reqs {
			if s, ok := addReq(root, r); ok {
				covered = append(covered, s)
			}
		}
		for _, ph := range w.phases(j.id) {
			tr.add(root, j.id, ph.Layer, ph.Name, ph.Start, ph.End)
			covered = append(covered, ph)
		}
		w.jobResidual += selfTime(span{Start: j.start, End: j.end}, covered)
	}
}

// phases reads a job's phase spans from its /events timestamps.
func (w *daemonMixed) phases(id string) []span {
	resp, err := w.sub.Get(w.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var evs struct {
		Events []struct {
			Name string    `json:"name"`
			Time time.Time `json:"time"`
		} `json:"events"`
	}
	if json.NewDecoder(resp.Body).Decode(&evs) != nil {
		return nil
	}
	var out []span
	var queued, pointStart, last time.Time
	for _, ev := range evs.Events {
		switch ev.Name {
		case "queued":
			queued = ev.Time
		case "running":
			out = append(out, span{Layer: "server", Name: "queue-wait", Start: queued, End: ev.Time})
			last = ev.Time
		case "point-start":
			pointStart = ev.Time
		case "point":
			out = append(out, span{Layer: "sweep", Name: "point", Start: pointStart, End: ev.Time})
			last = ev.Time
		case "done":
			out = append(out, span{Layer: "server", Name: "settle", Start: last, End: ev.Time})
		}
	}
	return out
}

// reader is the open-loop read generator of one daemon segment.
type reader struct {
	stop     chan struct{}
	once     sync.Once
	finished chan struct{}
	loop     openLoop
	cond     int // conditional results reads sent
	notMod   int // of which answered 304
}

// startReader sends reads at readRate on one connection until halted.
// Reads rotate over status, results (every other one conditional on
// the ETag), trajectories, events?after=, the job list and /metrics, on
// completed jobs.
func (w *daemonMixed) startReader(b *bench) *reader {
	rd := &reader{stop: make(chan struct{}), finished: make(chan struct{}),
		loop: openLoop{start: time.Now(), interval: time.Second / readRate}}
	seg := w.reps
	go func() {
		defer close(rd.finished)
		for i := 0; ; i++ {
			due := rd.loop.due(i)
			select {
			case <-rd.stop:
				return
			case <-time.After(time.Until(due)):
			}
			sent := time.Now()
			ok, err := w.read(rd, seg, i)
			rd.loop.observe(i, sent, time.Now())
			b.ops.record(1, ok, err, "read: wrong status, ETag or results bytes")
		}
	}()
	return rd
}

// read performs read i of segment seg and checks its answer: 200, or 304
// with the ETag the conditional request carried; a 200 results body must
// equal the reference bytes.
func (w *daemonMixed) read(rd *reader, seg, i int) (bool, error) {
	w.mu.Lock()
	j := w.done[(i/6)%len(w.done)]
	w.mu.Unlock()
	path, cond := "/v1/jobs/"+j.id, false
	switch i % 6 {
	case 1:
		path += "/results"
		cond = (i/6)%2 == 0
	case 2:
		path += "/trajectories"
	case 3:
		path += "/events?after=" + strconv.Itoa(3)
	case 4:
		path = "/v1/jobs"
	case 5:
		path = "/metrics"
	}
	req, err := http.NewRequest(http.MethodGet, w.base+path, nil)
	if err != nil {
		return false, err
	}
	id := fmt.Sprintf("read%d-%d", seg, i)
	req.Header.Set("X-Request-Id", id)
	if cond {
		req.Header.Set("If-None-Match", j.etag)
		rd.cond++
	}
	a := time.Now()
	resp, err := w.rd.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if w.tracing.Load() {
		w.mu.Lock()
		w.readSpans = append(w.readSpans, span{Trace: id, Layer: "client", Name: route(req), Start: a, End: time.Now()})
		w.mu.Unlock()
	}
	if err != nil {
		return false, err
	}
	switch {
	case resp.StatusCode == http.StatusNotModified:
		rd.notMod++
		return cond && resp.Header.Get("ETag") == j.etag, nil
	case resp.StatusCode != http.StatusOK:
		return false, fmt.Errorf("GET %s: %s", path, resp.Status)
	case i%6 == 1:
		return bytes.Equal(body, w.ref[j.spec]), nil
	}
	return true, nil
}

// halt stops the reader and waits for its goroutine to exit; repeated
// calls return at once.
func (rd *reader) halt() {
	rd.once.Do(func() { close(rd.stop) })
	<-rd.finished
}

// traced reports the untraced batches' client figures, then runs traced
// batches on fresh daemons for the same window; each daemon's counters
// come from one /metrics scrape at the end of its segment.
func (w *daemonMixed) traced(b *bench, untraced float64) error {
	if err := w.endSegment(b); err != nil {
		return err
	}
	w.clientMetrics(b, false)
	w.mu.Lock()
	w.jobMs, w.reads, w.serverSpans = nil, readLog{}, map[string]span{}
	w.mu.Unlock()
	w.tracing.Store(true)
	if err := w.restart(b); err != nil {
		return err
	}
	var walls []float64
	for start := time.Now(); another(time.Since(start), len(walls), b.seconds); {
		_, parts, err := w.unit(b)
		if err != nil {
			return err
		}
		walls = append(walls, parts["batch"])
	}
	if err := w.endSegment(b); err != nil {
		return err
	}
	w.tracing.Store(false)
	w.clientMetrics(b, true)

	byRoute := map[string][]float64{}
	for _, s := range b.tr.snapshot() {
		switch {
		case s.Layer == "server":
			byRoute[s.Name] = append(byRoute[s.Name], ms(s.dur()))
		case s.Layer == "sweep":
			byRoute["point"] = append(byRoute["point"], ms(s.dur()))
		}
	}
	set := func(name, r string, q float64) { b.set(name, pctlValue(byRoute[r], q)) }
	set("server.submit_ms_p50", "submit", 0.5)
	set("server.status_ms_p50", "status", 0.5)
	set("server.results_ms_p50", "results", 0.5)
	set("server.results_ms_p90", "results", 0.9)
	set("server.trajectories_ms_p50", "trajectories", 0.5)
	set("server.events_ms_p50", "events", 0.5)
	set("server.list_ms_p50", "list", 0.5)
	set("server.list_ms_p90", "list", 0.9)
	set("server.queue_wait_ms_p50", "queue-wait", 0.5)
	set("server.point_ms_p50", "point", 0.5)
	set("server.settle_ms_p50", "settle", 0.5)
	set("obs.scrape_ms_p50", "scrape", 0.5)
	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		b.note("server %s: p50 %s", r, pctlText(byRoute[r], 0.5, "ms"))
	}
	if w.reads.cond > 0 {
		b.set("server.not_modified_ratio", float64(w.reads.notMod)/float64(w.reads.cond))
	}
	c := &w.counters
	if c.cacheHits+c.cacheMisses == 0 {
		return errors.New("/metrics has no results cache counters")
	}
	b.set("server.results_cache_hit_ratio", c.cacheHits/(c.cacheHits+c.cacheMisses))
	b.set("server.stream_dropped", c.dropped)
	setCacheMetrics(b, c.graphs)
	var total, jobs float64
	for _, x := range walls {
		total += x
	}
	for _, s := range b.tr.snapshot() {
		if s.Name == "job" {
			jobs += s.dur().Seconds()
		}
	}
	// A batch is its jobs plus the client loop between them; a job is
	// covered by its server request spans and phases except for the
	// job's own residual (client work, loopback, gaps between requests).
	b.set("trace.residual_s", (total-jobs+w.jobResidual.Seconds())/float64(len(walls)))
	b.set("trace.overhead", median(walls)/untraced)
	b.note("traced batches: %d", len(walls))
	w.jobMs = nil
	return nil
}

// scrape adds the running daemon's counters from one /metrics scrape.
func (w *daemonMixed) scrape() error {
	resp, err := w.sub.Get(w.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				vals[f[0]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	w.counters.cacheHits += vals["cobrawalkd_results_cache_hits_total"]
	w.counters.cacheMisses += vals["cobrawalkd_results_cache_misses_total"]
	w.counters.dropped += vals["cobrawalkd_stream_dropped_events_total"]
	return nil
}

// clientMetrics reports the submitter's and the reader's figures; in a
// traced run they also become the client.* per-layer metrics.
func (w *daemonMixed) clientMetrics(b *bench, traced bool) {
	w.mu.Lock()
	jobMs := append([]float64(nil), w.jobMs...)
	w.mu.Unlock()
	r := &w.reads
	phase := "untraced"
	if traced {
		phase = "traced"
	}
	b.note("%s job_ms_p50: %s  job_ms_p90: %s", phase, pctlText(jobMs, 0.5, "ms"), pctlText(jobMs, 0.9, "ms"))
	b.note("%s read_ms_p50: %s  read_ms_p90: %s  client.read_ms_p99: %s (open loop, %d reads/s, from due time)",
		phase, pctlText(r.latency, 0.5, "ms"), pctlText(r.latency, 0.9, "ms"), pctlText(r.latency, 0.99, "ms"), readRate)
	b.note("%s client.late_ms_p50: %s  client.late_ms_p99: %s  backlog growing: %v (in %d of %d segments)",
		phase, pctlText(r.late, 0.5, "ms"), pctlText(r.late, 0.99, "ms"), 2*r.backlogged > r.segments, r.backlogged, r.segments)
	b.note("job streams that ended without their done event: %d", w.missingDone)
	if !traced {
		return
	}
	b.set("client.job_ms_p50", pctlValue(jobMs, 0.5))
	b.set("client.job_ms_p90", pctlValue(jobMs, 0.9))
	b.set("client.read_ms_p50", pctlValue(r.latency, 0.5))
	b.set("client.read_ms_p90", pctlValue(r.latency, 0.9))
	b.set("client.read_ms_p99", pctlValue(r.latency, 0.99))
	b.set("client.late_ms_p50", pctlValue(r.late, 0.5))
	b.set("client.late_ms_p99", pctlValue(r.late, 0.99))
	b.set("client.reads", float64(len(r.latency)))
	b.set("client.jobs", float64(len(jobMs)))
	b.set("server.stream_missing_done", float64(w.missingDone))
}

// finish reports the client figures of an untraced measurement, then
// shuts the daemon down.
func (w *daemonMixed) finish(b *bench) {
	w.endSegment(b) // not tracing here: only halts the reader
	if len(w.jobMs) > 0 {
		w.clientMetrics(b, false)
	}
	w.shutdown()
}

// shutdown stops the reader, the HTTP server and the manager, waiting
// for each to finish.
func (w *daemonMixed) shutdown() {
	if w.reader != nil {
		w.reader.halt()
		w.reader = nil
	}
	if w.srv != nil {
		w.srv.Shutdown(context.Background())
		w.srv = nil
	}
	if w.mgr != nil {
		w.mgr.Close()
		w.mgr = nil
	}
	for _, c := range []*http.Client{w.sub, w.rd} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}
