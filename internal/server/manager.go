// Package server is the serving layer behind cmd/cobrawalkd: a job
// manager that runs declarative sweeps (internal/sweep) asynchronously
// on a bounded scheduler, persists every job under a data directory so a
// restarted daemon resumes in-flight work byte-identically, and an HTTP
// API (see NewHandler) exposing the job lifecycle.
//
// A job is one sweep spec. Its lifecycle is
//
//	queued → running → done | failed | cancelled
//
// with at most Config.MaxConcurrent jobs running at once. Each job owns
// a sweep artifact directory (manifest + per-point records +
// results.ndjson), which is both the API's result payload and the
// resume log: on restart the manager re-enqueues every non-terminal job
// with sweep resume semantics, so completed points are never recomputed
// and the final artifacts match an uninterrupted run byte for byte.
// All jobs share one graph cache (internal/graphcache), so repeated
// topologies across jobs skip the dominant graph-construction cost.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/obs"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Record is the persisted job metadata (job.json in the job directory).
// The sweep results themselves live in the job's artifact directory; the
// record is only bookkeeping, so its bytes carry no determinism
// guarantee (timestamps differ between a run and its resume — the
// artifacts do not).
type Record struct {
	ID    string     `json:"id"`
	Spec  sweep.Spec `json:"spec"`
	State State      `json:"state"`
	// Error holds the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// Points is the expanded grid size.
	Points   int        `json:"points"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Events is the job's event log (queued → running → per-point
	// progress → terminal): its first 192 events and its last 64,
	// refreshed on every persist, so a stuck or slow job is diagnosable
	// from job.json alone. Served live at /v1/jobs/{id}/events; restore
	// seeds the log from it. In memory the log lives in the stream hub,
	// so a job's own record leaves Events empty.
	Events []obs.Event `json:"events,omitempty"`
}

// Status is a live snapshot of a job: the record plus progress counters.
type Status struct {
	Record
	// PointsDone counts completed points (resumed ones included).
	PointsDone int `json:"points_done"`
	// PointsResumed counts points loaded from artifacts rather than
	// computed — non-zero after a daemon restart mid-job.
	PointsResumed int `json:"points_resumed,omitempty"`
}

// job is the manager's in-memory view of one job. rec, userCancel and
// outcome are guarded by Manager.mu; the counters are atomics because
// status reads load them while the job's goroutine counts points.
type job struct {
	rec        Record
	dir        string
	cancel     context.CancelFunc
	ctx        context.Context
	userCancel bool
	done       atomic.Int64
	resumed    atomic.Int64
	// lastEventPersist throttles progress-driven job.json writes
	// (unix nanos of the last write; at most one per second).
	lastEventPersist atomic.Int64
	// pointStart is the running point's start time; the sweep runs one
	// point at a time, on the job's goroutine.
	pointStart time.Time
	// outcome is the terminal state settle has decided, set before rec
	// holds it; from then on Cancel refuses the job as terminal.
	outcome State
}

func (j *job) artifactsDir() string { return filepath.Join(j.dir, artifactsDirName) }

const (
	jobsDirName      = "jobs"
	jobFileName      = "job.json"
	artifactsDirName = "artifacts"
)

// Config configures a Manager. Only Dir is required.
type Config struct {
	// Dir is the data directory: one subdirectory per job under
	// Dir/jobs, holding job.json plus the sweep artifacts.
	Dir string
	// MaxConcurrent bounds how many jobs run at once (default 1). Queued
	// jobs start in submission order as slots free up.
	MaxConcurrent int
	// TrialWorkers is passed to every job's sweep run (default: the
	// per-job CPU budget; kernel processes get the budget's slack as
	// intra-trial workers — see sweep.Options). A scheduling knob only —
	// it never affects results.
	TrialWorkers int
	// CacheBudget is the shared graph cache's vertex budget
	// (0 = graphcache.DefaultBudget).
	CacheBudget int
	// GraphDir, when non-empty, enables the cache's disk tier: built
	// graphs spill there as graphstore files and cache misses mmap them
	// back instead of re-running generators. Pre-populate it with
	// cmd/graphbuild to make even the first job's graph load O(1).
	GraphDir string
	// GraphMadvise is the set of madvise hints the disk tier applies
	// when mmapping store files back (see graphstore.Advice). A load
	// latency knob only; ignored without GraphDir.
	GraphMadvise graphstore.Advice
	// Logger receives structured job-lifecycle logs with job_id fields
	// (nil = discard). Request logs ride the same logger via NewHandler.
	Logger *slog.Logger
	// SnapshotInterval spaces each running point's mid-ensemble digest
	// snapshots broadcast to stream subscribers
	// (<= 0 = sweep.DefaultSnapshotInterval). An observability knob
	// only — per the sweep Options contract it never affects results.
	SnapshotInterval time.Duration
}

// Manager owns the job set: submission, the bounded scheduler,
// persistence and restart recovery. Construct with NewManager; always
// Close to stop in-flight work before discarding.
type Manager struct {
	cfg    Config
	cache  *graphcache.Cache
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{} // scheduler slots: len == running jobs
	start  time.Time
	logger *slog.Logger
	met    *serverMetrics
	// hub fans job events out to SSE subscribers; readCache dedups
	// completed-artifact reads by spec hash.
	hub       *hub
	readCache *readCache

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job IDs in creation order
	nextID int
}

// NewManager opens (or creates) the data directory and recovers its job
// set: terminal jobs load as history, and every queued or running job is
// re-enqueued with resume semantics — completed points load from their
// artifacts instead of recomputing.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("server: Config.Dir is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, jobsDirName), 0o755); err != nil {
		return nil, fmt.Errorf("server: creating data dir: %w", err)
	}
	cache, err := graphcache.NewWithOptions(graphcache.Options{
		BudgetVertices: cfg.CacheBudget,
		StoreDir:       cfg.GraphDir,
		Madvise:        cfg.GraphMadvise,
	})
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:    cfg,
		cache:  cache,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		start:  time.Now(),
		logger: cfg.Logger,
		jobs:   make(map[string]*job),
		nextID: 1,
	}
	m.met = newServerMetrics(m, obs.NewRegistry())
	m.hub = newHub(streamBuffer, m.met.streamDropped, m.met.streamSlow)
	m.readCache = newReadCache(0, m.met.cacheHits, m.met.cacheMisses)
	m.ctx, m.cancel = context.WithCancel(context.Background())
	if err := m.restore(); err != nil {
		return nil, err
	}
	return m, nil
}

// pointProgress is the stream payload of point-start and point events.
type pointProgress struct {
	Point   string `json:"point"`
	Done    int    `json:"done,omitempty"`
	Total   int    `json:"total,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
}

// snapshotEvent is the stream payload of snapshot events: a running
// point's partial digests plus the publish timestamp (T, unix nanos)
// that streaming clients subtract from their receive time to measure
// fan-out latency.
type snapshotEvent struct {
	Point        string                             `json:"point"`
	Trials       int                                `json:"trials"`
	Total        int                                `json:"total"`
	T            int64                              `json:"t"`
	Metrics      map[string]stats.DigestSummary     `json:"metrics,omitempty"`
	Trajectories map[string]stats.TrajectorySummary `json:"trajectories,omitempty"`
}

// event publishes one step to the job's event log, which numbers it
// and streams it (see hub.publish), so the /events?after poll cursor
// and the SSE event ids are one space. payload is marshalled as the
// stream data (nil = empty object).
func (m *Manager) event(j *job, name, detail string, payload any) {
	var data json.RawMessage
	if payload != nil {
		if blob, err := json.Marshal(payload); err == nil {
			data = blob
		}
	}
	m.hub.publish(j.rec.ID, name, detail, data)
}

// restore loads every persisted job, seeding its event log from
// job.json, seals the logs of settled jobs and re-enqueues the others
// in ID order (submission order of the previous process).
func (m *Manager) restore() error {
	jobsDir := filepath.Join(m.cfg.Dir, jobsDirName)
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return fmt.Errorf("server: scanning %s: %w", jobsDir, err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Slice(ids, func(a, b int) bool { return jobSeq(ids[a]) < jobSeq(ids[b]) })
	for _, id := range ids {
		if jobSeq(id) == 0 {
			m.logger.Warn("ignoring foreign directory in jobs dir", "dir", id, "jobs_dir", jobsDir)
			continue
		}
		// Every parseable job ID advances the counter — including ones
		// skipped below — so a new submission can never reuse a skipped
		// directory's ID and overwrite whatever the operator should see.
		if seq := jobSeq(id); seq >= m.nextID {
			m.nextID = seq + 1
		}
		dir := filepath.Join(jobsDir, id)
		var rec Record
		if err := readJSONFile(filepath.Join(dir, jobFileName), &rec); err != nil {
			// Availability over completeness: one unreadable record must
			// not keep every healthy job (and the daemon) down. The
			// directory is left untouched for the operator to inspect.
			m.logger.Warn("skipping job: unreadable record", "job_id", id, "err", err)
			continue
		}
		if rec.ID != id {
			m.logger.Warn("skipping job: record names another id", "job_id", id, "record_id", rec.ID)
			continue
		}
		m.hub.seed(id, rec.Events)
		rec.Events = nil
		j := m.newJob(rec, dir)
		m.jobs[id] = j
		m.order = append(m.order, id)
		if rec.State.Terminal() {
			m.hub.close(id)
		} else {
			// The previous process died mid-job (or before starting it):
			// back to the queue; completed points resume from artifacts.
			j.rec.State = StateQueued
			m.event(j, "recovered", fmt.Sprintf("re-enqueued after restart as %s", rec.State), nil)
			m.met.jobsTotal.With(string(StateQueued)).Inc()
			m.logger.Info("job recovered, resuming", "job_id", id, "points", rec.Points, "prev_state", string(rec.State))
			m.enqueue(j)
		}
	}
	return nil
}

// jobSeq parses the numeric sequence out of a job ID ("j0012" → 12),
// returning 0 for foreign directory names so they sort first and never
// advance the ID counter.
func jobSeq(id string) int {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// errFileFamily refuses "file:<path>" families. A job spec is remote
// input, and the pseudo-family would make the daemon open any host path
// its client names; the check runs before validation, whose store-header
// read would also tell the client whether that path exists. Operators
// serve pre-built graphs through the disk tier instead.
var errFileFamily = errors.New(`server: "file:" families are not accepted; ` +
	"pre-build the graph with cmd/graphbuild into the daemon's -graph-dir and submit its family, size and degree")

// Submit validates spec, persists a new queued job and schedules it.
// The job is registered in memory only after its record is safely on
// disk, so a failed persist leaves no phantom job (and no job directory
// for restore to trip on — an allocated ID is simply skipped).
func (m *Manager) Submit(spec sweep.Spec) (Status, error) {
	for _, fam := range spec.Families {
		if strings.HasPrefix(fam, "file:") {
			return Status{}, errFileFamily
		}
	}
	pts, err := spec.Points()
	if err != nil {
		return Status{}, err
	}

	m.mu.Lock()
	if m.ctx.Err() != nil {
		m.mu.Unlock()
		return Status{}, errors.New("server: manager is shut down")
	}
	id := fmt.Sprintf("j%04d", m.nextID)
	m.nextID++
	m.mu.Unlock()

	j := m.newJob(Record{
		ID:      id,
		Spec:    spec,
		State:   StateQueued,
		Points:  len(pts),
		Created: time.Now().UTC(),
	}, filepath.Join(m.cfg.Dir, jobsDirName, id))
	m.event(j, "queued", fmt.Sprintf("%d points", len(pts)), nil)
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return Status{}, fmt.Errorf("server: creating job dir: %w", err)
	}
	if err := m.persist(j); err != nil {
		os.Remove(j.dir) // best-effort: leave no half-created job behind
		return Status{}, err
	}

	m.mu.Lock()
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()
	m.met.jobsTotal.With(string(StateQueued)).Inc()
	m.logger.Info("job queued", "job_id", id, "points", len(pts))
	m.enqueue(j)
	return m.snapshot(j), nil
}

// newJob wires a job around its record and lifecycle context.
func (m *Manager) newJob(rec Record, dir string) *job {
	j := &job{rec: rec, dir: dir}
	j.ctx, j.cancel = context.WithCancel(m.ctx)
	return j
}

// enqueue schedules j: wait for a scheduler slot, run the sweep, settle
// the terminal state. Cancellation while queued settles immediately.
func (m *Manager) enqueue(j *job) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		select {
		case <-j.ctx.Done():
			m.settle(j, j.ctx.Err()) // cancelled (or shut down) while queued
			return
		case m.sem <- struct{}{}:
		}
		defer func() { <-m.sem }()
		if err := j.ctx.Err(); err != nil {
			m.settle(j, err)
			return
		}

		now := time.Now().UTC()
		m.mu.Lock()
		j.rec.State = StateRunning
		j.rec.Started = &now
		m.mu.Unlock()
		m.event(j, "running", "", m.snapshot(j))
		if err := m.persist(j); err != nil {
			m.settle(j, err)
			return
		}
		m.met.jobsTotal.With(string(StateRunning)).Inc()
		m.logger.Info("job running", "job_id", j.rec.ID)

		total := j.rec.Points
		_, err := sweep.Run(j.ctx, j.rec.Spec, sweep.Options{
			Dir:          j.artifactsDir(),
			Resume:       true, // no-op on a fresh dir; resumes after a crash
			TrialWorkers: m.cfg.TrialWorkers,
			// Each job gets its slice of the machine: with MaxConcurrent
			// slots filled, GOMAXPROCS trial workers per job would run
			// MaxConcurrent × GOMAXPROCS goroutines hot — the budget keeps
			// the whole daemon at one worker per core regardless of how
			// many jobs are co-scheduled.
			MaxProcs:   m.jobMaxProcs(),
			GraphCache: m.cache,
			PointStart: func(pt sweep.Point) {
				j.pointStart = time.Now()
				m.event(j, "point-start", pt.ID, pointProgress{Point: pt.ID, Total: total})
				m.logger.Debug("point start", "job_id", j.rec.ID, "point", pt.ID)
			},
			PointDone: func(res sweep.Result, resumed bool) {
				done := j.done.Add(1)
				m.met.pointsTotal.Inc()
				m.met.trialsTotal.Add(uint64(res.Trials))
				detail := fmt.Sprintf("%s (%d/%d)", res.ID, done, total)
				if resumed {
					j.resumed.Add(1)
					m.met.pointsResumed.Inc()
					detail += " resumed"
				} else {
					m.met.pointSeconds.Observe(time.Since(j.pointStart).Seconds())
				}
				m.event(j, "point", detail, pointProgress{
					Point: res.ID, Done: int(done), Total: total, Resumed: resumed,
				})
				// Each completed trajectory metric streams as a band
				// event whose data is exactly one /trajectories NDJSON
				// line, so a stream client reassembles the same bytes
				// the poll endpoint serves.
				for _, name := range slices.Sorted(maps.Keys(res.Trajectories)) {
					m.event(j, "band", res.ID+"/"+name, trajectoryBand{
						ID: res.ID, Metric: name, TrajectorySummary: res.Trajectories[name],
					})
				}
				m.logger.Debug("point done", "job_id", j.rec.ID, "point", res.ID,
					"done", done, "total", total, "resumed", resumed)
				m.persistProgress(j)
			},
			Snapshot: func(s sweep.Snapshot) {
				begin := time.Now()
				m.event(j, "snapshot", fmt.Sprintf("%s %d/%d trials", s.Point.ID, s.Trials, s.Point.Trials), snapshotEvent{
					Point: s.Point.ID, Trials: s.Trials, Total: s.Point.Trials,
					T: begin.UnixNano(), Metrics: s.Metrics, Trajectories: s.Trajectories,
				})
				m.met.snapshotSeconds.Observe(time.Since(begin).Seconds())
				m.persistProgress(j)
			},
			SnapshotInterval: m.cfg.SnapshotInterval,
		})
		m.settle(j, err)
	}()
}

// persistProgress refreshes job.json with the latest events, at most
// once per second per job, so a daemon killed mid-sweep leaves a
// current event log on disk without turning every point into a write.
func (m *Manager) persistProgress(j *job) {
	const every = int64(time.Second)
	now := time.Now().UnixNano()
	last := j.lastEventPersist.Load()
	if now-last < every || !j.lastEventPersist.CompareAndSwap(last, now) {
		return
	}
	if err := m.persist(j); err != nil {
		m.logger.Warn("persisting progress", "job_id", j.rec.ID, "err", err)
	}
}

// settle records a job's terminal state: done when the sweep ran to
// completion (err == nil proves that — a late cancel that raced the
// finish must not hide finished results), cancelled when the user
// asked, or — when the manager itself is shutting down — no transition
// at all, so the persisted queued/running state survives for the next
// process to resume. The outcome is decided into a copy of the record;
// the terminal event, the job metrics and job.json all carry it before
// the copy becomes the job's record, so a job never reads as settled
// while its event log, counters or job.json lag behind.
func (m *Manager) settle(j *job, err error) {
	m.mu.Lock()
	rec := j.rec
	switch {
	case err == nil:
		rec.State = StateDone
		rec.Error = ""
	case j.userCancel:
		rec.State = StateCancelled
		rec.Error = ""
	case m.ctx.Err() != nil:
		// Shutdown, not an outcome: leave the persisted state alone.
		m.mu.Unlock()
		m.logger.Info("job interrupted by shutdown", "job_id", rec.ID)
		return
	default:
		rec.State = StateFailed
		rec.Error = err.Error()
	}
	now := time.Now().UTC()
	rec.Finished = &now
	j.outcome = rec.State
	m.mu.Unlock()
	var ran time.Duration
	if rec.Started != nil {
		ran = now.Sub(*rec.Started)
	}

	m.event(j, string(rec.State), rec.Error, j.status(rec))
	m.met.jobsTotal.With(string(rec.State)).Inc()
	if ran > 0 {
		m.met.jobSeconds.Observe(ran.Seconds())
	}
	if err := m.writeRecord(j, rec); err != nil {
		m.logger.Warn("persisting terminal state", "job_id", rec.ID, "err", err)
	}
	m.mu.Lock()
	j.rec = rec
	m.mu.Unlock()
	m.hub.close(rec.ID)
	if rec.Error != "" {
		m.logger.Info("job settled", "job_id", rec.ID, "state", string(rec.State), "err", rec.Error, "ran_seconds", ran.Seconds())
	} else {
		m.logger.Info("job settled", "job_id", rec.ID, "state", string(rec.State), "ran_seconds", ran.Seconds())
	}
}

// persist writes the job's current record atomically (see writeRecord).
func (m *Manager) persist(j *job) error {
	m.mu.Lock()
	rec := j.rec
	m.mu.Unlock()
	return m.writeRecord(j, rec)
}

// writeRecord writes rec as the job's job.json, with the job's event
// log as its Events.
func (m *Manager) writeRecord(j *job, rec Record) error {
	rec.Events = m.hub.events(rec.ID, 0)
	return writeJSONFile(filepath.Join(j.dir, jobFileName), rec)
}

// jobMaxProcs is one job's share of the machine: GOMAXPROCS divided by
// the concurrent job slots (at least 1). The sweep layer resolves its
// trial and kernel workers against this budget, so a daemon with
// MaxConcurrent=4 on 16 cores runs each job 4-wide instead of every job
// 16-wide.
func (m *Manager) jobMaxProcs() int {
	per := runtime.GOMAXPROCS(0) / m.cfg.MaxConcurrent
	if per < 1 {
		per = 1
	}
	return per
}

// snapshot assembles a Status under the lock. It carries no events —
// they have their own endpoint (and job.json) and would bloat every
// list response otherwise.
func (m *Manager) snapshot(j *job) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.status(j.rec)
}

// status pairs rec with the job's progress counters.
func (j *job) status(rec Record) Status {
	return Status{
		Record:        rec,
		PointsDone:    int(j.done.Load()),
		PointsResumed: int(j.resumed.Load()),
	}
}

// Get returns the live status of one job.
func (m *Manager) Get(id string) (Status, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return m.snapshot(j), true
}

// List returns every job's status in creation order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = m.snapshot(j)
	}
	return out
}

// Cancel requests cancellation of a queued or running job. The state
// moves to cancelled once in-flight work has stopped; cancelling a
// terminal job is an error.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("server: no job %s", id)
	}
	if state := cmp.Or(j.outcome, j.rec.State); state.Terminal() {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("server: job %s already %s", id, state)
	}
	j.userCancel = true
	// Emitted under m.mu, so it lands before any terminal event: settle
	// decides the outcome under the same lock.
	m.event(j, "cancel-requested", "", nil)
	m.mu.Unlock()
	j.cancel()
	m.logger.Info("job cancellation requested", "job_id", id)
	return m.snapshot(j), nil
}

// ResultsMeta returns a done job's results.ndjson path plus the strong
// ETag for its artifacts; before the job is done it reports the
// current state in the error. The ETag is the spec hash — shared by
// every job with the same normalised spec, whose completed artifacts
// are byte-identical by the determinism contract — so conditional GETs
// and the read cache dedupe identical reads across jobs, not just
// across clients of one job.
func (m *Manager) ResultsMeta(id string) (path, etag string, err error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	var state State
	var spec sweep.Spec
	if ok {
		state = j.rec.State
		spec = j.rec.Spec
	}
	m.mu.Unlock()
	if !ok {
		return "", "", fmt.Errorf("server: no job %s", id)
	}
	if state != StateDone {
		return "", "", fmt.Errorf("server: job %s is %s, results are available once done", id, state)
	}
	return filepath.Join(j.artifactsDir(), "results.ndjson"), `"` + spec.Hash() + `"`, nil
}

// Subscribe attaches a live-stream subscriber to a job: it returns the
// replay window's events with Seq > after, a channel of subsequent
// events — closed when the job settles or the manager shuts down — and
// a cancel func the caller must invoke when done reading. Subscribing
// to a settled job returns its replay and an immediately-closed
// channel: settle seals the topic after publishing the terminal event,
// and restore seals the topics of jobs it loads settled.
func (m *Manager) Subscribe(id string, after uint64) ([]StreamEvent, <-chan StreamEvent, func(), error) {
	m.mu.Lock()
	_, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, nil, fmt.Errorf("server: no job %s", id)
	}
	replay, ch, cancel := m.hub.subscribe(id, after)
	return replay, ch, cancel, nil
}

// WatchSubscribe attaches a subscriber to the all-jobs watch stream: a
// firehose of every job's live events with no replay (multi-job resume
// has no single cursor). The channel closes on manager shutdown.
func (m *Manager) WatchSubscribe() (<-chan StreamEvent, func()) {
	_, ch, cancel := m.hub.subscribeTopic(m.hub.watch, ^uint64(0))
	return ch, cancel
}

// streamSent records one SSE frame actually written to a subscriber
// (the cobrawalkd_stream_events_total / _bytes_total counters).
func (m *Manager) streamSent(frameBytes int) {
	m.met.streamEvents.Inc()
	m.met.streamBytes.Add(uint64(frameBytes))
}

// CacheStats snapshots the shared graph cache counters.
func (m *Manager) CacheStats() graphcache.Stats { return m.cache.Stats() }

// Registry is the manager's metrics registry (served at GET /metrics).
func (m *Manager) Registry() *obs.Registry { return m.met.reg }

// EventsAfter returns the job's logged events with Seq > after — GET
// /v1/jobs/{id}/events?after=N; after 0 lists the whole log, which for
// a restored job starts with the events persisted in job.json. The
// seqs are the same numbers the SSE stream uses as event ids, so a
// client can switch between polling and streaming without losing its
// place.
func (m *Manager) EventsAfter(id string, after uint64) ([]obs.Event, error) {
	m.mu.Lock()
	_, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: no job %s", id)
	}
	return m.hub.events(id, after), nil
}

// Counts returns the number of jobs in each state.
func (m *Manager) Counts() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[State]int)
	for _, j := range m.jobs {
		out[j.rec.State]++
	}
	return out
}

// Uptime reports how long the manager has been running.
func (m *Manager) Uptime() time.Duration { return time.Since(m.start) }

// Close stops the manager: in-flight sweeps cancel promptly and their
// persisted queued/running states are left intact, so a new Manager on
// the same directory resumes them. Every stream topic is sealed, so
// attached SSE handlers end their responses instead of hanging a
// server shutdown. Close blocks until every job goroutine has
// returned; it is idempotent.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
	m.hub.closeAll()
}
