package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"cobrawalk/internal/buildinfo"
	"cobrawalk/internal/obs"
	"cobrawalk/internal/process"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

// trajectoryBand is one line of the /v1/jobs/{id}/trajectories NDJSON
// stream: a point's trajectory metric with its per-round quantile bands,
// lifted verbatim from the job's persisted sweep records so the served
// bands match the cmd/sweep artifacts for the same spec byte for byte.
type trajectoryBand struct {
	ID     string `json:"id"`
	Metric string `json:"metric"`
	stats.TrajectorySummary
}

// NewHandler exposes a Manager over HTTP. The API (all JSON):
//
//	POST   /v1/jobs              submit a sweep spec (the cmd/sweep -spec
//	                             format, verbatim) → 202 + job status
//	GET    /v1/jobs              list jobs in creation order
//	GET    /v1/jobs/{id}         one job's live status
//	DELETE /v1/jobs/{id}         request cancellation
//	GET    /v1/jobs/{id}/results stream results.ndjson once done. Served
//	                             with a spec-hash ETag: identical specs
//	                             revalidate with If-None-Match → 304 and
//	                             repeated reads collapse onto one cached
//	                             artifact load
//	GET    /v1/jobs/{id}/trajectories
//	                             stream NDJSON per-round quantile bands
//	                             (one line per point × trajectory metric:
//	                             rounds, n, mean, p10/p50/p90), derived
//	                             from the same artifacts as /results and
//	                             ETag-cached the same way
//	GET    /v1/jobs/{id}/events  the job's event log (queued → running
//	                             → per-point progress → terminal: its
//	                             first 192 and last 64 events), for
//	                             post-mortems of stuck or slow jobs.
//	                             ?after=<seq> returns only events past
//	                             that cursor; the response's "next" is
//	                             the cursor for the next poll, in the
//	                             same sequence space as SSE ids
//	GET    /v1/jobs/{id}/stream  live SSE stream (text/event-stream) of
//	                             the job: lifecycle events, mid-ensemble
//	                             digest snapshots and completed bands,
//	                             with event ids for Last-Event-ID (or
//	                             ?after=) resume; ends after the
//	                             terminal event
//	GET    /v1/watch             live SSE firehose of every job's events
//	                             (data lines carry the full envelope
//	                             with job attribution)
//	GET    /v1/processes         the process registry
//	GET    /v1/families          the graph family registry
//	GET    /v1/metrics           the sweep metric registry
//	GET    /v1/healthz           liveness + uptime + build identity +
//	                             job counts + queue depth + the shared
//	                             graph cache counters ("cache")
//	GET    /v1/version           build identity of the binary
//	GET    /metrics              Prometheus text exposition: HTTP
//	                             request latency/status by route, job
//	                             lifecycle and queue depth, sweep
//	                             points/trials, graph cache, Go runtime
//
// Every request is wrapped in the observability middleware: an
// X-Request-Id (minted or propagated), a per-route latency/status
// metric, and one structured log line on the manager's logger.
//
// Errors are {"error": "..."} with a conventional status code: 400 for
// bad specs, 404 for unknown jobs, 409 for lifecycle conflicts (results
// before done, cancel after terminal).
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
		dec.DisallowUnknownFields()
		var spec sweep.Spec
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing spec: %w", err))
			return
		}
		st, err := m.Submit(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": m.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		serveArtifact(m, w, r, "results", renderResults)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trajectories", func(w http.ResponseWriter, r *http.Request) {
		serveArtifact(m, w, r, "trajectories", renderTrajectories)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		var after uint64
		if s := r.URL.Query().Get("after"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad after cursor %q: %w", s, err))
				return
			}
			after = v
		}
		events, err := m.EventsAfter(id, after)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		// next is the cursor for the next incremental poll: pass it
		// back as ?after= to receive only newer events.
		next := after
		for _, ev := range events {
			if ev.Seq > next {
				next = ev.Seq
			}
		}
		w.Header().Set("Cache-Control", "no-store")
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "events": events, "next": next})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		replay, ch, cancel, err := m.Subscribe(r.PathValue("id"), sseCursor(r))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		defer cancel()
		serveSSE(m, w, r, replay, ch, false)
	})
	mux.HandleFunc("GET /v1/watch", func(w http.ResponseWriter, r *http.Request) {
		ch, cancel := m.WatchSubscribe()
		defer cancel()
		serveSSE(m, w, r, nil, ch, true)
	})
	mux.HandleFunc("GET /v1/processes", func(w http.ResponseWriter, r *http.Request) {
		type proc struct {
			Name       string `json:"name"`
			Branched   bool   `json:"branched"`
			AcceptsRho bool   `json:"accepts_rho"`
			Summary    string `json:"summary"`
		}
		var out []proc
		for _, info := range process.All() {
			out = append(out, proc{info.Name, info.Branched, info.AcceptsRho, info.Summary})
		}
		writeJSON(w, http.StatusOK, map[string]any{"processes": out})
	})
	mux.HandleFunc("GET /v1/families", func(w http.ResponseWriter, r *http.Request) {
		type fam struct {
			Name    string `json:"name"`
			Degreed bool   `json:"degreed"`
		}
		var out []fam
		for _, f := range sweep.Families() {
			out = append(out, fam{f.Name, f.Degreed})
		}
		writeJSON(w, http.StatusOK, map[string]any{"families": out})
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		type metric struct {
			Name       string `json:"name"`
			Trajectory bool   `json:"trajectory"`
			Summary    string `json:"summary"`
		}
		var out []metric
		for _, m := range sweep.Metrics() {
			out = append(out, metric{m.Name, m.Trajectory, m.Summary})
		}
		writeJSON(w, http.StatusOK, map[string]any{"metrics": out})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		counts := m.Counts()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"uptime_seconds": int64(m.Uptime().Seconds()),
			"build":          buildinfo.Read(),
			"jobs":           counts,
			"queue_depth":    counts[StateQueued],
			"running":        counts[StateRunning],
			"cache":          m.CacheStats(),
		})
	})
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, buildinfo.Read())
	})
	mux.Handle("GET /metrics", m.Registry().Handler())
	return obs.Instrument(mux, m.met.http, m.logger, obs.MuxRoute(mux))
}

// sseCursor extracts the resume position of a stream request: the SSE
// standard Last-Event-ID header (sent automatically by EventSource on
// reconnect) or an explicit ?after= query. Unparseable cursors mean
// "from the start of the replay window".
func sseCursor(r *http.Request) uint64 {
	s := r.Header.Get("Last-Event-ID")
	if s == "" {
		s = r.URL.Query().Get("after")
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// serveSSE writes a text/event-stream response: the replay first, then
// live events as they arrive — batched per wakeup so a burst costs one
// flush — with heartbeat comments keeping idle connections alive
// through proxies. It returns when the event channel closes (the job
// settled or the manager shut down) or the client disconnects.
func serveSSE(m *Manager, w http.ResponseWriter, r *http.Request, replay []StreamEvent, ch <-chan StreamEvent, watch bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by this connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	write := func(ev StreamEvent) bool {
		frame := ev.frame
		if watch {
			frame = ev.watchFrame
		}
		if frame == nil {
			frame = renderSSE(ev, watch)
		}
		n, err := w.Write(frame)
		m.streamSent(n)
		return err == nil
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	fl.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // stream complete: the terminal event is already out
			}
			if !write(ev) {
				return
			}
			for drained := false; !drained; {
				select {
				case ev, ok := <-ch:
					if !ok {
						fl.Flush()
						return
					}
					if !write(ev) {
						return
					}
				default:
					drained = true
				}
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := w.Write([]byte(": ping\n\n")); err != nil {
				return
			}
			fl.Flush()
		case <-ctx.Done():
			return
		}
	}
}

// serveArtifact serves a completed job's derived NDJSON payload with
// the dedup-read machinery: a spec-hash ETag (If-None-Match → 304),
// the single-flight read cache for payloads worth retaining, and a
// periodically-flushed disk stream for oversized artifacts.
func serveArtifact(m *Manager, w http.ResponseWriter, r *http.Request, kind string, render func(io.Writer, string) error) {
	path, etag, err := m.ResultsMeta(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if st, err := os.Stat(path); err == nil && st.Size() > maxReadCacheEntry {
		// Too big to retain: stream straight from disk, flushing as it
		// goes so slow readers see bytes incrementally.
		render(newFlushWriter(w), path)
		return
	}
	blob, err := m.readCache.get(kind+":"+etag, func() ([]byte, error) {
		var buf bytes.Buffer
		if err := render(&buf, path); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("reading %s: %w", kind, err))
		return
	}
	w.Write(blob)
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
}

// renderResults copies results.ndjson verbatim.
func renderResults(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// renderTrajectories lifts the trajectory blocks out of results.ndjson
// as one trajectoryBand line per point × metric (metrics in sorted
// order). The encoding is shared with the stream's band events, so a
// client that concatenates band event data reproduces these bytes.
func renderTrajectories(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(w)
	dec := json.NewDecoder(f)
	for dec.More() {
		var res sweep.Result
		if err := dec.Decode(&res); err != nil {
			return err
		}
		for _, name := range slices.Sorted(maps.Keys(res.Trajectories)) {
			if err := enc.Encode(trajectoryBand{ID: res.ID, Metric: name, TrajectorySummary: res.Trajectories[name]}); err != nil {
				return err
			}
		}
	}
	return nil
}

// etagMatch implements If-None-Match: "*" matches any representation;
// otherwise any listed entry equal to etag matches (weak validators
// compare by opaque value).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

// flushEvery is the streamed-artifact flush granularity.
const flushEvery = 64 << 10

// flushWriter flushes the underlying ResponseWriter after every
// flushEvery bytes, so long NDJSON responses reach readers
// incrementally instead of pooling in server buffers until EOF.
type flushWriter struct {
	w  io.Writer
	fl http.Flusher
	n  int
}

func newFlushWriter(w http.ResponseWriter) io.Writer {
	if fl, ok := w.(http.Flusher); ok {
		return &flushWriter{w: w, fl: fl}
	}
	return w
}

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.n += n
	if f.n >= flushEvery {
		f.n = 0
		f.fl.Flush()
	}
	return n, err
}

// statusFor maps manager errors onto HTTP codes by their shape: unknown
// job → 404, lifecycle conflicts → 409.
func statusFor(err error) int {
	msg := err.Error()
	if strings.Contains(msg, "no job") {
		return http.StatusNotFound
	}
	return http.StatusConflict
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
