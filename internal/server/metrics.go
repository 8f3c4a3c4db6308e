package server

import (
	"cobrawalk/internal/obs"
)

// serverMetrics is the manager's metric family set, registered once per
// manager on its private registry. Counters and histograms are written
// at job/point transitions — never on the trial hot path — and the
// gauges are scrape-time reads of manager and graph-cache state, so
// instrumentation observes the computation without perturbing it.
type serverMetrics struct {
	reg  *obs.Registry
	http *obs.HTTPMetrics

	// jobsTotal counts lifecycle transitions by entered state; a job
	// contributes one "queued", at most one "running" and exactly one
	// terminal increment.
	jobsTotal *obs.CounterVec
	// jobSeconds observes running→terminal wall time.
	jobSeconds *obs.Histogram
	// pointsTotal / pointsResumed / trialsTotal count sweep progress
	// across all jobs; rate(trialsTotal) is the serving-path trials/sec.
	pointsTotal   *obs.Counter
	pointsResumed *obs.Counter
	trialsTotal   *obs.Counter
	// pointSeconds observes per-point compute time (resumed points are
	// loads, not computes, and are excluded).
	pointSeconds *obs.Histogram

	// Stream fan-out families. streamEvents/streamBytes count SSE
	// frames and bytes actually written to subscribers; streamDropped
	// counts events discarded by the drop-slowest policy and
	// streamSlow counts subscribers that dropped at least once.
	streamEvents  *obs.Counter
	streamBytes   *obs.Counter
	streamDropped *obs.Counter
	streamSlow    *obs.Counter
	// snapshotSeconds observes the encode+broadcast cost of one
	// mid-ensemble digest snapshot.
	snapshotSeconds *obs.Histogram
	// cacheHits/cacheMisses count dedup-cached completed reads.
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
}

// jobBuckets span the job/point durations the daemon sees: millisecond
// smoke points to multi-minute sweeps.
var jobBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

// snapshotBuckets span snapshot publish costs: microseconds for
// scalar-only payloads up to tens of milliseconds for full trajectory
// bands fanned out to thousands of subscribers.
var snapshotBuckets = []float64{0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1}

// newServerMetrics registers every serving-layer family on reg: job and
// point transition counters/histograms, scrape-time gauges over the
// manager (queue depth, running jobs, slots — running/slots is worker
// utilization), the graph-cache stats adapter, and the Go runtime
// families.
func newServerMetrics(m *Manager, reg *obs.Registry) *serverMetrics {
	sm := &serverMetrics{
		reg:  reg,
		http: obs.NewHTTPMetrics(reg, "cobrawalkd"),
		jobsTotal: reg.CounterVec("cobrawalkd_jobs_total",
			"Job lifecycle transitions, by entered state.", "state"),
		jobSeconds: reg.Histogram("cobrawalkd_job_seconds",
			"Job wall time from running to terminal, in seconds.", jobBuckets),
		pointsTotal: reg.Counter("cobrawalkd_sweep_points_total",
			"Sweep points completed across all jobs (resumed included)."),
		pointsResumed: reg.Counter("cobrawalkd_sweep_points_resumed_total",
			"Sweep points loaded from artifacts instead of recomputed."),
		trialsTotal: reg.Counter("cobrawalkd_sweep_trials_total",
			"Simulation trials folded into completed points across all jobs."),
		pointSeconds: reg.Histogram("cobrawalkd_sweep_point_seconds",
			"Per-point compute time in seconds (resumed points excluded).", jobBuckets),
		streamEvents: reg.Counter("cobrawalkd_stream_events_total",
			"SSE events written to stream subscribers across all streams."),
		streamBytes: reg.Counter("cobrawalkd_stream_bytes_total",
			"SSE frame bytes written to stream subscribers."),
		streamDropped: reg.Counter("cobrawalkd_stream_dropped_events_total",
			"Events discarded by the drop-slowest policy (subscriber buffer full)."),
		streamSlow: reg.Counter("cobrawalkd_stream_slow_clients_total",
			"Subscribers that fell behind far enough to drop at least one event."),
		snapshotSeconds: reg.Histogram("cobrawalkd_snapshot_seconds",
			"Encode+broadcast cost of one mid-ensemble digest snapshot, in seconds.", snapshotBuckets),
		cacheHits: reg.Counter("cobrawalkd_results_cache_hits_total",
			"Completed-artifact reads served from the dedup read cache."),
		cacheMisses: reg.Counter("cobrawalkd_results_cache_misses_total",
			"Completed-artifact reads that loaded from disk."),
	}
	reg.GaugeFunc("cobrawalkd_stream_subscribers",
		"Currently attached SSE stream subscribers (all jobs plus /v1/watch).",
		func() float64 { return float64(m.hub.subscribers()) })
	reg.GaugeFunc("cobrawalkd_results_cache_entries",
		"Payloads resident in the dedup read cache.",
		func() float64 { e, _ := m.readCache.stats(); return float64(e) })
	reg.GaugeFunc("cobrawalkd_results_cache_bytes",
		"Bytes resident in the dedup read cache.",
		func() float64 { _, b := m.readCache.stats(); return float64(b) })
	reg.GaugeFunc("cobrawalkd_jobs_queue_depth",
		"Jobs waiting for a scheduler slot.",
		func() float64 { return float64(m.Counts()[StateQueued]) })
	reg.GaugeFunc("cobrawalkd_jobs_running",
		"Jobs currently running (cobrawalkd_jobs_running / cobrawalkd_job_slots is worker utilization).",
		func() float64 { return float64(m.Counts()[StateRunning]) })
	reg.GaugeFunc("cobrawalkd_job_slots",
		"Configured concurrent job slots (Config.MaxConcurrent).",
		func() float64 { return float64(m.cfg.MaxConcurrent) })

	// Graph-cache stats adapter: the same counters /v1/healthz's cache
	// block serves, as scrape-time reads of the shared cache.
	reg.CounterFunc("cobrawalkd_graphcache_hits_total",
		"Graph cache builds served from cache (waiters on in-flight builds included).",
		func() float64 { return float64(m.CacheStats().Hits) })
	reg.CounterFunc("cobrawalkd_graphcache_misses_total",
		"Graph cache requests that started a build.",
		func() float64 { return float64(m.CacheStats().Misses) })
	reg.CounterFunc("cobrawalkd_graphcache_evictions_total",
		"Graphs evicted to fit the vertex budget.",
		func() float64 { return float64(m.CacheStats().Evictions) })
	reg.CounterFunc("cobrawalkd_graphcache_disk_hits_total",
		"Cache misses served by mmapping a store file from the disk tier (-graph-dir).",
		func() float64 { return float64(m.CacheStats().DiskHits) })
	reg.CounterFunc("cobrawalkd_graphcache_disk_writes_total",
		"Built graphs spilled to disk-tier store files.",
		func() float64 { return float64(m.CacheStats().DiskWrites) })
	reg.GaugeFunc("cobrawalkd_graphcache_entries",
		"Graphs resident in the cache.",
		func() float64 { return float64(m.CacheStats().Entries) })
	reg.GaugeFunc("cobrawalkd_graphcache_vertices",
		"Total vertices resident in the cache (the budgeted unit).",
		func() float64 { return float64(m.CacheStats().Vertices) })

	obs.RegisterRuntime(reg)
	return sm
}
