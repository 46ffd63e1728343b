package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/server/api"
)

// The metrics facility instruments the serving path end to end:
// request counts by endpoint and status, sync/async optimize latency,
// the stages of a sync optimize and queue-wait histograms, job
// lifecycle transitions, cache tier outcomes, job-store GC work and
// live SSE subscriber counts — all
// exposed on GET /metrics in the Prometheus text format and summarized
// (latency percentiles, store usage) in /healthz. Counters that mirror
// an externally maintained source (the cache's stats, the job store's
// on-disk usage) are synced at scrape time, so the hot path pays only
// its own atomic increments.

// serverMetrics is one server's instrument set.
type serverMetrics struct {
	reg *metrics.Registry

	// requests counts every served HTTP request (the labeled per
	// endpoint/status counters live in reg; this one total feeds the
	// healthz summary without walking the registry).
	requests metrics.Counter

	// optSync observes successful synchronous optimize requests from
	// the top of handleOptimize to just before the response write; the
	// write itself and the HTTP transport are outside it. stages splits
	// the same span: each successful sync request observes every stage
	// it ran, and those stages sum to its optSync observation. optAsync
	// observes an async job's run span: from its background goroutine
	// starting (queued, holding an admission slot) to its terminal
	// state.
	optSync  *metrics.Histogram
	stages   [numStages]*metrics.Histogram
	optAsync *metrics.Histogram
	// queueWait observes the time an admitted request (sync or async)
	// waited for a run slot.
	queueWait *metrics.Histogram

	// sse gauges currently connected events subscribers.
	sse *metrics.Gauge
}

// Metric names. The smartlyd_ prefix namespaces the daemon in a shared
// Prometheus; docs/api.md documents each.
const (
	mRequests       = "smartlyd_requests_total"
	mOptimize       = "smartlyd_optimize_seconds"
	mStage          = "smartlyd_request_stage_seconds"
	mQueueWait      = "smartlyd_queue_wait_seconds"
	mJobTransitions = "smartlyd_job_transitions_total"
	mJobs           = "smartlyd_jobs"
	mJobRecords     = "smartlyd_job_records"
	mJobStoreBytes  = "smartlyd_job_store_bytes"
	mJobsGC         = "smartlyd_jobs_gc_total"
	mSSE            = "smartlyd_sse_subscribers"
	mCacheHits      = "smartlyd_cache_hits_total"
	mCacheMisses    = "smartlyd_cache_misses_total"
	mCacheErrors    = "smartlyd_cache_errors_total"
	mCacheCoalesced = "smartlyd_cache_coalesced_total"
	mCacheEvictions = "smartlyd_cache_evictions_total"
	mCachePuts      = "smartlyd_cache_puts_total"
	mCacheEntries   = "smartlyd_cache_entries"
	mCacheBytes     = "smartlyd_cache_bytes"
	mUptime         = "smartlyd_uptime_seconds"
)

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		optSync: reg.Histogram(mOptimize,
			"successful sync optimize requests, from the start of the handler to just before the response write: the sum of the stages in smartlyd_request_stage_seconds that the request ran",
			metrics.Labels{"kind": "sync"}),
		optAsync: reg.Histogram(mOptimize, "",
			metrics.Labels{"kind": "async"}),
		queueWait: reg.Histogram(mQueueWait,
			"time admitted requests waited for a run slot", nil),
		sse: reg.Gauge(mSSE, "currently connected events subscribers", nil),
	}
	for i, name := range api.RequestStages {
		help := ""
		if i == 0 {
			help = "stages of successful sync optimize requests, each observed once per request that ran it: decode (request body), memo (exact-bytes digest and memo), parse (ReadJSON), validate, hash (HashDesign and cache key), queue (admission and run-slot wait), serve (cache or flow run) and encode (response body)"
		}
		m.stages[i] = reg.Histogram(mStage, help, metrics.Labels{"stage": name})
	}
	return m
}

// Stages of a sync optimize request, indexing api.RequestStages. A memo
// hit runs decode, memo, queue, serve and encode; a fast path that
// falls back runs queue and serve twice, and its stage observations
// sum both visits.
const (
	stageDecode   = iota // request body decode
	stageMemo            // exact-bytes digest, memo lookup and fill
	stageParse           // flow resolution and rtlil.ReadJSON
	stageValidate        // Module.Validate of every module
	stageHash            // HashDesign and the cache key
	stageQueue           // admission and run-slot wait
	stageServe           // cache tiers, coalescing or the flow run
	stageEncode          // response body
	numStages     = len(api.RequestStages)
)

// stageClock splits one sync optimize request into consecutive stages:
// each lap charges the time since the previous lap to a stage, so the
// stages a request ran sum exactly to its span. A nil clock ignores
// laps (job recovery validates requests outside any handler).
type stageClock struct {
	start, last time.Time
	spent       [numStages]time.Duration
	ran         [numStages]bool
}

func newStageClock() *stageClock {
	now := time.Now()
	return &stageClock{start: now, last: now}
}

func (c *stageClock) lap(stage int) {
	if c == nil {
		return
	}
	now := time.Now()
	c.spent[stage] += now.Sub(c.last)
	c.ran[stage] = true
	c.last = now
}

// observeSync records one successful sync optimize: each stage it ran,
// then its span, which those stages sum to.
func (m *serverMetrics) observeSync(c *stageClock) {
	for i, ran := range c.ran {
		if ran {
			m.stages[i].Observe(c.spent[i])
		}
	}
	m.optSync.Observe(c.last.Sub(c.start))
}

// request records one served HTTP request.
func (m *serverMetrics) request(endpoint string, status int) {
	m.requests.Inc()
	m.reg.Counter(mRequests, "HTTP requests served, by endpoint and status",
		metrics.Labels{"endpoint": endpoint, "status": strconv.Itoa(status)}).Inc()
}

// jobTransition records one job lifecycle transition (queued, running,
// done, failed — including re-queues on recovery).
func (m *serverMetrics) jobTransition(state string) {
	m.reg.Counter(mJobTransitions, "job lifecycle transitions, by entered state",
		metrics.Labels{"state": state}).Inc()
}

// gcCollected records job-store GC work by reason (ttl, bytes, orphan,
// stray).
func (m *serverMetrics) gcCollected(reason string, n int) {
	if n <= 0 {
		return
	}
	m.reg.Counter(mJobsGC, "job-store records collected by GC, by reason",
		metrics.Labels{"reason": reason}).Add(uint64(n))
}

// syncCache mirrors one cache stats snapshot into the registry. The
// stats struct is already a consistent snapshot (taken under the
// cache's own mutex), so the mirrored counters agree with each other.
func (m *serverMetrics) syncCache(st cache.Stats) {
	hit := func(tier string, v uint64) {
		m.reg.Counter(mCacheHits, "result cache hits, by tier",
			metrics.Labels{"tier": tier}).Set(v)
	}
	hit("memory", st.Hits)
	hit("disk", st.DiskHits)
	hit("remote", st.RemoteHits)
	m.reg.Counter(mCacheMisses, "result cache lookups that missed every tier", nil).Set(st.Misses)
	m.reg.Counter(mCacheErrors, "result cache tier failures, by tier",
		metrics.Labels{"tier": "disk"}).Set(st.DiskBad)
	m.reg.Counter(mCacheErrors, "", metrics.Labels{"tier": "remote"}).Set(st.RemoteErrors)
	m.reg.Counter(mCacheCoalesced, "lookups coalesced onto an identical in-flight computation", nil).Set(st.Coalesced)
	m.reg.Counter(mCacheEvictions, "memory-tier LRU evictions", nil).Set(st.Evictions)
	m.reg.Counter(mCachePuts, "values stored in the cache", nil).Set(st.Puts)
	m.reg.Gauge(mCacheEntries, "memory-tier entries", nil).Set(int64(st.Entries))
	m.reg.Gauge(mCacheBytes, "memory-tier bytes", metrics.Labels{"bound": "current"}).Set(st.Bytes)
	m.reg.Gauge(mCacheBytes, "", metrics.Labels{"bound": "max"}).Set(st.MaxBytes)
}

// syncServer mirrors the server-owned scrape-time values: job counts by
// state, durable-store usage and uptime.
func (s *Server) syncServerMetrics() {
	m := s.metrics
	js := s.jobs.stats()
	jobGauge := func(state string, v int) {
		m.reg.Gauge(mJobs, "jobs in the in-memory store, by state",
			metrics.Labels{"state": state}).Set(int64(v))
	}
	jobGauge(api.JobQueued, js.Queued)
	jobGauge(api.JobRunning, js.Running)
	jobGauge(api.JobDone, js.Done)
	jobGauge(api.JobFailed, js.Failed)
	if s.jobs.disk != nil {
		records, bytes := s.jobs.disk.usage()
		m.reg.Gauge(mJobRecords, "records in the durable job store", nil).Set(int64(records))
		m.reg.Gauge(mJobStoreBytes, "bytes in the durable job store", nil).Set(bytes)
	}
	m.reg.Gauge(mUptime, "seconds since the daemon started", nil).
		Set(int64(time.Since(s.start).Seconds()))
	m.syncCache(s.cache.Stats())
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncServerMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.logf("writing /metrics: %v", err)
	}
}

// metricsSummary digests the instrument set for /healthz.
func (s *Server) metricsSummary() *api.MetricsSummary {
	m := s.metrics
	stages := make(map[string]api.LatencySummary, numStages)
	for i, name := range api.RequestStages {
		stages[name] = latencySummary(m.stages[i])
	}
	return &api.MetricsSummary{
		Requests:       m.requests.Value(),
		OptimizeSync:   latencySummary(m.optSync),
		Stages:         stages,
		OptimizeAsync:  latencySummary(m.optAsync),
		QueueWait:      latencySummary(m.queueWait),
		SSESubscribers: m.sse.Value(),
	}
}

func latencySummary(h *metrics.Histogram) api.LatencySummary {
	sn := h.Snapshot()
	return api.LatencySummary{
		Count: sn.Count,
		P50MS: toMillis(sn.P50),
		P95MS: toMillis(sn.P95),
		P99MS: toMillis(sn.P99),
		MaxMS: toMillis(sn.Max),
		SumMS: toMillis(sn.Sum),
	}
}

func toMillis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// flushWriter adds Flush passthrough for handlers that stream (SSE).
// It is a distinct type so a wrapped connection only advertises
// http.Flusher when the underlying one does — handleJobEvents feature-
// detects with a type assertion.
type flushWriter struct {
	*statusWriter
	f http.Flusher
}

func (w flushWriter) Flush() { w.f.Flush() }

// instrument wraps a handler to count (endpoint, status) on completion.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		var ww http.ResponseWriter = sw
		if f, ok := w.(http.Flusher); ok {
			ww = flushWriter{sw, f}
		}
		h(ww, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.metrics.request(endpoint, sw.status)
	}
}
