package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/server/api"
)

// Config tunes a Server.
type Config struct {
	// Jobs bounds how many optimizations run concurrently (0 =
	// runtime.GOMAXPROCS(0)).
	Jobs int
	// QueueDepth bounds how many requests may be admitted — running
	// plus waiting for a slot — before new ones are rejected with 503
	// (0 = 4*Jobs).
	QueueDepth int
	// Workers is the default per-request engine worker budget when a
	// request does not set its own (0 = all cores).
	Workers int
	// DefaultFlow runs when a request names neither a flow nor a
	// script ("" = "full").
	DefaultFlow string
	// DefaultMode is the cache granularity of requests that do not set
	// their own: api.ModeWhole (one entry per design, the default) or
	// api.ModeDesign (module-sharded entries, incremental resubmits).
	DefaultMode string
	// Cache is the result cache; nil builds a memory-only cache with
	// the default bound.
	Cache *cache.Cache
	// JobsDir persists async jobs to a durable store under this
	// directory: a restarted daemon re-serves finished jobs and re-runs
	// queued or interrupted ones under their original ids. "" keeps
	// jobs in memory only (they die with the process, and long-pruned
	// results report result_evicted instead of re-hydrating).
	JobsDir string
	// JobsTTL bounds how long terminal job records are retained in the
	// durable store: records whose job finished more than JobsTTL ago
	// are collected by the background GC (and at startup). 0 disables
	// the age policy. Ignored without JobsDir.
	JobsTTL time.Duration
	// JobsMaxBytes bounds the durable job store's total size: beyond
	// it, the oldest-finished terminal records are collected until the
	// bound holds. 0 disables the size policy. Ignored without JobsDir.
	JobsMaxBytes int64
	// JobsGCInterval is the background GC period (0 = 1 minute when a
	// policy is set). The startup sweep — which also collects orphaned
	// records left by crashed prior incarnations — runs regardless.
	JobsGCInterval time.Duration
	// Logf receives one structured line per request; nil discards.
	Logf func(format string, args ...any)
	// MaxBodyBytes bounds request bodies (0 = 512 MiB).
	MaxBodyBytes int64
}

// Server serves optimization flows over HTTP. Create with New, expose
// via Handler, stop with Close + Drain.
type Server struct {
	cfg   Config
	cache *cache.Cache
	mux   *http.ServeMux
	start time.Time

	// runCtx outlives individual requests: computations shared through
	// the cache (and async jobs) are canceled by Close, not by the
	// submitting client going away.
	runCtx context.Context
	stop   context.CancelFunc

	sem      chan struct{} // admission: one token per running optimization
	admitted atomic.Int64  // running + waiting requests

	// drainMu makes the draining check and wg.Add one atomic step:
	// without it a request could pass the check, lose the CPU, and
	// wg.Add after Drain's wg.Wait already observed zero — Drain would
	// return with that request still starting.
	drainMu  sync.Mutex
	draining bool // Drain called: admit nothing new
	wg       sync.WaitGroup

	jobs    jobStore
	metrics *serverMetrics

	// gcDone closes when the background job-store GC goroutine (if
	// configured) has exited; Close waits for nothing — the goroutine
	// watches runCtx — but tests join on it.
	gcDone chan struct{}
}

// New builds a Server. The flow registry must be populated (importing
// the repro facade does this).
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Jobs
	}
	if cfg.DefaultFlow == "" {
		cfg.DefaultFlow = "full"
	}
	if cfg.DefaultMode == "" {
		cfg.DefaultMode = api.ModeWhole
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 512 << 20
	}
	c := cfg.Cache
	if c == nil {
		c, _ = cache.New(0, "") // memory-only New cannot fail
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   c,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		runCtx:  ctx,
		stop:    stop,
		sem:     make(chan struct{}, cfg.Jobs),
		metrics: newServerMetrics(),
		gcDone:  make(chan struct{}),
	}
	var disk *diskJobs
	if cfg.JobsDir != "" {
		var err error
		disk, err = newDiskJobs(cfg.JobsDir, s.logf)
		if err != nil {
			// Fail soft, like the cache's disk tier: the daemon still
			// serves, jobs just lose durability. cmd/smartlyd pre-creates
			// the directory so misconfiguration fails fast there.
			s.logf("job store disabled: %v", err)
			disk = nil
		}
	}
	s.jobs.init(disk, s.metrics.jobTransition)
	s.mux.HandleFunc("POST /v1/optimize", s.instrument("optimize", s.handleOptimize))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job", s.handleJob))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("job_events", s.handleJobEvents))
	s.mux.HandleFunc("GET /v1/cache/{id}", s.instrument("cache_get", s.handleCacheGet))
	s.mux.HandleFunc("PUT /v1/cache/{id}", s.instrument("cache_put", s.handleCachePut))
	s.mux.HandleFunc("GET /v1/flows", s.instrument("flows", s.handleFlows))
	s.mux.HandleFunc("GET /v1/passes", s.instrument("passes", s.handlePasses))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.recoverJobs()
	s.startJobsGC()
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (for stats and tests).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Close cancels the run context: running and queued optimizations
// return context errors. Use Drain first for a graceful stop.
func (s *Server) Close() { s.stop() }

// Drain stops admission (new requests are rejected with 503) and then
// blocks until all already-admitted work — sync requests and async jobs
// — has finished, or ctx expires. Without the admission stop a steady
// stream of new requests could keep the wait from ever completing.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// writeJSON writes one JSON response body. An Encode failure at this
// point is almost always the client hanging up mid-response; the status
// line is already written, so all that remains is to log it instead of
// silently swallowing it.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("writing response (status %d): %v", code, err)
	}
}

// writeError writes the error body shared by every non-2xx response.
func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, api.Error{Error: fmt.Sprintf(format, args...)})
}

// request is one validated optimization request: everything derived
// from the body before any queueing happens, so bad requests fail fast
// with 400 and async jobs cannot fail on input errors after the 202.
type request struct {
	req    api.OptimizeRequest
	design *smartly.Design
	flow   *smartly.Flow
	key    cache.Key
	// mode is the resolved cache granularity (api.ModeWhole or
	// api.ModeDesign; the request's own, or the server default).
	mode string
	// progress, when set, receives per-pass events while the request's
	// own computation runs (async jobs feed their event stream with it;
	// cache hits emit none — there is no computation to observe).
	progress func(api.JobEvent)
}

// parseRequest decodes and validates an optimize request body.
func (s *Server) parseRequest(r *http.Request) (*request, error) {
	var req api.OptimizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request body: %w", err)
	}
	return s.validateRequest(req)
}

// validateRequest validates a decoded optimize request. Split from
// parseRequest so job recovery can re-validate persisted request
// records through the same path.
func (s *Server) validateRequest(req api.OptimizeRequest) (*request, error) {
	if len(req.Design) == 0 || string(req.Design) == "null" {
		return nil, fmt.Errorf("request has no design")
	}
	if req.Flow != "" && req.Script != "" {
		return nil, fmt.Errorf("request sets both flow (%q) and script; choose one", req.Flow)
	}
	var flow *smartly.Flow
	var err error
	switch {
	case req.Script != "":
		flow, err = smartly.ParseFlow(req.Script)
	case req.Flow != "":
		flow, err = smartly.NamedFlow(req.Flow)
	default:
		flow, err = smartly.NamedFlow(s.cfg.DefaultFlow)
	}
	if err != nil {
		return nil, err
	}
	mode := req.Mode
	if mode == "" {
		mode = s.cfg.DefaultMode
	}
	if mode != api.ModeWhole && mode != api.ModeDesign {
		return nil, fmt.Errorf("unknown mode %q (want %q or %q)", req.Mode, api.ModeWhole, api.ModeDesign)
	}
	design, err := decodeDesign(req.Design)
	if err != nil {
		return nil, err
	}
	if len(design.Modules()) == 0 {
		return nil, fmt.Errorf("design has no modules")
	}
	for _, m := range design.Modules() {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("invalid design: module %s: %w", m.Name, err)
		}
	}
	return &request{
		req:    req,
		design: design,
		flow:   flow,
		key: cache.Key{
			Netlist: smartly.HashDesign(design),
			Flow:    flow.Canonical(),
			Options: optionsKey(req),
		},
		mode: mode,
	}, nil
}

// decodeDesign parses a request netlist, converting rtlil's
// programming-error panics (zero-width wires, width-mismatched
// connections, ...) into plain errors: on this path the JSON is remote
// input, not programmer-constructed structure, so a malformed body must
// become a 400, never a killed connection.
func decodeDesign(raw []byte) (d *smartly.Design, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("invalid design: %v", r)
		}
	}()
	return smartly.ReadJSON(bytes.NewReader(raw))
}

// optionsKey encodes the request options that change the cached payload.
// Workers is deliberately absent: results are bit-identical for every
// worker budget.
func optionsKey(req api.OptimizeRequest) string {
	if req.Timings {
		return "timings=true"
	}
	return ""
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	pr, err := s.parseRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if pr.req.Async {
		job, err := s.submitJob(pr)
		if err != nil {
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		s.writeJSON(w, http.StatusAccepted, job)
		return
	}
	resp, err := s.execute(r.Context(), pr)
	if err != nil {
		s.writeError(w, errStatus(err), "%v", err)
		return
	}
	// The sync histogram times the whole request up to the write, the
	// response encode included. It observes before writing, so a client
	// that has read its response always finds it counted. Only
	// successes count: 4xx/503 rejections and failed runs would drag the
	// percentiles below what a successful request experiences.
	body, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	s.metrics.optSync.Observe(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(append(body, '\n')); err != nil {
		s.logf("writing response (status %d): %v", http.StatusOK, err)
	}
}

// errServerBusy rejects admissions beyond the queue depth (or during a
// drain); it maps to HTTP 503.
type errServerBusy struct{ reason string }

func (e errServerBusy) Error() string { return e.reason }

// errClientGone marks a synchronous request abandoned by its own
// client (connection closed while waiting for a run slot). It maps to
// 499 — nobody reads that response, but access logs must distinguish
// "the client hung up" from "the server was unavailable" (503), which
// pages someone.
type errClientGone struct{ err error }

func (e errClientGone) Error() string { return fmt.Sprintf("client disconnected: %v", e.err) }
func (e errClientGone) Unwrap() error { return e.err }

// statusClientClosedRequest is nginx's non-standard 499, the de-facto
// convention for "client closed the connection before the response".
const statusClientClosedRequest = 499

func errStatus(err error) int {
	var busy errServerBusy
	if errors.As(err, &busy) {
		return http.StatusServiceUnavailable
	}
	var gone errClientGone
	if errors.As(err, &gone) {
		return statusClientClosedRequest
	}
	// RunDesign wraps cancellation as "module x: context canceled", so
	// match the chain, not the sentinel value. Reaching here the cause
	// is the server's own run context (shutdown), not the client.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// admit reserves a queue position, failing fast when the queue is full
// or the server is draining. The returned release function gives it
// back.
func (s *Server) admit() (func(), error) {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		return nil, errServerBusy{reason: "server draining: not accepting new work"}
	}
	s.wg.Add(1)
	s.drainMu.Unlock()
	if n := s.admitted.Add(1); n > int64(s.cfg.QueueDepth) {
		s.admitted.Add(-1)
		s.wg.Done()
		return nil, errServerBusy{reason: fmt.Sprintf(
			"server busy: job queue full (depth %d); retry later", s.cfg.QueueDepth)}
	}
	return func() {
		s.admitted.Add(-1)
		s.wg.Done()
	}, nil
}

// execute runs one synchronous request end to end: admission, run-slot
// wait, then serve. waitCtx aborts waiting in the queue (client gone);
// the computation itself runs under the server's run context so that a
// result shared via the cache does not die with one impatient client.
func (s *Server) execute(waitCtx context.Context, pr *request) (*api.OptimizeResponse, error) {
	start := time.Now()
	release, err := s.admit()
	if err != nil {
		return nil, err
	}
	defer release()

	select {
	case s.sem <- struct{}{}:
		s.metrics.queueWait.Observe(time.Since(start))
		defer func() { <-s.sem }()
	case <-waitCtx.Done():
		// The client's own context died, not the server: report 499,
		// never the 503 that would make a monitored fleet look
		// unavailable because one caller got impatient.
		return nil, errClientGone{err: waitCtx.Err()}
	case <-s.runCtx.Done():
		return nil, s.runCtx.Err()
	}
	return s.serve(pr)
}

// serve produces the response for a request that holds a run slot:
// from the cache, a coalesced in-flight computation, or its own run.
func (s *Server) serve(pr *request) (*api.OptimizeResponse, error) {
	if pr.mode == api.ModeDesign {
		return s.serveDesign(pr)
	}
	start := time.Now()
	var p payload
	// Decode into a fresh payload each attempt: a mid-stream failure
	// leaves partial state behind, and Unmarshal merges into (rather
	// than replaces) non-nil maps.
	decode := func(raw []byte) error {
		p = payload{}
		return json.Unmarshal(raw, &p)
	}
	status, err := s.serveCached(pr.req.NoCache, pr.key.ID(),
		func() ([]byte, error) { return s.compute(pr) }, decode)
	if err != nil {
		return nil, err
	}
	resp := &api.OptimizeResponse{
		Key:       pr.key.ID(),
		Cache:     status,
		Mode:      api.ModeWhole,
		Flow:      pr.key.Flow,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	resp.Design = p.Design
	resp.Reports = p.Reports
	s.logf("optimize flow=%q key=%s cache=%s elapsed=%s",
		pr.key.Flow, pr.key.ID()[:12], status, time.Since(start).Round(time.Microsecond))
	return resp, nil
}

// serveCached resolves one cacheable unit (a whole design, or one
// module shard): straight computation under noCache, else through
// cache.Do with coalescing. The decoded result lands via decode; a
// cached payload that no longer decodes (disk-tier damage the framing
// did not catch, or a format change across versions) is evicted and
// recomputed once — a slow miss, never a failed request. The returned
// status is "bypass", "hit" or "miss".
func (s *Server) serveCached(noCache bool, id string, compute func() ([]byte, error), decode func([]byte) error) (string, error) {
	if noCache {
		raw, err := compute()
		if err == nil {
			err = decode(raw)
		}
		return "bypass", err
	}
	for attempt := 0; ; attempt++ {
		raw, hit, err := s.cache.Do(id, compute)
		if err != nil {
			return "", err
		}
		if err := decode(raw); err != nil {
			if !hit || attempt > 0 {
				return "", fmt.Errorf("corrupt payload for %s: %w", id, err)
			}
			s.logf("evicting corrupt cached payload key=%s", id[:12])
			s.cache.Delete(id)
			continue
		}
		if hit {
			return "hit", nil
		}
		return "miss", nil
	}
}

// compute runs the flow and serializes the cacheable payload (optimized
// design + per-module reports). Engine panics on pathological netlists
// become errors: the request fails with 500 instead of a dropped
// connection, nothing is cached, and coalesced waiters are released.
func (s *Server) compute(pr *request) ([]byte, error) {
	return s.computeGuarded(func() ([]byte, error) { return s.runFlow(pr) })
}

// computeGuarded converts engine panics into errors for any compute
// function (shared by the whole-design and module-shard paths).
func (s *Server) computeGuarded(fn func() ([]byte, error)) (raw []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("optimization panicked: %v", r)
		}
	}()
	return fn()
}

// requestWorkers resolves a request's effective worker budget
// (0 = all cores, resolved downstream).
func (s *Server) requestWorkers(pr *request) int {
	if pr.req.Workers > 0 {
		return pr.req.Workers
	}
	return s.cfg.Workers
}

// progressOption converts a request's event sink into an engine
// progress option. fallbackModule labels events from single-module runs
// (whose engine context has no module name of its own).
func progressOption(pr *request, fallbackModule string) []smartly.RunOption {
	if pr.progress == nil {
		return nil
	}
	sink := pr.progress
	return []smartly.RunOption{smartly.WithProgress(func(ev smartly.PassEvent) {
		module := ev.Module
		if module == "" {
			module = fallbackModule
		}
		sink(api.JobEvent{
			Type:      api.EventPass,
			Module:    module,
			Pass:      ev.Pass,
			Calls:     ev.Calls,
			ElapsedMS: float64(ev.Last) / float64(time.Millisecond),
		})
	})}
}

func (s *Server) runFlow(pr *request) ([]byte, error) {
	workers := s.requestWorkers(pr)
	opts := []smartly.RunOption{
		smartly.WithContext(s.runCtx),
		smartly.WithWorkers(workers),
	}
	opts = append(opts, progressOption(pr, "")...)
	if pr.req.Timings {
		opts = append(opts, smartly.WithTimings())
	}
	// The design was decoded from this request's body, so it is private
	// to this computation and can be optimized in place.
	reports, err := pr.flow.RunDesign(pr.design, opts...)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := smartly.WriteJSON(&buf, pr.design); err != nil {
		return nil, err
	}
	p := payload{Design: buf.Bytes(), Reports: map[string]api.Report{}}
	for name, rep := range reports {
		p.Reports[name] = fromRunReport(rep)
	}
	return json.Marshal(p)
}

// fromRunReport converts an engine report to its wire form.
func fromRunReport(r smartly.RunReport) api.Report {
	out := api.Report{Changed: r.Changed, DurationNS: int64(r.Duration)}
	for _, p := range r.Passes {
		out.Passes = append(out.Passes, api.PassReport{
			Name:       p.Name,
			Calls:      p.Calls,
			Changed:    p.Changed,
			Counters:   p.Counters,
			DurationNS: int64(p.Duration),
		})
	}
	for _, f := range r.Fixpoints {
		out.Fixpoints = append(out.Fixpoints, api.FixpointReport{
			Name:       f.Name,
			Iterations: f.Iterations,
			Converged:  f.Converged,
		})
	}
	return out
}

// payload is the cacheable core of an OptimizeResponse.
type payload struct {
	Design  json.RawMessage       `json:"design"`
	Reports map[string]api.Report `json:"reports"`
}

// validCacheID admits exactly the ids the peer protocol can legally
// carry: plain lowercase-hex content hashes (Key.ID/ModuleKey.ID are
// 64-char SHA-256; the range leaves room for other digest sizes).
// Everything else is rejected before any tier sees it — ServeMux
// percent-decodes path values, so without this check a crafted request
// ("..%2f..%2f...") hands the disk tier an id with traversal segments
// that filepath.Join would happily clean into a path outside the cache
// directory.
func validCacheID(id string) bool {
	if len(id) < 16 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleCachePut accepts one framed cache entry pushed by a peer
// replica; bodies share the body bound of optimize requests.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validCacheID(id) {
		s.writeError(w, http.StatusBadRequest, "invalid cache id %q: want a lowercase hex content hash", id)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "reading cache entry: %v", err)
		return
	}
	val, ok := cache.Unframe(raw)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "malformed cache entry for %s", id)
		return
	}
	// PutLocal, not Put: a peer push must not echo back out to the
	// remote tier (with two replicas pointed at each other that would
	// ping-pong every entry).
	s.cache.PutLocal(id, val)
	w.WriteHeader(http.StatusNoContent)
}

// handleCacheGet serves one local cache entry to a peer replica, framed
// (magic + checksum) so transport corruption is detected exactly like
// at-rest corruption. Misses are 404, never recomputation: the peer
// protocol is a lookup tier, not a work queue.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validCacheID(id) {
		s.writeError(w, http.StatusBadRequest, "invalid cache id %q: want a lowercase hex content hash", id)
		return
	}
	val, ok := s.cache.GetLocal(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no cache entry for %s", id)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(cache.Frame(val)); err != nil {
		s.logf("writing cache entry %s: %v", id, err)
	}
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	var out []api.FlowInfo
	for _, name := range smartly.FlowNames() {
		f, err := smartly.NamedFlow(name)
		if err != nil {
			continue // unparsable registration; nothing to reflect
		}
		out = append(out, api.FlowInfo{Name: name, Script: f.String(), Canonical: f.Canonical()})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePasses(w http.ResponseWriter, r *http.Request) {
	var out []api.PassInfo
	for _, spec := range smartly.Passes() {
		info := api.PassInfo{Name: spec.Name, Summary: spec.Summary}
		for _, o := range spec.Options {
			info.Options = append(info.Options, api.OptionInfo{
				Key:      o.Key,
				Kind:     o.Kind.String(),
				Default:  o.Default,
				Positive: o.Positive,
				Help:     o.Help,
			})
		}
		out = append(out, info)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Each field is its own consistent snapshot (taken under the
	// respective mutex, or from atomic instruments); the body is
	// assembled once and written once, so a reader never sees a
	// half-updated view even under concurrent traffic.
	h := api.Health{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		Jobs:     s.jobs.stats(),
		Cache:    s.cache.Stats(),
		Metrics:  s.metricsSummary(),
	}
	if s.jobs.disk != nil {
		records, bytes := s.jobs.disk.usage()
		h.Store = &api.StoreStats{Records: records, Bytes: bytes}
	}
	s.writeJSON(w, http.StatusOK, h)
}
