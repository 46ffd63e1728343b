// Package api defines the JSON wire types of the smartlyd HTTP API,
// shared by the server (internal/server) and the Go client (client).
// docs/api.md documents the endpoints and error codes.
package api

import (
	"encoding/json"
	"time"

	"repro/internal/cache"
)

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	// Design is the netlist to optimize, in the Yosys-compatible JSON
	// format (smartly.WriteJSON / yosys write_json).
	Design json.RawMessage `json:"design"`
	// Flow names a registered flow (GET /v1/flows). Mutually exclusive
	// with Script; with neither set the server's default flow runs.
	Flow string `json:"flow,omitempty"`
	// Script is a flow script ("opt_expr; satmux(conflicts=64); ...").
	Script string `json:"script,omitempty"`
	// Workers bounds the per-request worker budget of parallel engine
	// stages (0 = server default). In design mode the budget is split
	// between concurrently optimized modules and each module's
	// intra-pass stages. The optimized netlist is bit-identical for
	// every value, which is why Workers is not part of the cache key.
	Workers int `json:"workers,omitempty"`
	// Mode selects the caching granularity: ModeWhole caches the whole
	// optimized design under one key, ModeDesign shards the design into
	// per-module cache entries so a resubmission with one edited module
	// re-optimizes only that module. "" uses the server's default mode.
	// Both modes produce bit-identical designs and reports.
	Mode string `json:"mode,omitempty"`
	// Timings includes wall-clock durations in the run reports. Timed
	// responses are cached separately (the recorded timings are those
	// of the run that populated the entry).
	Timings bool `json:"timings,omitempty"`
	// NoCache bypasses the result cache entirely: no lookup, no store,
	// no request coalescing. Used by latency benchmarks.
	NoCache bool `json:"no_cache,omitempty"`
	// Async enqueues the request and returns a Job immediately; poll
	// GET /v1/jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
}

// Request/response cache-granularity modes.
const (
	// ModeWhole caches one payload per (design, flow, options) triple.
	ModeWhole = "whole"
	// ModeDesign shards the design: one cache entry per (module, flow,
	// options) triple, merged deterministically into the response.
	ModeDesign = "design"
)

// ModuleCacheStats aggregates the per-module cache outcomes of one
// design-mode request.
type ModuleCacheStats struct {
	// Hits counts modules served from the module tier (including
	// coalesced in-flight computations), Misses modules this request
	// optimized itself.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// OptimizeResponse is the body of a successful synchronous optimization
// (and the Result of a finished async Job).
type OptimizeResponse struct {
	// Key is the content-addressed cache key of the request:
	// (canonical netlist hash, normalized flow script, option set).
	Key string `json:"key"`
	// Cache reports how the response was produced: "hit" (served from
	// cache, including requests coalesced onto an identical in-flight
	// computation), "miss" (computed and stored) or "bypass"
	// (no_cache). Design-mode responses aggregate their modules: "hit"
	// when every module hit, "miss" when none did and "partial"
	// otherwise.
	Cache string `json:"cache"`
	// Mode is the cache granularity that served the request (ModeWhole
	// or ModeDesign).
	Mode string `json:"mode,omitempty"`
	// CacheByModule maps module names to their per-module cache
	// outcome ("hit", "miss" or "bypass"); design mode only.
	CacheByModule map[string]string `json:"cache_by_module,omitempty"`
	// ModuleCache aggregates CacheByModule; design mode only.
	ModuleCache *ModuleCacheStats `json:"module_cache,omitempty"`
	// Flow is the normalized flow script that ran.
	Flow string `json:"flow"`
	// ElapsedMS is the server-side wall time of this request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Design is the optimized netlist, same format as the request.
	Design json.RawMessage `json:"design"`
	// Reports maps module names to their structured run reports.
	Reports map[string]Report `json:"reports"`
}

// Report mirrors smartly.RunReport on the wire.
type Report struct {
	Changed    bool             `json:"changed"`
	DurationNS int64            `json:"duration_ns,omitempty"`
	Passes     []PassReport     `json:"passes,omitempty"`
	Fixpoints  []FixpointReport `json:"fixpoints,omitempty"`
}

// PassReport mirrors smartly.PassReport on the wire.
type PassReport struct {
	Name       string         `json:"name"`
	Calls      int            `json:"calls"`
	Changed    bool           `json:"changed,omitempty"`
	Counters   map[string]int `json:"counters,omitempty"`
	DurationNS int64          `json:"duration_ns,omitempty"`
}

// FixpointReport mirrors smartly.FixpointReport on the wire.
type FixpointReport struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
}

// Counters flattens the per-pass counters into one merged map — the
// same shape as smartly.RunReport.Counters.
func (r Report) Counters() map[string]int {
	out := map[string]int{}
	for _, p := range r.Passes {
		for k, v := range p.Counters {
			out[k] += v
		}
	}
	return out
}

// Job states reported by GET /v1/jobs/{id}.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
	// JobResultEvicted is a done job whose result payload was pruned
	// from memory and cannot be re-hydrated from the durable job store
	// (no store configured, or the record is gone). It is a distinct
	// terminal state so a poller is never handed "done" with a nil
	// Result as if it were success; resubmitting the request usually
	// re-serves the payload from the result cache.
	JobResultEvicted = "result_evicted"
)

// Job is the body of an async submission (202) and of GET /v1/jobs/{id}.
type Job struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Error is set when State is "failed" or "result_evicted".
	Error string `json:"error,omitempty"`
	// Result is set when State is "done".
	Result *OptimizeResponse `json:"result,omitempty"`
	// SubmittedAt is the server-side enqueue time.
	SubmittedAt time.Time `json:"submitted_at"`
}

// Job event types streamed by GET /v1/jobs/{id}/events.
const (
	// EventState is a job lifecycle transition (queued → running →
	// done|failed).
	EventState = "state"
	// EventPass is one completed pass invocation of the running
	// optimization.
	EventPass = "pass"
)

// JobEvent is one server-sent event of GET /v1/jobs/{id}/events. Seq
// numbers events 1.. within one incarnation of a job; Epoch counts the
// incarnations (1 at submission, +1 each time a restarted daemon
// adopts the job from its durable store, which restarts Seq at 1). The
// SSE id is "epoch-seq": a client reconnecting with Last-Event-ID from
// an older epoch is replayed from the start instead of resuming past a
// Seq the new incarnation may never reach — without the epoch, a
// re-run that emits fewer events than the client already saw would
// never deliver its terminal state.
type JobEvent struct {
	Epoch int    `json:"epoch"`
	Seq   int    `json:"seq"`
	Type  string `json:"type"`
	// State and Error are set on EventState events.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Module, Pass, Calls and ElapsedMS are set on EventPass events:
	// the module being optimized, the pass that completed, how many
	// invocations of it have completed in that module, and the
	// wall-clock of the invocation that just finished.
	Module    string  `json:"module,omitempty"`
	Pass      string  `json:"pass,omitempty"`
	Calls     int     `json:"calls,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// JobStats summarizes the job store for /healthz.
type JobStats struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
}

// StoreStats describes the durable job store's on-disk footprint, so
// operators can watch the GC keep it bounded.
type StoreStats struct {
	// Records is the number of record files, Bytes their total size.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// LatencySummary digests one latency histogram for /healthz. The full
// bucket detail is on GET /metrics; percentiles here are histogram
// estimates (within one bucket growth factor of exact).
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// MetricsSummary is the /healthz digest of the daemon's /metrics
// instruments.
type MetricsSummary struct {
	// Requests counts every HTTP request served since startup.
	Requests uint64 `json:"requests"`
	// OptimizeSync summarizes successful synchronous optimize requests
	// from the start of the handler to just before the response write
	// (body decode, ReadJSON, Validate, HashDesign, run-slot wait, serve
	// and the response encode); OptimizeAsync the run span of async jobs
	// (background start to terminal state); QueueWait the run-slot wait
	// of admitted requests.
	OptimizeSync  LatencySummary `json:"optimize_sync"`
	OptimizeAsync LatencySummary `json:"optimize_async"`
	QueueWait     LatencySummary `json:"queue_wait"`
	// SSESubscribers is the number of currently connected events
	// streams.
	SSESubscribers int64 `json:"sse_subscribers"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status   string      `json:"status"`
	UptimeMS int64       `json:"uptime_ms"`
	Jobs     JobStats    `json:"jobs"`
	Cache    cache.Stats `json:"cache"`
	// Store reports the durable job store's footprint; absent when jobs
	// are memory-only.
	Store *StoreStats `json:"store,omitempty"`
	// Metrics summarizes the /metrics instruments.
	Metrics *MetricsSummary `json:"metrics,omitempty"`
}

// FlowInfo is one entry of GET /v1/flows.
type FlowInfo struct {
	Name string `json:"name"`
	// Script is the flow's registered script, Canonical its normalized
	// cache-key form.
	Script    string `json:"script"`
	Canonical string `json:"canonical"`
}

// PassInfo is one entry of GET /v1/passes.
type PassInfo struct {
	Name    string       `json:"name"`
	Summary string       `json:"summary"`
	Options []OptionInfo `json:"options,omitempty"`
}

// OptionInfo describes one script option of a pass.
type OptionInfo struct {
	Key      string `json:"key"`
	Kind     string `json:"kind"`
	Default  string `json:"default,omitempty"`
	Positive bool   `json:"positive,omitempty"`
	Help     string `json:"help,omitempty"`
}

// Error is the body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}
