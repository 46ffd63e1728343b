package opt

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Ctx is the engine context threaded through every pass. It carries the
// caller's context.Context (cancellation and deadlines), the worker
// budget for parallel stages (SAT-mux query batches, design-level and
// harness fan-out), the run report, a progress sink and a structured
// log function.
//
// A nil *Ctx is valid everywhere and behaves like a background context
// with a single worker, no report and no sinks, so sequential callers
// and tests need not construct one.
type Ctx struct {
	ctx      context.Context
	workers  int
	logf     func(format string, args ...any)
	progress func(PassEvent)
	module   string // label stamped on progress events ("" = unlabeled)

	mu  sync.Mutex
	rep *reportCollector
}

// PassEvent is one structured progress observation: a pass invocation
// that just completed. Unlike the RunReport (a snapshot at the end of a
// run), events stream while the run is in flight, so a serving layer
// can surface live progress for long optimizations. Events carry wall
// time regardless of the timings option — they are progress telemetry,
// never part of a deterministic report or cached payload.
type PassEvent struct {
	// Module labels the module being optimized (set by design-level
	// runs; "" for single-module runs).
	Module string
	// Pass is the pass (or fixpoint wrapper) name.
	Pass string
	// Calls counts completed invocations of this pass so far, Last the
	// duration of the invocation that just finished, Total the summed
	// duration across invocations — all within this module's context.
	Calls int
	Last  time.Duration
	Total time.Duration
}

// Config configures a new engine context.
type Config struct {
	// Workers bounds the goroutines used by parallel stages. 0 means
	// runtime.GOMAXPROCS(0); 1 forces fully sequential execution.
	// Results are identical for every value (deterministic merges).
	Workers int
	// Logf receives structured progress lines; nil discards them.
	Logf func(format string, args ...any)
	// Progress receives one PassEvent per completed pass invocation;
	// nil discards them. Calls are serialized.
	Progress func(PassEvent)
	// Module labels this context's progress events.
	Module string
}

// NewCtx builds an engine context on top of parent (nil = Background).
func NewCtx(parent context.Context, cfg Config) *Ctx {
	if parent == nil {
		parent = context.Background()
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	logf := cfg.Logf
	if logf != nil {
		// Serialize: design-level runs call the sink from many goroutines.
		var mu sync.Mutex
		inner := logf
		logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			inner(format, args...)
		}
	}
	progress := cfg.Progress
	if progress != nil {
		// Serialize for the same reason; child contexts route through
		// their parent's wrapped sink, so cross-module events serialize
		// on the parent mutex.
		var mu sync.Mutex
		inner := progress
		progress = func(ev PassEvent) {
			mu.Lock()
			defer mu.Unlock()
			inner(ev)
		}
	}
	return &Ctx{ctx: parent, workers: w, logf: logf, progress: progress,
		module: cfg.Module, rep: newReportCollector()}
}

// Background returns an engine context over context.Background with the
// default worker budget.
func Background() *Ctx { return NewCtx(context.Background(), Config{}) }

// Context returns the underlying context.Context (never nil).
func (c *Ctx) Context() context.Context {
	if c == nil || c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Err reports the cancellation state of the underlying context.
func (c *Ctx) Err() error {
	if c == nil || c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// Workers returns the worker budget (always >= 1).
func (c *Ctx) Workers() int {
	if c == nil || c.workers < 1 {
		return 1
	}
	return c.workers
}

// Logf emits one log line to the configured sink; no-op without one.
func (c *Ctx) Logf(format string, args ...any) {
	if c == nil || c.logf == nil {
		return
	}
	c.logf(format, args...)
}

// StartPass records the start of a named pass and returns the function
// that records its completion (returning the measured duration): it
// counts the call and emits the log line and progress event. Safe for
// concurrent use.
func (c *Ctx) StartPass(name string) func() time.Duration {
	if c == nil {
		return func() time.Duration { return 0 }
	}
	start := time.Now()
	return func() time.Duration {
		d := time.Since(start)
		c.mu.Lock()
		calls, total := c.rep.recordCall(name, d)
		c.mu.Unlock()
		c.Logf("pass=%s last=%s calls=%d total=%s", name, d, calls, total)
		if c.progress != nil {
			c.progress(PassEvent{Module: c.module, Pass: name, Calls: calls, Last: d, Total: total})
		}
		return d
	}
}

// recordPass merges one leaf-pass invocation into the run report.
func (c *Ctx) recordPass(name string, res Result, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.recordPass(name, res, d)
}

// recordFixpoint merges one fixpoint invocation into the run report.
func (c *Ctx) recordFixpoint(name string, iters int, converged bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.recordFixpoint(name, iters, converged)
}
