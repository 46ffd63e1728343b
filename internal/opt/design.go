package opt

import (
	"fmt"
	"time"

	"repro/internal/rtlil"
)

// Design-level shard scheduler. A multi-module design is optimized by
// fanning its modules out to a bounded worker pool; the caller's worker
// budget is split between the two parallelism axes — how many modules
// run concurrently ("module jobs") and how many goroutines each
// module's own parallel stages may use (SAT-mux query batches) — so the
// total goroutine count stays within the budget instead of
// multiplying. Results are deterministic: modules are disjoint
// netlists, per-module reports are collected in their own contexts and
// merged in design order, so the optimized design and every report are
// bit-identical to a fully serial run for any split.

// SplitWorkers splits a total worker budget between module-level
// fan-out and per-module intra-pass parallelism: as many module jobs as
// modules (capped by the budget), with the remaining budget divided
// evenly among them. The split never oversubscribes: moduleJobs *
// perModule <= max(total, 1).
func SplitWorkers(total, modules int) (moduleJobs, perModule int) {
	if total < 1 {
		total = 1
	}
	if modules < 1 {
		modules = 1
	}
	moduleJobs = total
	if moduleJobs > modules {
		moduleJobs = modules
	}
	perModule = total / moduleJobs
	if perModule < 1 {
		perModule = 1
	}
	return moduleJobs, perModule
}

// ModuleRun is the outcome of one module of a RunDesign call, in design
// order.
type ModuleRun struct {
	// Module is the optimized module (the design's module, mutated in
	// place).
	Module *rtlil.Module
	// Report is the module's structured run report, with Duration set
	// to the module's wall time (callers strip it for deterministic
	// comparison).
	Report RunReport
	// Err is the module's run error, nil on success.
	Err error
}

// RunDesign executes the flow over every module of the design under c,
// splitting c's worker budget between concurrently optimized modules
// and each module's intra-pass parallelism (see SplitWorkers). Each
// module runs under its own child context so its report is per-module;
// its log lines and progress events go to c's sinks. The returned runs
// parallel d.Modules(). The error is the first per-module error in
// design order, wrapped with the module name, or the context error when
// the run was canceled mid-shard (modules not yet started are skipped;
// finished ones are individually sound, so the design stays equivalent
// to the input).
func (f *Flow) RunDesign(c *Ctx, d *rtlil.Design) ([]ModuleRun, error) {
	if f == nil {
		return nil, fmt.Errorf("opt: nil flow")
	}
	// Compile once up front: a flow that cannot compile must fail before
	// any module is mutated, and per-module compiles below cannot fail
	// differently (Compile is deterministic).
	if _, err := f.Compile(); err != nil {
		return nil, err
	}
	mods := d.Modules()
	runs := make([]ModuleRun, len(mods))
	moduleJobs, perModule := SplitWorkers(c.Workers(), len(mods))
	ForEach(c.Context(), moduleJobs, len(mods), func(i int) {
		mc := NewCtx(c.Context(), Config{Workers: perModule, Logf: c.sharedLogf(),
			Progress: c.sharedProgress(), Module: mods[i].Name})
		start := time.Now()
		res, err := f.Run(mc, mods[i])
		rep := mc.Report()
		rep.Changed = res.Changed
		rep.Duration = time.Since(start)
		runs[i] = ModuleRun{Module: mods[i], Report: rep, Err: err}
	})
	var firstErr error
	for i := range runs {
		if runs[i].Err != nil {
			firstErr = fmt.Errorf("module %s: %w", mods[i].Name, runs[i].Err)
			break
		}
	}
	if firstErr == nil {
		firstErr = c.Err()
	}
	return runs, firstErr
}

// sharedLogf exposes the context's (already serialized) log sink for
// child contexts of a design run.
func (c *Ctx) sharedLogf() func(format string, args ...any) {
	if c == nil {
		return nil
	}
	return c.logf
}

// sharedProgress exposes the context's (already serialized) progress
// sink for child contexts of a design run, so per-module events from
// concurrent shards funnel into one ordered stream.
func (c *Ctx) sharedProgress() func(PassEvent) {
	if c == nil {
		return nil
	}
	return c.progress
}
