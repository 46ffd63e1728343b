package opt

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/rtlil"
)

// Result reports what a pass did.
type Result struct {
	Changed bool
	// Details maps counters (e.g. "cells_removed") to values.
	Details map[string]int
	// Stages maps the pass' internal stages (smartly_satmux: index,
	// extract, infer, sim, sat) to their busy time, summed over worker
	// goroutines. It is wall-clock telemetry, like the pass' duration:
	// RunReport.StripTimings drops it.
	Stages map[string]time.Duration
}

func newResult() Result { return Result{Details: map[string]int{}} }

func (r *Result) bump(key string, n int) {
	if n != 0 {
		r.Details[key] += n
		r.Changed = true
	}
}

func (r *Result) merge(o Result) {
	if o.Changed {
		r.Changed = true
	}
	for k, v := range o.Details {
		r.Details[k] += v
	}
}

// String renders the result counters deterministically.
func (r Result) String() string {
	keys := make([]string, 0, len(r.Details))
	for k := range r.Details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, r.Details[k])
	}
	return strings.Join(parts, " ")
}

// Pass is a module-level optimization. Run optimizes m in place under
// the engine context c; a nil c means sequential background execution.
type Pass interface {
	Name() string
	Run(c *Ctx, m *rtlil.Module) (Result, error)
}

// Composite marks passes that orchestrate other passes through a
// nested RunScript (fixpoint wrappers, the combined smartly pass):
// their children report their own counters, so RunScript skips the
// wrapper when building the per-pass run report to avoid counting the
// same rewrites twice.
type Composite interface {
	// Composite is a marker method; it is never called.
	Composite()
}

// RunScript runs the passes in order under c, merging their results and
// recording per-pass counters and timings in the context's run report
// (see Ctx.Report). It stops at the first pass error or context
// cancellation; the module is left in whatever (still semantically
// equivalent) state the completed rewrites produced.
func RunScript(c *Ctx, m *rtlil.Module, passes ...Pass) (Result, error) {
	total := newResult()
	for _, p := range passes {
		if err := c.Err(); err != nil {
			return total, fmt.Errorf("opt: pass %s: %w", p.Name(), err)
		}
		done := c.StartPass(p.Name())
		r, err := p.Run(c, m)
		d := done()
		if err != nil {
			return total, fmt.Errorf("opt: pass %s: %w", p.Name(), err)
		}
		if _, isComposite := p.(Composite); !isComposite {
			c.recordPass(p.Name(), r, d)
		}
		total.merge(r)
	}
	return total, nil
}

// Fixpoint wraps passes into a pass that repeats the sequence until no
// pass reports a change (bounded by maxIters; 0 means 10).
func Fixpoint(maxIters int, passes ...Pass) Pass {
	if maxIters <= 0 {
		maxIters = 10
	}
	return fixpointPass{iters: maxIters, passes: passes}
}

type fixpointPass struct {
	iters  int
	passes []Pass
}

func (f fixpointPass) Name() string {
	names := make([]string, len(f.passes))
	for i, p := range f.passes {
		names[i] = p.Name()
	}
	return "fixpoint(" + strings.Join(names, ";") + ")"
}

// Composite implements the report marker: the body passes report their
// own counters; the wrapper contributes only its iteration count.
func (fixpointPass) Composite() {}

func (f fixpointPass) Run(c *Ctx, m *rtlil.Module) (Result, error) {
	total := newResult()
	iters, converged := 0, false
	for i := 0; i < f.iters; i++ {
		if err := c.Err(); err != nil {
			return total, err
		}
		r, err := RunScript(c, m, f.passes...)
		if err != nil {
			return total, err
		}
		iters++
		total.merge(r)
		if !r.Changed {
			converged = true
			break
		}
	}
	c.recordFixpoint(f.Name(), iters, converged)
	return total, nil
}
