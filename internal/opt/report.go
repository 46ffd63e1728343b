package opt

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// PassReport aggregates what one named leaf pass did across all its
// invocations in a run: call count, merged counters and wall time.
type PassReport struct {
	// Name is the pass' Name() (e.g. "smartly_satmux").
	Name string
	// Calls counts how often the pass ran (fixpoints re-run passes).
	Calls int
	// Changed reports whether any invocation rewrote the module.
	Changed bool
	// Counters merges the pass' Result counters across invocations.
	Counters map[string]int
	// Duration is the summed wall time; zero when timings are stripped.
	Duration time.Duration
	// Stages is the busy time of the pass' internal stages, summed over
	// invocations and worker goroutines (see Result.Stages); nil when
	// the pass times none or timings are stripped.
	Stages map[string]time.Duration
}

// FixpointReport records the iteration behaviour of one fixpoint
// wrapper in a run.
type FixpointReport struct {
	// Name is the wrapper's Name(), e.g. "fixpoint(opt_expr;opt_clean)".
	Name string
	// Iterations counts executed iterations, summed over invocations.
	Iterations int
	// Converged reports whether the last invocation stopped because the
	// body made no more changes (as opposed to hitting the bound).
	Converged bool
}

// RunReport is the structured result of a flow run: per-pass counters
// and timings in first-execution order, plus per-fixpoint iteration
// counts. With timings stripped the report is fully deterministic.
type RunReport struct {
	// Changed reports whether any pass rewrote the module.
	Changed bool
	// Duration is the wall time of the whole run; zero when stripped.
	Duration time.Duration
	// Passes lists the leaf passes in first-execution order.
	Passes []PassReport
	// Fixpoints lists the fixpoint wrappers in first-execution order.
	Fixpoints []FixpointReport
}

// Counters flattens the per-pass counters into one merged map — the
// shape of the legacy Report.Details.
func (r *RunReport) Counters() map[string]int {
	out := map[string]int{}
	for _, p := range r.Passes {
		for k, v := range p.Counters {
			out[k] += v
		}
	}
	return out
}

// Pass returns the report of the named pass, or nil.
func (r *RunReport) Pass(name string) *PassReport {
	for i := range r.Passes {
		if r.Passes[i].Name == name {
			return &r.Passes[i]
		}
	}
	return nil
}

// Counter returns one counter of one pass (0 when the pass did not run
// or never bumped the key). Value receiver, so it composes directly
// with Ctx.Report().
func (r RunReport) Counter(pass, key string) int {
	p := r.Pass(pass)
	if p == nil {
		return 0
	}
	return p.Counters[key]
}

// StripTimings zeroes every wall-clock field, stage times included,
// leaving only the deterministic counters and iteration counts.
func (r *RunReport) StripTimings() {
	r.Duration = 0
	for i := range r.Passes {
		r.Passes[i].Duration = 0
		r.Passes[i].Stages = nil
	}
}

// String renders the report as a small human-readable table.
func (r *RunReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "changed=%v", r.Changed)
	if r.Duration > 0 {
		fmt.Fprintf(&sb, " total=%s", r.Duration.Round(time.Microsecond))
	}
	sb.WriteByte('\n')
	for _, p := range r.Passes {
		fmt.Fprintf(&sb, "  %-18s calls=%d", p.Name, p.Calls)
		if p.Duration > 0 {
			fmt.Fprintf(&sb, " time=%s", p.Duration.Round(time.Microsecond))
		}
		keys := make([]string, 0, len(p.Counters))
		for k := range p.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%d", k, p.Counters[k])
		}
		keys = keys[:0]
		for k := range p.Stages {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, " stage_%s=%s", k, p.Stages[k].Round(time.Microsecond))
		}
		sb.WriteByte('\n')
	}
	for _, f := range r.Fixpoints {
		fmt.Fprintf(&sb, "  %-18s iterations=%d converged=%v\n", f.Name, f.Iterations, f.Converged)
	}
	return sb.String()
}

// addStages adds the stage times of src into dst, allocating dst on
// first use.
func addStages(dst, src map[string]time.Duration) map[string]time.Duration {
	for k, v := range src {
		if dst == nil {
			dst = make(map[string]time.Duration, len(src))
		}
		dst[k] += v
	}
	return dst
}

// reportCollector accumulates per-pass entries inside a Ctx. It is
// guarded by the Ctx mutex: design-level runs may share one Ctx across
// goroutines (their merged report is then aggregate; per-module reports
// use one Ctx per module).
type reportCollector struct {
	order     []string // leaf passes in first-recorded order
	passes    map[string]*PassReport
	calls     map[string]passCalls // StartPass observations, wrappers too
	fixOrder  []string
	fixpoints map[string]*FixpointReport
}

// passCalls is the call count and summed wall time of one pass name, as
// StartPass's log line and PassEvent report them.
type passCalls struct {
	n     int
	total time.Duration
}

func newReportCollector() *reportCollector {
	return &reportCollector{
		passes:    map[string]*PassReport{},
		calls:     map[string]passCalls{},
		fixpoints: map[string]*FixpointReport{},
	}
}

// recordPass merges one leaf-pass invocation. Caller holds the Ctx lock.
func (rc *reportCollector) recordPass(name string, res Result, d time.Duration) {
	p := rc.passes[name]
	if p == nil {
		p = &PassReport{Name: name, Counters: map[string]int{}}
		rc.passes[name] = p
		rc.order = append(rc.order, name)
	}
	p.Calls++
	p.Duration += d
	p.Stages = addStages(p.Stages, res.Stages)
	if res.Changed {
		p.Changed = true
	}
	for k, v := range res.Details {
		p.Counters[k] += v
	}
}

// recordCall counts one completed StartPass call of name and returns
// the name's call count and summed duration so far. Caller holds the
// Ctx lock.
func (rc *reportCollector) recordCall(name string, d time.Duration) (calls int, total time.Duration) {
	pc := rc.calls[name]
	pc.n++
	pc.total += d
	rc.calls[name] = pc
	return pc.n, pc.total
}

// recordFixpoint merges one fixpoint invocation. Caller holds the lock.
func (rc *reportCollector) recordFixpoint(name string, iters int, converged bool) {
	f := rc.fixpoints[name]
	if f == nil {
		f = &FixpointReport{Name: name}
		rc.fixpoints[name] = f
		rc.fixOrder = append(rc.fixOrder, name)
	}
	f.Iterations += iters
	f.Converged = converged
}

// Report snapshots the collected run report. Counters maps are copied,
// so the snapshot is independent of further recording.
func (c *Ctx) Report() RunReport {
	if c == nil {
		return RunReport{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out RunReport
	for _, name := range c.rep.order {
		p := *c.rep.passes[name]
		p.Counters = make(map[string]int, len(c.rep.passes[name].Counters))
		for k, v := range c.rep.passes[name].Counters {
			p.Counters[k] = v
		}
		p.Stages = addStages(nil, p.Stages)
		if p.Changed {
			out.Changed = true
		}
		out.Duration += p.Duration
		out.Passes = append(out.Passes, p)
	}
	for _, name := range c.rep.fixOrder {
		out.Fixpoints = append(out.Fixpoints, *c.rep.fixpoints[name])
	}
	return out
}
