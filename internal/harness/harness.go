package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/aig"
	_ "repro/internal/core" // registers the smaRTLy passes and named flows
	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// FlowSpec is one flow measured by the harness: a short column name and
// the compiled flow to run.
type FlowSpec struct {
	Name string
	Flow *opt.Flow
}

// The canonical flow names of the paper's evaluation.
const (
	FlowYosys   = "yosys"
	FlowSAT     = "sat"
	FlowRebuild = "rebuild"
	FlowFull    = "full"
)

// DefaultFlows returns the four pipelines compared in the paper's
// Tables II and III, as registered named flows.
func DefaultFlows() []FlowSpec {
	return mustFlows(FlowYosys, FlowSAT, FlowRebuild, FlowFull)
}

// mustFlows looks up built-in named flows; a missing one is a bug.
func mustFlows(names ...string) []FlowSpec {
	out := make([]FlowSpec, 0, len(names))
	for _, name := range names {
		f, err := opt.NamedFlow(name)
		if err != nil {
			panic(fmt.Sprintf("harness: built-in flow %q: %v", name, err))
		}
		out = append(out, FlowSpec{Name: name, Flow: f})
	}
	return out
}

// ParseFlows parses "name=script" (or bare named-flow "name") specs
// from a CLI into FlowSpecs.
func ParseFlows(specs []string) ([]FlowSpec, error) {
	out := make([]FlowSpec, 0, len(specs))
	seen := map[string]bool{}
	for _, s := range specs {
		name, script, hasScript := strings.Cut(s, "=")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("harness: flow spec %q has no name", s)
		}
		if seen[name] {
			return nil, fmt.Errorf("harness: duplicate flow name %q (names key the result areas)", name)
		}
		seen[name] = true
		var f *opt.Flow
		var err error
		if hasScript {
			f, err = opt.ParseFlow(script)
		} else {
			f, err = opt.NamedFlow(name)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: flow %q: %w", name, err)
		}
		out = append(out, FlowSpec{Name: name, Flow: f})
	}
	return out, nil
}

// Case is one benchmark case: a name and a builder for its unoptimized
// module.
type Case struct {
	Name string
	// Build returns the case's module at the run's scale. The harness
	// only reads it: every flow optimizes a private clone.
	Build func(scale float64) (*rtlil.Module, error)
}

// RecipeCases returns one case per genbench recipe, named after it.
func RecipeCases(recipes []genbench.Recipe) []Case {
	out := make([]Case, len(recipes))
	for i, r := range recipes {
		out[i] = recipeCase(r.Name, r)
	}
	return out
}

// IndustrialCases returns the §IV-B experiment's first n industrial
// test points, named point-0 .. point-(n-1).
func IndustrialCases(n int) []Case {
	out := make([]Case, n)
	for i := range out {
		out[i] = recipeCase(fmt.Sprintf("point-%d", i), genbench.IndustrialRecipe(i))
	}
	return out
}

func recipeCase(name string, r genbench.Recipe) Case {
	return Case{Name: name, Build: func(scale float64) (*rtlil.Module, error) {
		m := genbench.Generate(r, scale)
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("generated %s invalid: %w", r.Name, err)
		}
		return m, nil
	}}
}

// Section is the result of one RunCases call, and the shape of every
// engine section of the bench report: the flows in run order and one
// result per case, in case order.
type Section struct {
	Flows []string     `json:"flows"`
	Cases []CaseResult `json:"cases"`
}

// CaseResult is one case measured under every flow of its section.
type CaseResult struct {
	Name string `json:"name"`
	// Original and OriginalStateBits measure the unoptimized module.
	Original          int `json:"original_area"`
	OriginalStateBits int `json:"original_state_bits,omitempty"`
	// Runs holds each flow's result, keyed by flow name.
	Runs map[string]FlowRun `json:"runs"`
}

// FlowRun is one flow's result on one case.
type FlowRun struct {
	Area      int `json:"area"`
	StateBits int `json:"state_bits,omitempty"`
	// Hash is the optimized module's rtlil.CanonicalHash.
	Hash string `json:"hash"`
	// ElapsedMS is the flow's wall-clock. It and StagesMS are the only
	// fields that vary from run to run.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Counters holds the run report's counters by pass, then by name.
	Counters map[string]map[string]int `json:"counters,omitempty"`
	// StagesMS holds the busy time of the passes' internal stages by
	// pass, then by stage (opt.PassReport.Stages), in milliseconds.
	StagesMS map[string]map[string]float64 `json:"stages_ms,omitempty"`
}

// Counter returns one counter of one pass (0 when absent).
func (r FlowRun) Counter(pass, key string) int { return r.Counters[pass][key] }

// Area returns the optimized area of the named flow (0 if it did not
// run).
func (c CaseResult) Area(flow string) int { return c.Runs[flow].Area }

// Ratio is the extra reduction of flow vs base in percent.
func (c CaseResult) Ratio(base, flow string) float64 {
	return ratio(c.Area(base), c.Area(flow))
}

// Reduction is flow's reduction vs the original area in percent.
func (c CaseResult) Reduction(flow string) float64 {
	return ratio(c.Original, c.Area(flow))
}

// RatioSAT is Table III's "SAT" column: extra reduction vs Yosys in %.
func (c CaseResult) RatioSAT() float64 { return c.Ratio(FlowYosys, FlowSAT) }

// RatioRebuild is Table III's "Rebuild" column.
func (c CaseResult) RatioRebuild() float64 { return c.Ratio(FlowYosys, FlowRebuild) }

// RatioFull is the Table II/III "Full" ratio.
func (c CaseResult) RatioFull() float64 { return c.Ratio(FlowYosys, FlowFull) }

func ratio(base, opt int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-opt) / float64(base)
}

// Options configures a harness run.
type Options struct {
	// Scale multiplies the calibrated block counts (1.0 = calibrated
	// size; the paper's absolute circuit sizes are ~100x larger).
	Scale float64
	// Flows are the optimization flows to measure; nil means
	// DefaultFlows (the paper's four pipelines). Flow names must be
	// unique: they key the results.
	Flows []FlowSpec
	// Check proves every optimized module equivalent to its input
	// (slow; intended for tests and small scales).
	Check bool
	// Verbose prints progress via Logf. The harness may call it from
	// several goroutines; withDefaults wraps it in a mutex.
	Logf func(format string, args ...any)
	// Jobs bounds how many builds and case × flow runs execute
	// concurrently. 0 means runtime.GOMAXPROCS(0); 1 forces the
	// sequential path. Results are identical for every value.
	Jobs int
	// Workers is the per-optimization worker budget forwarded to the
	// pass engine (parallel SAT-mux queries). 0 shares GOMAXPROCS
	// between the concurrent runs.
	Workers int
	// Context cancels a run early; nil means context.Background().
	Context context.Context
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Flows == nil {
		o.Flows = DefaultFlows()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	} else {
		var mu sync.Mutex
		logf := o.Logf
		o.Logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logf(format, args...)
		}
	}
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// RunCases builds every case, then optimizes a private clone of each
// with every flow of o.Flows. Both the builds and the case × flow runs
// fan out over o.Jobs workers (opt.ForEach) and merge by index, so
// every field but the wall times is identical for every job count.
// With o.Check each result is proved equivalent to its input — by
// k-induction when either side holds registers — and a failed proof
// fails the run.
func RunCases(cases []Case, o Options) (Section, error) {
	o = o.withDefaults()
	sec := Section{Cases: make([]CaseResult, len(cases))}
	for _, fs := range o.Flows {
		sec.Flows = append(sec.Flows, fs.Name)
	}

	inputs := make([]*rtlil.Module, len(cases))
	errs := make([]error, len(cases))
	opt.ForEach(o.Context, o.Jobs, len(cases), func(i int) {
		m, err := cases[i].Build(o.Scale)
		area := 0
		if err == nil {
			area, err = aig.Area(m)
		}
		if err != nil {
			errs[i] = fmt.Errorf("harness: %s: %w", cases[i].Name, err)
			return
		}
		inputs[i] = m
		sec.Cases[i] = CaseResult{Name: cases[i].Name, Original: area,
			OriginalStateBits: m.StateBits(), Runs: map[string]FlowRun{}}
	})
	if err := firstErr(o.Context, errs); err != nil {
		return sec, err
	}

	// An unset Workers budget is shared between the concurrent runs
	// rather than multiplied by them: "-j N" means roughly N busy
	// cores in total.
	nf := len(o.Flows)
	runs := make([]FlowRun, len(cases)*nf)
	errs = make([]error, len(runs))
	workers := o.Workers
	if workers == 0 && len(runs) > 0 {
		workers = max(1, runtime.GOMAXPROCS(0)/min(o.Jobs, len(runs)))
	}
	opt.ForEach(o.Context, o.Jobs, len(runs), func(k int) {
		name, fs := cases[k/nf].Name, o.Flows[k%nf]
		var err error
		if runs[k], err = runFlow(o, workers, inputs[k/nf], fs.Flow); err != nil {
			errs[k] = fmt.Errorf("harness: %s/%s: %w", name, fs.Name, err)
			return
		}
		o.Logf("%s/%s: area %d", name, fs.Name, runs[k].Area)
	})
	if err := firstErr(o.Context, errs); err != nil {
		return sec, err
	}
	for k, r := range runs {
		sec.Cases[k/nf].Runs[o.Flows[k%nf].Name] = r
	}
	return sec, nil
}

// runFlow optimizes a clone of in with one flow and measures the result.
func runFlow(o Options, workers int, in *rtlil.Module, flow *opt.Flow) (FlowRun, error) {
	work := in.Clone()
	ec := opt.NewCtx(o.Context, opt.Config{Workers: workers})
	start := time.Now()
	if _, err := flow.Run(ec, work); err != nil {
		return FlowRun{}, err
	}
	elapsed := time.Since(start)
	if o.Check {
		if err := smartly.CheckEquivalence(in, work); err != nil {
			return FlowRun{}, fmt.Errorf("not equivalent: %w", err)
		}
	}
	area, err := aig.Area(work)
	if err != nil {
		return FlowRun{}, err
	}
	r := FlowRun{Area: area, StateBits: work.StateBits(),
		Hash: rtlil.CanonicalHash(work), ElapsedMS: toMS(elapsed)}
	for _, p := range ec.Report().Passes {
		if len(p.Counters) > 0 {
			if r.Counters == nil {
				r.Counters = map[string]map[string]int{}
			}
			r.Counters[p.Name] = p.Counters
		}
		if len(p.Stages) > 0 {
			if r.StagesMS == nil {
				r.StagesMS = map[string]map[string]float64{}
			}
			ms := make(map[string]float64, len(p.Stages))
			for stage, d := range p.Stages {
				ms[stage] = toMS(d)
			}
			r.StagesMS[p.Name] = ms
		}
	}
	return r, nil
}

// firstErr returns the lowest-index error, else the context's.
func firstErr(ctx context.Context, errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

func toMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
