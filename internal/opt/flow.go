package opt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rtlil"
)

// Arg is one key=value option of a flow step, kept in source order so
// String() reproduces the script as written.
type Arg struct {
	Key, Value string
}

// Step is one statement of a flow script: a registered pass invocation
// `name(key=value, ...)`, or a `fixpoint(...) { body }` wrapper when
// Body is non-nil.
type Step struct {
	Name string
	Args []Arg
	// Body is the wrapped sub-flow of a fixpoint step; nil for plain
	// pass steps.
	Body *Flow
}

// Flow is a validated, compilable sequence of optimization steps — the
// parsed form of a Yosys-style script like
//
//	opt_expr; satmux(conflicts=64); rebuild; opt_clean
//
// A Flow is immutable once built; Compile constructs fresh pass
// instances for every run, so one Flow may drive many concurrent runs.
type Flow struct {
	steps []Step
}

// FixpointName is the reserved step name of the fixpoint wrapper.
const FixpointName = "fixpoint"

// fixpointSpec validates the options of a fixpoint step.
var fixpointSpec = PassSpec{
	Name:    FixpointName,
	Summary: "repeat the wrapped flow until no pass reports a change",
	Options: []OptionSpec{
		{Key: "iters", Kind: KindInt, Positive: true, Default: "10", Help: "maximum iterations"},
	},
}

// FixpointSpec describes the fixpoint wrapper: the options its steps are
// validated against. The wrapper is built in, not registered, so Passes
// does not list it.
func FixpointSpec() PassSpec { return fixpointSpec }

// stepSpec resolves the spec governing a step's options, enforcing the
// shape rules (fixpoint needs a body, plain passes must not have one).
func stepSpec(s Step) (PassSpec, error) {
	if s.Name == FixpointName {
		if s.Body == nil {
			return PassSpec{}, fmt.Errorf("fixpoint needs a { ... } body")
		}
		return fixpointSpec, nil
	}
	if s.Body != nil {
		return PassSpec{}, fmt.Errorf("pass %s does not take a { ... } body", s.Name)
	}
	spec, ok := LookupPass(s.Name)
	if !ok {
		return PassSpec{}, fmt.Errorf("unknown pass %q", s.Name)
	}
	return spec, nil
}

// args converts the ordered Args into the lookup form Build receives.
func (s Step) args() Args {
	m := make(map[string]string, len(s.Args))
	for _, a := range s.Args {
		m[a.Key] = a.Value
	}
	return Args{m: m}
}

// String renders the step in script syntax.
func (s Step) String() string {
	var sb strings.Builder
	sb.WriteString(s.Name)
	if len(s.Args) > 0 {
		sb.WriteByte('(')
		for i, a := range s.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.Key)
			sb.WriteByte('=')
			sb.WriteString(a.Value)
		}
		sb.WriteByte(')')
	}
	if s.Body != nil {
		sb.WriteString(" { ")
		sb.WriteString(s.Body.String())
		sb.WriteString(" }")
	}
	return sb.String()
}

// String renders the flow in script syntax; ParseFlow(f.String())
// round-trips to an equal flow.
func (f *Flow) String() string {
	if f == nil {
		return ""
	}
	parts := make([]string, len(f.steps))
	for i, s := range f.steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

// Canonical renders the flow in normalized script syntax, the form the
// serving layer uses in cache keys: options are sorted by key and their
// values reduced to a canonical spelling per kind ("064" -> "64"), so
// flows that differ only in option order, value spelling or script
// whitespace render identically. Flows with different passes,
// structure or effective option values render differently.
func (f *Flow) Canonical() string {
	if f == nil {
		return ""
	}
	parts := make([]string, len(f.steps))
	for i, s := range f.steps {
		parts[i] = s.canonical()
	}
	return strings.Join(parts, "; ")
}

// canonical renders one step with sorted, value-normalized options.
func (s Step) canonical() string {
	spec, err := stepSpec(s)
	var sb strings.Builder
	sb.WriteString(s.Name)
	if len(s.Args) > 0 {
		args := append([]Arg(nil), s.Args...)
		sort.Slice(args, func(i, j int) bool { return args[i].Key < args[j].Key })
		sb.WriteByte('(')
		for i, a := range args {
			if i > 0 {
				sb.WriteString(", ")
			}
			v := a.Value
			if err == nil {
				if o, ok := spec.option(a.Key); ok {
					v = o.Kind.canonicalValue(v)
				}
			}
			sb.WriteString(a.Key)
			sb.WriteByte('=')
			sb.WriteString(v)
		}
		sb.WriteByte(')')
	}
	if s.Body != nil {
		sb.WriteString(" { ")
		sb.WriteString(s.Body.Canonical())
		sb.WriteString(" }")
	}
	return sb.String()
}

// Compile builds fresh pass instances for every step. Passes carry
// per-run state (counters, caches), so each run must compile its own
// instances; the Flow itself stays immutable and shareable.
func (f *Flow) Compile() ([]Pass, error) {
	if f == nil {
		return nil, fmt.Errorf("opt: nil flow")
	}
	passes := make([]Pass, 0, len(f.steps))
	for _, s := range f.steps {
		p, err := compileStep(s)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func compileStep(s Step) (Pass, error) {
	spec, err := stepSpec(s)
	if err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	if s.Name == FixpointName {
		body, err := s.Body.Compile()
		if err != nil {
			return nil, err
		}
		return Fixpoint(s.args().Int("iters", 0), body...), nil
	}
	p, err := spec.Build(s.args())
	if err != nil {
		return nil, fmt.Errorf("opt: pass %s: %w", s.Name, err)
	}
	return p, nil
}

// Run compiles the flow and executes it on the module under c, merging
// the per-pass results exactly like RunScript.
func (f *Flow) Run(c *Ctx, m *rtlil.Module) (Result, error) {
	passes, err := f.Compile()
	if err != nil {
		return NewResult(), err
	}
	return RunScript(c, m, passes...)
}
