package opt

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// OptionKind is the value type of a pass option.
type OptionKind int

// The option value kinds understood by the script parser.
const (
	KindInt OptionKind = iota
	KindInt64
)

// String names the kind as shown in error messages and docs.
func (k OptionKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindInt64:
		return "int64"
	}
	return fmt.Sprintf("OptionKind(%d)", int(k))
}

// canonicalValue reduces a valid raw option value to its canonical
// spelling for the kind ("064" -> "64"). Invalid values are returned
// unchanged; callers only normalize values that already passed
// checkValue.
func (k OptionKind) canonicalValue(v string) string {
	switch k {
	case KindInt:
		if n, err := strconv.Atoi(v); err == nil {
			return strconv.Itoa(n)
		}
	case KindInt64:
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return strconv.FormatInt(n, 10)
		}
	}
	return v
}

// checkValue validates a raw option value against the kind.
func (k OptionKind) checkValue(v string) error {
	var err error
	switch k {
	case KindInt:
		_, err = strconv.Atoi(v)
	case KindInt64:
		_, err = strconv.ParseInt(v, 10, 64)
	}
	if err != nil {
		return fmt.Errorf("invalid %s value %q", k, v)
	}
	return nil
}

// OptionSpec describes one option a pass accepts in a flow script.
type OptionSpec struct {
	// Key is the option name as written in key=value.
	Key string
	// Kind is the value type the parser validates against.
	Kind OptionKind
	// Positive requires an integer value >= 1. Budget-style options set
	// it because their option structs treat 0 as "use the default": an
	// explicit zero would be silently coerced, misreporting ablations.
	Positive bool
	// Max, when nonzero, is the largest accepted value: a bound for a
	// budget whose work grows exponentially in its value.
	Max int64
	// Default documents the value used when the option is omitted.
	Default string
	// Help is a one-line description for registry listings.
	Help string
}

// check validates a raw value against the option's kind and bounds.
func (o OptionSpec) check(v string) error {
	if err := o.Kind.checkValue(v); err != nil {
		return err
	}
	// Every kind is an integer, so a value checkValue passed parses.
	n, _ := strconv.ParseInt(v, 10, 64)
	if o.Positive && n < 1 {
		return fmt.Errorf("value %s out of range (must be >= 1; omit the option for the default, %s)", v, o.Default)
	}
	if o.Max != 0 && n > o.Max {
		return fmt.Errorf("value %s out of range (must be <= %d)", v, o.Max)
	}
	return nil
}

// PassSpec describes one registered pass: its script name, a summary,
// the options it accepts and the factory that builds a fresh pass
// instance from parsed options.
type PassSpec struct {
	// Name is the script-level pass name (e.g. "satmux").
	Name string
	// Summary is a one-line description for registry listings.
	Summary string
	// Options lists the accepted key=value options.
	Options []OptionSpec
	// Build constructs a fresh pass instance. The Args are already
	// validated against Options (keys known, values well-typed), so
	// Build only translates them into the pass' typed option struct.
	Build func(args Args) (Pass, error)
}

// option returns the spec for the given key, if any.
func (s PassSpec) option(key string) (OptionSpec, bool) {
	for _, o := range s.Options {
		if o.Key == key {
			return o, true
		}
	}
	return OptionSpec{}, false
}

// Args holds the validated key=value options of one flow step. The
// typed getters never fail: the parser has already checked every value
// against the option's kind.
type Args struct {
	m map[string]string
}

// Int returns the key's value, or def when absent.
func (a Args) Int(key string, def int) int {
	if v, ok := a.m[key]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// Int64 returns the key's value, or def when absent.
func (a Args) Int64(key string, def int64) int64 {
	if v, ok := a.m[key]; ok {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// The process-wide pass registry. Registration happens in package
// init functions (opt registers the baseline passes below, core the
// smaRTLy passes), lookups at parse/compile time.
var registry = struct {
	sync.RWMutex
	passes map[string]PassSpec
	flows  map[string]string // named flow -> script
}{
	passes: map[string]PassSpec{},
	flows:  map[string]string{},
}

// Register adds a pass to the registry. It panics on a duplicate or
// invalid name: registration is an init-time programming action, not a
// runtime input.
func Register(s PassSpec) {
	if s.Name == "" || s.Build == nil {
		panic("opt: Register: spec needs a name and a Build func")
	}
	if !isIdent(s.Name) {
		panic(fmt.Sprintf("opt: Register: invalid pass name %q", s.Name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.passes[s.Name]; dup || s.Name == "fixpoint" {
		panic(fmt.Sprintf("opt: Register: duplicate pass %q", s.Name))
	}
	registry.passes[s.Name] = s
}

// LookupPass returns the spec registered under name.
func LookupPass(name string) (PassSpec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.passes[name]
	return s, ok
}

// Passes lists every registered pass spec, sorted by name.
func Passes() []PassSpec {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]PassSpec, 0, len(registry.passes))
	for _, s := range registry.passes {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RegisterFlow adds a named flow defined by a script. The script is
// parsed lazily on first NamedFlow lookup, so flows may reference
// passes registered by a later init function.
func RegisterFlow(name, script string) {
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.flows[name]; dup {
		panic(fmt.Sprintf("opt: RegisterFlow: duplicate flow %q", name))
	}
	registry.flows[name] = script
}

// NamedFlow parses and returns the flow registered under name.
func NamedFlow(name string) (*Flow, error) {
	registry.RLock()
	script, ok := registry.flows[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("opt: unknown flow %q (have %v)", name, FlowNames())
	}
	f, err := ParseFlow(script)
	if err != nil {
		return nil, fmt.Errorf("opt: flow %q: %w", name, err)
	}
	return f, nil
}

// FlowNames lists the registered named flows, sorted.
func FlowNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.flows))
	for name := range registry.flows {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The baseline Yosys-style passes this package provides. They take no
// options; the smaRTLy passes (satmux, rebuild) and opt_egraph are
// registered by internal/core.
func init() {
	Register(PassSpec{
		Name:    "opt_expr",
		Summary: "constant folding and trivial expression rewrites",
		Build:   func(Args) (Pass, error) { return ExprPass{}, nil },
	})
	Register(PassSpec{
		Name:    "opt_muxtree",
		Summary: "baseline muxtree pruning (path-local facts only)",
		Build:   func(Args) (Pass, error) { return MuxtreePass{}, nil },
	})
	Register(PassSpec{
		Name:    "opt_clean",
		Summary: "dead cell and wire removal",
		Build:   func(Args) (Pass, error) { return CleanPass{}, nil },
	})
	Register(PassSpec{
		Name:    "opt_reduce",
		Summary: "operand deduplication for reduce/mux cells",
		Build:   func(Args) (Pass, error) { return ReducePass{}, nil },
	})
}
