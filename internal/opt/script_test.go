package opt

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/rtlil"
)

func TestParseFlowBasics(t *testing.T) {
	f, err := ParseFlow("opt_expr; opt_muxtree; opt_clean")
	if err != nil {
		t.Fatal(err)
	}
	steps := f.steps
	if len(steps) != 3 || steps[0].Name != "opt_expr" || steps[2].Name != "opt_clean" {
		t.Fatalf("steps = %+v", steps)
	}
	passes, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) != 3 || passes[1].Name() != "opt_muxtree" {
		t.Fatalf("compiled = %v", passes)
	}
}

func TestParseFlowFixpoint(t *testing.T) {
	f, err := ParseFlow("fixpoint(iters=3) { opt_expr; opt_clean }")
	if err != nil {
		t.Fatal(err)
	}
	passes, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) != 1 {
		t.Fatalf("compiled %d passes, want 1", len(passes))
	}
	if got := passes[0].Name(); got != "fixpoint(opt_expr;opt_clean)" {
		t.Errorf("fixpoint name = %q", got)
	}
}

func TestParseFlowTolerance(t *testing.T) {
	for _, script := range []string{
		"opt_expr;",                          // trailing semicolon
		" opt_expr ;; opt_clean ",            // empty statement, spaces
		"opt_expr()",                         // empty parens
		"fixpoint { opt_expr }",              // no args on fixpoint
		"fixpoint(iters=2) {opt_clean;}",     // trailing ; in body
		"opt_expr;\n  opt_clean\n",           // newlines as whitespace
		"fixpoint { fixpoint { opt_expr } }", // nesting
	} {
		if _, err := ParseFlow(script); err != nil {
			t.Errorf("ParseFlow(%q) = %v", script, err)
		}
	}
}

func TestParseFlowErrors(t *testing.T) {
	cases := []struct {
		script, wantErr string
	}{
		{"", "empty flow"},
		{";;", "empty flow"},
		{"bogus_pass", `unknown pass "bogus_pass"`},
		{"opt_expr; bogus", "script:1:11"},
		{"opt_expr(foo=1)", "unknown option"},
		{"opt_expr opt_clean", "expected ';'"},
		{"fixpoint { }", "empty body"},
		{"fixpoint", "needs a { ... } body"},
		{"opt_expr { opt_clean }", "does not take"},
		{"fixpoint(iters=x) { opt_expr }", "invalid int value"},
		{"fixpoint(iters=0) { opt_expr }", "out of range"},
		{"fixpoint(iters=-3) { opt_expr }", "out of range"},
		{"fixpoint(iters=1, iters=2) { opt_expr }", "duplicate option"},
		{"fixpoint(iters=1 { opt_expr }", "expected ',' or ')'"},
		{"fixpoint(iters) { opt_expr }", "expected '='"},
		{"fixpoint(iters=2) { opt_expr", "unclosed '{'"},
		{"opt_expr(", "expected option key"},
		{"opt_dff(k=0)", "out of range"},
		{"opt_dff(bogus=1)", "unknown option"},
		{"(", "expected pass name"},
	}
	for _, c := range cases {
		_, err := ParseFlow(c.script)
		if err == nil {
			t.Errorf("ParseFlow(%q) succeeded, want error containing %q", c.script, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseFlow(%q) = %v, want error containing %q", c.script, err, c.wantErr)
		}
		if !strings.Contains(err.Error(), "script:") {
			t.Errorf("ParseFlow(%q) error lacks position: %v", c.script, err)
		}
	}
}

func TestParseFlowErrorPositions(t *testing.T) {
	_, err := ParseFlow("opt_expr; nope_pass")
	if err == nil || !strings.Contains(err.Error(), "script:1:11") {
		t.Errorf("unknown pass position: %v", err)
	}
	_, err = ParseFlow("opt_expr;\nopt_clean(bad=1)")
	if err == nil || !strings.Contains(err.Error(), "script:2:11") {
		t.Errorf("unknown option position: %v", err)
	}
}

func TestFlowStringRoundTrip(t *testing.T) {
	for _, script := range []string{
		"opt_expr",
		"opt_expr; opt_muxtree; opt_clean",
		"fixpoint(iters=3) { opt_expr; opt_clean }",
		"fixpoint { opt_expr; fixpoint { opt_clean } }",
		"  opt_expr ;; opt_clean ;",
	} {
		f1, err := ParseFlow(script)
		if err != nil {
			t.Fatalf("ParseFlow(%q): %v", script, err)
		}
		f2, err := ParseFlow(f1.String())
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", f1.String(), script, err)
		}
		if f1.String() != f2.String() {
			t.Errorf("round trip: %q -> %q", f1.String(), f2.String())
		}
	}
}

func TestRegistrySpecs(t *testing.T) {
	for _, name := range []string{"opt_expr", "opt_muxtree", "opt_clean", "opt_reduce"} {
		spec, ok := LookupPass(name)
		if !ok {
			t.Fatalf("pass %s not registered", name)
		}
		p, err := spec.Build(Args{})
		if err != nil || p == nil {
			t.Errorf("Build(%s) = %v, %v", name, p, err)
		}
	}
	if _, ok := LookupPass("fixpoint"); ok {
		t.Error("fixpoint must not be a registry pass")
	}
	names := []string{}
	for _, s := range Passes() {
		names = append(names, s.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Passes() not sorted: %v", names)
		}
	}
}

// TestFlowRunReport: a fixpoint flow run fills the structured report
// with per-pass counters, call counts and fixpoint iterations that
// match the flat legacy Result.
// TestFlowRunReport: the run report records each leaf pass and each
// fixpoint wrapper once, nested wrappers included, and never records a
// wrapper as a pass (that would count its body's rewrites twice).
func TestFlowRunReport(t *testing.T) {
	for _, tc := range []struct {
		script    string
		fixpoints []string // in recording order: inner wrappers finish first
	}{
		{"fixpoint { opt_expr; opt_clean }", []string{"fixpoint(opt_expr;opt_clean)"}},
		{"fixpoint { opt_expr; fixpoint { opt_clean } }",
			[]string{"fixpoint(opt_clean)", "fixpoint(opt_expr;fixpoint(opt_clean))"}},
	} {
		t.Run(tc.script, func(t *testing.T) {
			f, err := ParseFlow(tc.script)
			if err != nil {
				t.Fatal(err)
			}
			m := rtlil.NewModule("rep")
			a := m.AddInput("a", 4).Bits()
			y := m.AddOutput("y", 4)
			m.Connect(y.Bits(), m.And(a, rtlil.Const(0, 4)))
			c := NewCtx(nil, Config{})
			res, err := f.Run(c, m)
			if err != nil {
				t.Fatal(err)
			}
			rep := c.Report()
			if rep.Changed != res.Changed || !rep.Changed {
				t.Errorf("report changed=%v, result changed=%v", rep.Changed, res.Changed)
			}
			flat := rep.Counters()
			if len(flat) != len(res.Details) {
				t.Errorf("flat counters %v != result details %v", flat, res.Details)
			}
			for k, v := range res.Details {
				if flat[k] != v {
					t.Errorf("counter %s: report %d, result %d", k, flat[k], v)
				}
			}
			var passes, fixpoints []string
			for _, p := range rep.Passes {
				passes = append(passes, p.Name)
			}
			for _, fp := range rep.Fixpoints {
				fixpoints = append(fixpoints, fp.Name)
				if fp.Iterations < 1 {
					t.Errorf("fixpoint %s ran %d iterations", fp.Name, fp.Iterations)
				}
			}
			if want := []string{"opt_expr", "opt_clean"}; !slices.Equal(passes, want) {
				t.Errorf("passes %v, want %v", passes, want)
			}
			if !slices.Equal(fixpoints, tc.fixpoints) {
				t.Errorf("fixpoints %v, want %v", fixpoints, tc.fixpoints)
			}
			if p := rep.Pass("opt_expr"); p == nil || p.Calls < 2 {
				t.Errorf("opt_expr pass report = %+v (fixpoint should run it at least twice)", p)
			}
			if outer := rep.Fixpoints[len(rep.Fixpoints)-1]; outer.Iterations < 2 || !outer.Converged {
				t.Errorf("outer fixpoint report = %+v", outer)
			}
			if rep.Duration == 0 {
				t.Error("report duration missing before strip")
			}
			rep.StripTimings()
			if rep.Duration != 0 || rep.Passes[0].Duration != 0 {
				t.Error("StripTimings left wall-clock values")
			}
			if !strings.Contains(rep.String(), "opt_expr") {
				t.Errorf("report String lacks pass name:\n%s", rep.String())
			}
		})
	}
}

func TestNamedFlowRegistry(t *testing.T) {
	if _, err := NamedFlow("no_such_flow_xyz"); err == nil {
		t.Error("unknown named flow accepted")
	}
}
