package core

import (
	"strings"
	"testing"

	"repro/internal/egraph"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

func TestSmartlyPassesRegistered(t *testing.T) {
	for _, name := range []string{"satmux", "rebuild", "opt_egraph"} {
		spec, ok := opt.LookupPass(name)
		if !ok {
			t.Fatalf("pass %s not registered", name)
		}
		p, err := spec.Build(opt.Args{})
		if err != nil || p == nil {
			t.Errorf("Build(%s) = %v, %v", name, p, err)
		}
	}
}

func TestScriptOptionsReachTypedOptions(t *testing.T) {
	f, err := opt.ParseFlow("satmux(conflicts=64, depth=3, sim_inputs=20)")
	if err != nil {
		t.Fatal(err)
	}
	passes, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sm, ok := passes[0].(*SatMuxPass)
	if !ok {
		t.Fatalf("compiled %T, want *SatMuxPass", passes[0])
	}
	want := SatMuxOptions{MaxConflicts: 64, SubgraphDepth: 3, SimInputLimit: 20}
	if sm.Opts != want {
		t.Errorf("opts = %+v, want %+v", sm.Opts, want)
	}

	f, err = opt.ParseFlow("rebuild(selector_bits=8, patterns=16)")
	if err != nil {
		t.Fatal(err)
	}
	if passes, err = f.Compile(); err != nil {
		t.Fatal(err)
	}
	rb := passes[0].(*RebuildPass)
	if rb.Opts != (RebuildOptions{MaxSelectorBits: 8, MaxPatterns: 16}) {
		t.Errorf("rebuild opts = %+v", rb.Opts)
	}

	f, err = opt.ParseFlow("opt_egraph(iters=3, node_limit=500, verify_conflicts=7)")
	if err != nil {
		t.Fatal(err)
	}
	if passes, err = f.Compile(); err != nil {
		t.Fatal(err)
	}
	eg := passes[0].(*egraph.Pass)
	want2 := egraph.Options{Iters: 3, NodeLimit: 500, VerifyConflicts: 7}
	if eg.Opts != want2 {
		t.Errorf("opt_egraph opts = %+v, want %+v", eg.Opts, want2)
	}
}

// TestUnknownScriptOptionRejected: a key the pass does not take is an
// unknown option. The options are budgets, so that covers every stage
// switch too: no script can turn a satmux stage, the sub-graph filter
// or the module signatures off, resize the signatures, force a rebuild
// the cost model rejects, pick e-graph rule groups, or skip a proof.
func TestUnknownScriptOptionRejected(t *testing.T) {
	for _, script := range []string{
		"satmux(gain=2)", "rebuild(conflicts=1)",
		"satmux(inference=false)", "satmux(sat=false)", "satmux(subgraph_filter=false)",
		"satmux(sim_filter=false)", "satmux(sim_rounds=8)",
		"rebuild(force=true)",
		"opt_egraph(rules=cmp)", "opt_egraph(verify=false)",
		"opt_dff(verify=false)",
	} {
		_, err := opt.ParseFlow(script)
		if err == nil || !strings.Contains(err.Error(), "unknown option") {
			t.Errorf("ParseFlow(%q) = %v, want an unknown-option error", script, err)
		}
	}
}

// TestZeroBudgetRejected: the option structs treat 0 as "use the
// default", so an explicit zero in a script must be rejected rather
// than silently running the default budget (misreported ablations).
func TestZeroBudgetRejected(t *testing.T) {
	for _, script := range []string{
		"satmux(conflicts=0)", "satmux(cells=0)", "satmux(depth=-1)",
		"rebuild(patterns=0)", "rebuild(selector_bits=0)",
		"opt_egraph(iters=0)", "opt_egraph(verify_conflicts=0)",
	} {
		if _, err := opt.ParseFlow(script); err == nil {
			t.Errorf("ParseFlow(%q) accepted an explicit zero/negative budget", script)
		}
	}
}

// wideOrModule builds y = (|a) ? d1 : d0 over an 80-bit a: the control
// is not constant, and its cone has 80 inputs.
func wideOrModule() *rtlil.Module {
	m := rtlil.NewModule("wideor")
	a := m.AddInput("a", 80).Bits()
	d0 := m.AddInput("d0", 4).Bits()
	d1 := m.AddInput("d1", 4).Bits()
	y := m.AddOutput("y", 4)
	m.AddMux("root", d0, d1, m.ReduceOr(a), y.Bits())
	return m
}

// TestSimInputsBounded: an exhaustive sweep over n inputs runs 2^(n-6)
// words, so sim_inputs stops at 20. Without the bound, a limit of 69 or
// more overflows the word count: no word runs, and the sweep decides
// the wide-OR control from the one value the signatures saw. Within the
// bound, and for a Go caller whose larger limit acts as 20, the
// 80-input cone goes to SAT and the mux stays.
func TestSimInputsBounded(t *testing.T) {
	if _, err := opt.ParseFlow("satmux(sim_inputs=21)"); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("sim_inputs=21: %v, want an out-of-range error", err)
	}
	f, err := opt.ParseFlow("satmux(sim_inputs=20); opt_clean")
	if err != nil {
		t.Fatal(err)
	}
	orig := wideOrModule()
	got := orig.Clone()
	if _, err := f.Run(opt.Background(), got); err != nil {
		t.Fatal(err)
	}
	direct := orig.Clone()
	if _, err := opt.RunScript(nil, direct, &SatMuxPass{Opts: SatMuxOptions{SimInputLimit: 100}}, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*rtlil.Module{"sim_inputs=20": got, "SimInputLimit 100": direct} {
		if n := countType(m, rtlil.CellMux); n != 1 {
			t.Errorf("%s: %d $mux cells left, want the root mux", name, n)
		}
		checkEquiv(t, orig, m)
	}
}
