package core

import (
	"strings"
	"testing"

	"repro/internal/egraph"
	"repro/internal/opt"
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
	f, err := opt.ParseFlow("satmux(conflicts=64, depth=3, sim_filter=false)")
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
	want := SatMuxOptions{MaxConflicts: 64, SubgraphDepth: 3, DisableSimFilter: true}
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
// switch too: no script can turn a satmux stage or the sub-graph filter
// off, force a rebuild the cost model rejects, pick e-graph rule
// groups, or skip a proof.
func TestUnknownScriptOptionRejected(t *testing.T) {
	for _, script := range []string{
		"satmux(gain=2)", "rebuild(conflicts=1)",
		"satmux(inference=false)", "satmux(sat=false)", "satmux(subgraph_filter=false)",
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
