package core

import (
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
	f, err := opt.ParseFlow("satmux(conflicts=64, depth=3, inference=false)")
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
	want := SatMuxOptions{MaxConflicts: 64, SubgraphDepth: 3, DisableInference: true}
	if sm.Opts != want {
		t.Errorf("opts = %+v, want %+v", sm.Opts, want)
	}

	f, err = opt.ParseFlow("rebuild(selector_bits=8, force=true)")
	if err != nil {
		t.Fatal(err)
	}
	if passes, err = f.Compile(); err != nil {
		t.Fatal(err)
	}
	rb := passes[0].(*RebuildPass)
	if rb.Opts != (RebuildOptions{MaxSelectorBits: 8, Force: true}) {
		t.Errorf("rebuild opts = %+v", rb.Opts)
	}

	f, err = opt.ParseFlow("opt_egraph(iters=3, rules=arith+fold, verify=false, verify_conflicts=7)")
	if err != nil {
		t.Fatal(err)
	}
	if passes, err = f.Compile(); err != nil {
		t.Fatal(err)
	}
	eg := passes[0].(*egraph.Pass)
	want2 := egraph.Options{Iters: 3, Rules: "arith+fold", DisableVerify: true, VerifyConflicts: 7}
	if eg.Opts != want2 {
		t.Errorf("opt_egraph opts = %+v, want %+v", eg.Opts, want2)
	}
}

func TestUnknownScriptOptionRejected(t *testing.T) {
	if _, err := opt.ParseFlow("satmux(gain=2)"); err == nil {
		t.Error("unknown satmux option accepted")
	}
	if _, err := opt.ParseFlow("rebuild(conflicts=1)"); err == nil {
		t.Error("satmux option on rebuild accepted")
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
