package opt

import (
	"maps"
	"testing"

	"repro/internal/cec"
	"repro/internal/rtlil"
)

// checkSeqEquiv fails the test if the optimized module is not
// sequentially equivalent to the original.
func checkSeqEquiv(t *testing.T, orig, got *rtlil.Module) {
	t.Helper()
	if err := cec.CheckSequential(orig, got, nil, nil); err != nil {
		t.Fatalf("opt_dff broke sequential equivalence: %v", err)
	}
}

// dffTestbench builds a module exercising every opt_dff rewrite class:
// a self-loop register (stuck at reset), a register with D tied to
// constant 0, a duplicate register pair, a register that nobody reads,
// and one genuinely live register.
func dffTestbench() *rtlil.Module {
	m := rtlil.NewModule("bench")
	clk := m.AddInput("clk", 1).Bits()
	x := m.AddInput("x", 4).Bits()

	self := m.NewWire(4)
	m.AddDff("self", clk, self.Bits(), self.Bits())
	zero := m.NewWire(4)
	m.AddDff("zero", clk, rtlil.Const(0, 4), zero.Bits())
	dup1 := m.NewWire(4)
	dup2 := m.NewWire(4)
	m.AddDff("dup1", clk, x, dup1.Bits())
	m.AddDff("dup2", clk, x, dup2.Bits())
	dead := m.NewWire(4)
	m.AddDff("dead", clk, m.Not(x), dead.Bits())
	live := m.NewWire(4)
	m.AddDff("live", clk, m.Xor(x, dup1.Bits()), live.Bits())

	y := m.AddOutput("y", 4)
	m.Connect(y.Bits(), m.Xor(m.Or(self.Bits(), zero.Bits()),
		m.And(dup2.Bits(), live.Bits())))
	return m
}

func countDffs(m *rtlil.Module) int {
	return len(m.SeqCells())
}

func TestDffSweep(t *testing.T) {
	m := dffTestbench()
	orig := m.Clone()
	r, err := RunScript(nil, m, DffPass{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Changed {
		t.Fatal("nothing optimized")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	checkSeqEquiv(t, orig, m)
	// self + zero removed as constants, dup2 merged into dup1, dead
	// removed as unused: dup1 and live survive.
	if got := countDffs(m); got != 2 {
		t.Errorf("registers after sweep = %d, want 2", got)
	}
	for counter, want := range map[string]int{
		"dff_const":   2,
		"dff_merged":  1,
		"dff_unused":  1,
		"dff_removed": 4,
		"dff_proved":  1,
	} {
		if got := r.Details[counter]; got != want {
			t.Errorf("%s = %d, want %d", counter, got, want)
		}
	}
	if r.Details["dff_const_bits"] == 0 {
		t.Error("dff_const_bits = 0, want freed constant bits propagated")
	}
}

// TestDffStageTimes: the pass reports the sweep and the phases of its
// proof by stage name, and stripping the report's timings drops them
// while the counters stay.
func TestDffStageTimes(t *testing.T) {
	stages := []string{"sweep", "simulate", "bmc", "refine", "induction"}
	ec := NewCtx(nil, Config{})
	if _, err := RunScript(ec, dffTestbench(), DffPass{}); err != nil {
		t.Fatal(err)
	}
	rep := ec.Report()
	p := rep.Pass("opt_dff")
	if p == nil || p.Counters["dff_removed"] == 0 {
		t.Fatalf("opt_dff swept nothing: %+v", p)
	}
	for _, stage := range stages {
		if p.Stages[stage] <= 0 {
			t.Errorf("stage %s has no time: %v", stage, p.Stages)
		}
	}
	if len(p.Stages) != len(stages) {
		t.Errorf("stages %v, want exactly %v", p.Stages, stages)
	}
	counters := maps.Clone(p.Counters)
	rep.StripTimings()
	if p := rep.Pass("opt_dff"); p.Stages != nil || !maps.Equal(p.Counters, counters) {
		t.Errorf("stripped report: stages %v, counters changed %v", p.Stages, !maps.Equal(p.Counters, counters))
	}
}

// TestDffNonzeroConstKept is the soundness trap: D tied to a nonzero
// constant leaves the reset value after one cycle, so the register must
// survive the sweep.
func TestDffNonzeroConstKept(t *testing.T) {
	m := rtlil.NewModule("m")
	clk := m.AddInput("clk", 1).Bits()
	q := m.NewWire(4)
	m.AddDff("r", clk, rtlil.Const(5, 4), q.Bits())
	y := m.AddOutput("y", 4)
	m.Connect(y.Bits(), q.Bits())
	r, err := RunScript(nil, m, DffPass{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Changed {
		t.Fatalf("nonzero-constant register swept: %+v", r.Details)
	}
	if got := countDffs(m); got != 1 {
		t.Errorf("registers = %d, want 1", got)
	}
}

func TestDffConstConeRemoval(t *testing.T) {
	// A cone of mutually-constant registers: q1' = q1 & x, q2' = q1 | q2.
	// From reset both stay 0; neither D is syntactically constant, so
	// only the greatest-fixpoint simulation finds them.
	m := rtlil.NewModule("m")
	clk := m.AddInput("clk", 1).Bits()
	x := m.AddInput("x", 1).Bits()
	q1 := m.NewWire(1)
	q2 := m.NewWire(1)
	m.AddDff("q1", clk, m.And(q1.Bits(), x), q1.Bits())
	m.AddDff("q2", clk, m.Or(q1.Bits(), q2.Bits()), q2.Bits())
	y := m.AddOutput("y", 1)
	m.Connect(y.Bits(), m.Xor(q2.Bits(), x))
	orig := m.Clone()
	r, err := RunScript(nil, m, DffPass{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Details["dff_const"]; got != 2 {
		t.Fatalf("dff_const = %d, want 2 (details %+v)", got, r.Details)
	}
	checkSeqEquiv(t, orig, m)
}

func TestDffMulticlock(t *testing.T) {
	m := rtlil.NewModule("m")
	c1 := m.AddInput("clk1", 1).Bits()
	c2 := m.AddInput("clk2", 1).Bits()
	q1 := m.NewWire(1)
	q2 := m.NewWire(1)
	m.AddDff("f1", c1, q1.Bits(), q1.Bits())
	m.AddDff("f2", c2, q2.Bits(), q2.Bits())
	y := m.AddOutput("y", 1)
	m.Connect(y.Bits(), m.Xor(q1.Bits(), q2.Bits()))
	r, err := RunScript(nil, m, DffPass{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Changed {
		t.Fatal("multi-clock module must be skipped")
	}
	if r.Details["dff_multiclock"] != 1 {
		t.Errorf("dff_multiclock = %d, want 1", r.Details["dff_multiclock"])
	}
	if got := countDffs(m); got != 2 {
		t.Errorf("registers = %d, want 2 (untouched)", got)
	}
}

func TestDffCombinationalNoop(t *testing.T) {
	m := rtlil.NewModule("m")
	a := m.AddInput("a", 2).Bits()
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), m.Not(a))
	r, err := RunScript(nil, m, DffPass{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Changed || len(r.Details) != 0 {
		t.Fatalf("combinational module not a no-op: %+v", r.Details)
	}
}

// TestDffVerifyOnOffIdentical: the sweep is deterministic, so what the
// pass keeps once its proof succeeds is byte-identical to the unverified
// sweep (SweepDffs) of a clone, counters included.
func TestDffVerifyOnOffIdentical(t *testing.T) {
	src := dffTestbench()
	on := src.Clone()
	off := src.Clone()
	ron, err := RunScript(nil, on, DffPass{})
	if err != nil {
		t.Fatal(err)
	}
	roff, err := SweepDffs(off)
	if err != nil {
		t.Fatal(err)
	}
	if rtlil.CanonicalHash(on) != rtlil.CanonicalHash(off) {
		t.Fatal("the proved and the unverified sweep's netlists differ")
	}
	for _, counter := range []string{"dff_const", "dff_merged", "dff_unused", "dff_removed", "dff_const_bits"} {
		if ron.Details[counter] != roff.Details[counter] {
			t.Errorf("%s: proved %d != unverified %d",
				counter, ron.Details[counter], roff.Details[counter])
		}
	}
	if ron.Details["dff_proved"] != 1 || roff.Details["dff_proved"] != 0 {
		t.Errorf("dff_proved proved/unverified = %d/%d, want 1/0",
			ron.Details["dff_proved"], roff.Details["dff_proved"])
	}
}

// TestDffRejectsViaVerifier gives the prover logic it cannot encode: a
// $div cell, which the AIG mapper refuses, beside the sweepable
// registers. The sweep still finds work, so the pass must keep the
// module untouched and report the rejection. (The conflict budget's
// rejection path is cec's TestCheckSequentialBudget.)
func TestDffRejectsViaVerifier(t *testing.T) {
	m := dffTestbench()
	x := m.Wire("x").Bits()
	q := m.AddOutput("q", 4)
	m.AddBinary(rtlil.CellDiv, "div", x, m.Not(x), q.Bits())
	before := rtlil.CanonicalHash(m)
	r, err := RunScript(nil, m, DffPass{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Details["dff_verify_rejected"] != 1 {
		t.Fatalf("dff_verify_rejected = %d, want 1 (details %+v)",
			r.Details["dff_verify_rejected"], r.Details)
	}
	if r.Changed {
		t.Error("rejected sweep must not set Changed")
	}
	if rtlil.CanonicalHash(m) != before {
		t.Error("rejected sweep mutated the module")
	}
}
