package cec

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rtlil"
	"repro/internal/sim"
)

// pipePair returns two structurally different but sequentially
// equivalent 2-stage pipelines: r1 <= f(a,b); r2 <= r1; y = r2, where
// f is a&b built directly on one side and via De Morgan on the other.
func pipePair() (*rtlil.Module, *rtlil.Module) {
	build := func(name string, demorgan bool) *rtlil.Module {
		m := rtlil.NewModule(name)
		clk := m.AddInput("clk", 1).Bits()
		a := m.AddInput("a", 4).Bits()
		b := m.AddInput("b", 4).Bits()
		var f rtlil.SigSpec
		if demorgan {
			f = m.Not(m.Or(m.Not(a), m.Not(b)))
		} else {
			f = m.And(a, b)
		}
		r1 := m.NewWire(4)
		r2 := m.NewWire(4)
		m.AddDff("r1", clk, f, r1.Bits())
		m.AddDff("r2", clk, r1.Bits(), r2.Bits())
		y := m.AddOutput("y", 4)
		m.Connect(y.Bits(), r2.Bits())
		return m
	}
	return build("plain", false), build("dm", true)
}

func TestCheckSequentialEquivalent(t *testing.T) {
	a, b := pipePair()
	if err := CheckSequential(a, b, nil, nil); err != nil {
		t.Fatalf("equivalent pipelines reported different: %v", err)
	}
}

// stuckPair returns a module whose register is a self-loop stuck at the
// zero reset value, and its swept counterpart with the register gone.
// Plain k-induction cannot prove this pair (the unreachable state
// stuck=1 is an induction counterexample for every k); the van Eijk
// invariant stuck==0 closes it.
func stuckPair() (*rtlil.Module, *rtlil.Module) {
	withReg := rtlil.NewModule("withreg")
	{
		clk := withReg.AddInput("clk", 1).Bits()
		x := withReg.AddInput("x", 4).Bits()
		stuck := withReg.NewWire(4)
		withReg.AddDff("stuck", clk, stuck.Bits(), stuck.Bits())
		y := withReg.AddOutput("y", 4)
		withReg.Connect(y.Bits(), withReg.Xor(x, stuck.Bits()))
	}
	swept := rtlil.NewModule("swept")
	{
		swept.AddInput("clk", 1)
		x := swept.AddInput("x", 4).Bits()
		y := swept.AddOutput("y", 4)
		swept.Connect(y.Bits(), swept.Xor(x, rtlil.Const(0, 4)))
	}
	return withReg, swept
}

func TestCheckSequentialSelfLoopRemoval(t *testing.T) {
	a, b := stuckPair()
	if err := CheckSequential(a, b, nil, nil); err != nil {
		t.Fatalf("self-loop register removal not proven: %v", err)
	}
}

// deepStuckPair needs invariants: q1 is a self-loop and q2 decays
// through an input gate (q2' = q2 & x), so both stay 0 from reset and
// y = q1 ^ q2 is constant 0. But from the unreachable start
// q1 = q2 = 1, one cycle with x=1 keeps them equal and a second with
// x=0 splits them — the output-equality assumption q1==q2 is not
// inductive, so plain k-induction is stuck for every k.
func deepStuckPair() (*rtlil.Module, *rtlil.Module) {
	withRegs := rtlil.NewModule("withregs")
	{
		clk := withRegs.AddInput("clk", 1).Bits()
		x := withRegs.AddInput("x", 1).Bits()
		q1 := withRegs.NewWire(1)
		q2 := withRegs.NewWire(1)
		withRegs.AddDff("q1", clk, q1.Bits(), q1.Bits())
		withRegs.AddDff("q2", clk, withRegs.And(q2.Bits(), x), q2.Bits())
		y := withRegs.AddOutput("y", 1)
		withRegs.Connect(y.Bits(), withRegs.Xor(q1.Bits(), q2.Bits()))
	}
	swept := rtlil.NewModule("swept")
	{
		swept.AddInput("clk", 1)
		swept.AddInput("x", 1)
		y := swept.AddOutput("y", 1)
		swept.Connect(y.Bits(), rtlil.Const(0, 1))
	}
	return withRegs, swept
}

func TestCheckSequentialNeedsInvariants(t *testing.T) {
	// Without invariant strengthening the pair must come back
	// inconclusive — never "not equivalent", never "proven"...
	a, b := deepStuckPair()
	err := CheckSequential(a, b, &SeqOptions{noInvariants: true}, nil)
	var unk *UnknownError
	if !errors.As(err, &unk) {
		t.Fatalf("plain k-induction verdict = %v, want UnknownError", err)
	}
	// ...and the harvested register-constant invariants close exactly
	// this gap.
	if err := CheckSequential(a, b, nil, nil); err != nil {
		t.Fatalf("invariant-strengthened induction failed: %v", err)
	}
}

// replayCex drives both modules through the counterexample's input
// history with the multi-cycle simulator and confirms the named output
// bit really differs at the reported cycle.
func replayCex(t *testing.T, a, b *rtlil.Module, cex *SeqNotEquivalentError) {
	t.Helper()
	parse := func(key, prefix string) (string, int) {
		s := strings.TrimPrefix(key, prefix)
		i := strings.LastIndex(s, "[")
		bit, err := strconv.Atoi(strings.TrimSuffix(s[i+1:], "]"))
		if err != nil {
			t.Fatalf("bad key %q: %v", key, err)
		}
		return s[:i], bit
	}
	lanes := func(m *rtlil.Module, in map[string]bool) map[rtlil.SigBit]uint64 {
		out := map[rtlil.SigBit]uint64{}
		for k, v := range in {
			name, bit := parse(k, "in:")
			w := m.Wire(name)
			if w == nil {
				t.Fatalf("module %s has no wire %s", m.Name, name)
			}
			if v {
				out[w.Bits()[bit]] = 1
			} else {
				out[w.Bits()[bit]] = 0
			}
		}
		return out
	}
	sa, err := sim.NewSequential(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sim.NewSequential(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(cex.Inputs) != cex.Cycle+1 {
		t.Fatalf("counterexample has %d input cycles, want %d", len(cex.Inputs), cex.Cycle+1)
	}
	var va, vb map[rtlil.SigBit]uint64
	for _, in := range cex.Inputs {
		va = sa.Step(lanes(a, in))
		vb = sb.Step(lanes(b, in))
	}
	name, bit := parse(cex.Output, "out:")
	ga := sa.Sig(va, rtlil.SigSpec{a.Wire(name).Bits()[bit]})[0] & 1
	gb := sb.Sig(vb, rtlil.SigSpec{b.Wire(name).Bits()[bit]})[0] & 1
	if ga == gb {
		t.Fatalf("counterexample does not replay: %s = %d on both sides at cycle %d",
			cex.Output, ga, cex.Cycle)
	}
}

func TestCheckSequentialCounterexample(t *testing.T) {
	a, b := pipePair()
	ff := b.Cell("r2")
	ff.SetPort("D", b.Not(ff.Port("D")))
	err := CheckSequential(a, b, nil, nil)
	var cex *SeqNotEquivalentError
	if !errors.As(err, &cex) {
		t.Fatalf("mutated pipeline verdict = %v, want counterexample", err)
	}
	replayCex(t, a, b, cex)
}

// TestCheckSequentialUnsoundConstRewrite is the register-sweep trap: a
// register with D tied to constant 1 holds 0 at cycle 0 (zero reset)
// and 1 afterwards, so replacing it by the constant is unsound. The
// checker must refute it, at cycle 0.
func TestCheckSequentialUnsoundConstRewrite(t *testing.T) {
	a := rtlil.NewModule("a")
	{
		clk := a.AddInput("clk", 1).Bits()
		q := a.NewWire(1)
		a.AddDff("r", clk, rtlil.Const(1, 1), q.Bits())
		y := a.AddOutput("y", 1)
		a.Connect(y.Bits(), q.Bits())
	}
	b := rtlil.NewModule("b")
	{
		b.AddInput("clk", 1)
		y := b.AddOutput("y", 1)
		b.Connect(y.Bits(), rtlil.Const(1, 1))
	}
	err := CheckSequential(a, b, nil, nil)
	var cex *SeqNotEquivalentError
	if !errors.As(err, &cex) {
		t.Fatalf("unsound constant rewrite verdict = %v, want counterexample", err)
	}
	if cex.Cycle != 0 {
		t.Errorf("counterexample at cycle %d, want 0", cex.Cycle)
	}
}

func TestBMCFindsDeepDifference(t *testing.T) {
	// The difference is injected at the pipeline head and is observable
	// only at cycle 2 — for every input. BMC must walk exactly that far.
	build := func(invert bool) *rtlil.Module {
		m := rtlil.NewModule("m")
		clk := m.AddInput("clk", 1).Bits()
		a := m.AddInput("a", 1).Bits()
		d := a
		if invert {
			d = m.Not(a)
		}
		r1 := m.NewWire(1)
		r2 := m.NewWire(1)
		m.AddDff("r1", clk, d, r1.Bits())
		m.AddDff("r2", clk, r1.Bits(), r2.Bits())
		y := m.AddOutput("y", 1)
		m.Connect(y.Bits(), r2.Bits())
		return m
	}
	a, b := build(false), build(true)
	err := BMC(a, b, 4, nil)
	var cex *SeqNotEquivalentError
	if !errors.As(err, &cex) {
		t.Fatalf("BMC verdict = %v, want counterexample", err)
	}
	if cex.Cycle != 2 {
		t.Errorf("counterexample at cycle %d, want 2", cex.Cycle)
	}
	replayCex(t, a, b, cex)
	// And BMC below the observable depth finds nothing.
	if err := BMC(a, b, 1, nil); err != nil {
		t.Errorf("BMC at depth 1 = %v, want nil (difference starts at cycle 2)", err)
	}
}

func TestCheckSequentialStateless(t *testing.T) {
	a, b := demorganPair()
	if err := CheckSequential(a, b, nil, nil); err != nil {
		t.Fatalf("stateless equivalent pair: %v", err)
	}
	// Refutation: ~(x&y) against x&y.
	c := rtlil.NewModule("c")
	x1 := c.AddInput("x", 4).Bits()
	x2 := c.AddInput("y", 4).Bits()
	yo := c.AddOutput("out", 4)
	c.Connect(yo.Bits(), c.And(x1, x2))
	err := CheckSequential(a, c, nil, nil)
	var cex *SeqNotEquivalentError
	if !errors.As(err, &cex) {
		t.Fatalf("stateless inequivalent pair verdict = %v, want counterexample", err)
	}
	if cex.Cycle != 0 {
		t.Errorf("stateless counterexample at cycle %d, want 0", cex.Cycle)
	}
}

func TestCheckSequentialClockDomains(t *testing.T) {
	build := func() *rtlil.Module {
		m := rtlil.NewModule("m")
		c1 := m.AddInput("clk1", 1).Bits()
		c2 := m.AddInput("clk2", 1).Bits()
		d := m.AddInput("d", 1).Bits()
		q1 := m.NewWire(1)
		q2 := m.NewWire(1)
		m.AddDff("f1", c1, d, q1.Bits())
		m.AddDff("f2", c2, d, q2.Bits())
		y := m.AddOutput("y", 1)
		m.Connect(y.Bits(), m.Xor(q1.Bits(), q2.Bits()))
		return m
	}
	err := CheckSequential(build(), build(), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "clock") {
		t.Fatalf("multi-clock module verdict = %v, want clock-domain error", err)
	}
	var cex *SeqNotEquivalentError
	var unk *UnknownError
	if errors.As(err, &cex) || errors.As(err, &unk) {
		t.Fatalf("multi-clock must be a hard error, got %T", err)
	}
}

func TestCheckSequentialInterfaceMismatch(t *testing.T) {
	a := rtlil.NewModule("a")
	a.AddInput("clk", 1)
	a.AddInput("x", 2)
	a.AddOutput("y", 1)
	b := rtlil.NewModule("b")
	b.AddInput("clk", 1)
	b.AddInput("x", 3)
	b.AddOutput("y", 1)
	if err := CheckSequential(a, b, nil, nil); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("interface mismatch not reported: %v", err)
	}
}

// TestCheckSequentialMerge proves a duplicate-register merge: two
// registers latching the same D collapse onto one.
func TestCheckSequentialMerge(t *testing.T) {
	dup := rtlil.NewModule("dup")
	{
		clk := dup.AddInput("clk", 1).Bits()
		d := dup.AddInput("d", 2).Bits()
		q1 := dup.NewWire(2)
		q2 := dup.NewWire(2)
		dup.AddDff("f1", clk, d, q1.Bits())
		dup.AddDff("f2", clk, d, q2.Bits())
		y := dup.AddOutput("y", 2)
		dup.Connect(y.Bits(), dup.Xor(q1.Bits(), dup.Not(q2.Bits())))
	}
	merged := rtlil.NewModule("merged")
	{
		clk := merged.AddInput("clk", 1).Bits()
		d := merged.AddInput("d", 2).Bits()
		q := merged.NewWire(2)
		merged.AddDff("f", clk, d, q.Bits())
		y := merged.AddOutput("y", 2)
		merged.Connect(y.Bits(), merged.Xor(q.Bits(), merged.Not(q.Bits())))
	}
	if err := CheckSequential(dup, merged, nil, nil); err != nil {
		t.Fatalf("register merge not proven: %v", err)
	}
}

// TestCheckSequentialBudget: the conflict budget still bounds the solver
// on a miter structural hashing cannot close. Both modules latch a
// product, one as x*y and one as y*x: the two shift-add arrays share no
// structure, so the depth-1 query reaches the solver, which one conflict
// cannot finish. Without a budget the pair proves.
func TestCheckSequentialBudget(t *testing.T) {
	build := func(name string, swap bool) *rtlil.Module {
		m := rtlil.NewModule(name)
		clk := m.AddInput("clk", 1).Bits()
		x := m.AddInput("x", 5).Bits()
		y := m.AddInput("y", 5).Bits()
		p := m.MulOp(x, y)
		if swap {
			p = m.MulOp(y, x)
		}
		q := m.NewWire(5)
		m.AddDff("r", clk, p, q.Bits())
		o := m.AddOutput("o", 5)
		m.Connect(o.Bits(), q.Bits())
		return m
	}
	a, b := build("xy", false), build("yx", true)
	err := CheckSequential(a, b, &SeqOptions{MaxConflicts: 1}, nil)
	var unk *UnknownError
	if !errors.As(err, &unk) || !strings.Contains(unk.Reason, "BMC conflict budget exhausted at depth 1") {
		t.Fatalf("verdict under a 1-conflict budget = %v, want a BMC budget UnknownError at depth 1", err)
	}
	if err := CheckSequential(a, b, nil, nil); err != nil {
		t.Fatalf("unbounded verdict = %v, want proved", err)
	}
}
