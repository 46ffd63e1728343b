// Package cec implements combinational equivalence checking between two
// rtlil modules, the guarantee the smaRTLy paper reports for every
// optimized netlist ("all the results generated by our program passed
// equivalence checking").
//
// Both modules are cut at flip-flops: dff Q bits become pseudo primary
// inputs and dff D bits pseudo primary outputs, so the check covers the
// complete transition and output functions. Correspondence is by name:
// port wires match by wire name and bit offset, flip-flops match by cell
// name. Checking is two-valued (x constants evaluate as 0, following the
// repository-wide canonical semantics).
//
// The cut modules are machines without registers, so the check is frame
// 0 of CheckSequential's product machine: a number of 64-pattern random
// simulation rounds as a cheap refuter, then one SAT miter query on the
// structurally hashed graph both modules are copied into.
package cec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rtlil"
	"repro/internal/sat"
)

// Options tunes the equivalence check.
type Options struct {
	// RandomRounds is the number of 64-pattern random simulation rounds
	// run before SAT (default 4).
	RandomRounds int
	// MaxConflicts bounds the SAT effort; 0 means unlimited.
	MaxConflicts int64
}

// checkSeed drives Check's random simulation.
const checkSeed = 1

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.RandomRounds == 0 {
		out.RandomRounds = 4
	}
	return out
}

// NotEquivalentError reports a counterexample input assignment and the
// first mismatching output.
type NotEquivalentError struct {
	Output string
	Inputs map[string]bool
}

// Error renders the counterexample.
func (e *NotEquivalentError) Error() string {
	keys := make([]string, 0, len(e.Inputs))
	for k := range e.Inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "cec: modules differ on output %s under", e.Output)
	for _, k := range keys {
		v := 0
		if e.Inputs[k] {
			v = 1
		}
		fmt.Fprintf(&sb, " %s=%d", k, v)
	}
	return sb.String()
}

// points identifies the cut points of a module by stable string keys.
type points struct {
	inKeys  []string
	inBits  []rtlil.SigBit
	outKeys []string
	outBits []rtlil.SigBit
}

// modulePoints lists m's port bits: inputs keyed in:<wire>[i], outputs
// out:<wire>[i]. Cut at its flip-flops, each dff also contributes its Q
// bits as inputs ff:<cell>.Q[i] and its D bits as outputs ff:<cell>.D[i].
// Inputs are canonical (SigMap) bits, without constants or repeats.
func modulePoints(m *rtlil.Module, cut bool) *points {
	ix := rtlil.NewIndex(m)
	p := &points{}
	seenIn := map[rtlil.SigBit]bool{}
	addIn := func(key string, b rtlil.SigBit) {
		if b.IsConst() || seenIn[b] {
			return
		}
		seenIn[b] = true
		p.inKeys = append(p.inKeys, key)
		p.inBits = append(p.inBits, b)
	}
	addOut := func(key string, b rtlil.SigBit) {
		p.outKeys = append(p.outKeys, key)
		p.outBits = append(p.outBits, b)
	}
	var ffs []*rtlil.Cell
	if cut {
		ffs = m.SeqCells()
	}
	for _, w := range m.Inputs() {
		for i, b := range ix.Map(w.Bits()) {
			addIn(fmt.Sprintf("in:%s[%d]", w.Name, i), b)
		}
	}
	for _, c := range ffs {
		for i, b := range ix.Map(c.Port("Q")) {
			addIn(fmt.Sprintf("ff:%s.Q[%d]", c.Name, i), b)
		}
	}
	for _, w := range m.Outputs() {
		for i, b := range w.Bits() {
			addOut(fmt.Sprintf("out:%s[%d]", w.Name, i), b)
		}
	}
	for _, c := range ffs {
		for i, b := range c.Port("D") {
			addOut(fmt.Sprintf("ff:%s.D[%d]", c.Name, i), b)
		}
	}
	return p
}

// Check proves combinational equivalence of a and b, returning nil when
// equivalent, a *NotEquivalentError with a counterexample when not, and
// other errors for interface mismatches, unmappable logic or resource
// exhaustion.
func Check(a, b *rtlil.Module, opt *Options) error {
	o := opt.withDefaults()
	ma, mb, err := newMachines(a, b, true)
	if err != nil {
		return err
	}
	// Phase 1: random simulation refutation, one cycle per round.
	cex, _, _ := simulate(ma, mb, checkSeed, o.RandomRounds, 1)
	if cex == nil {
		// Phase 2: the SAT miter on frame 0 of the product machine.
		u := newUnroller(ma, mb, o.MaxConflicts)
		switch u.solve(nil, u.miter(u.resetFrame(0))...) {
		case sat.Unsat:
			return nil
		case sat.Unknown:
			return fmt.Errorf("cec: SAT conflict budget exhausted (MaxConflicts=%d)", o.MaxConflicts)
		}
		cex = u.extractCex(0)
	}
	return &NotEquivalentError{Output: cex.Output, Inputs: cex.Inputs[0]}
}

func firstDiffLane(a, b uint64) uint {
	d := a ^ b
	for i := uint(0); i < 64; i++ {
		if (d>>i)&1 == 1 {
			return i
		}
	}
	return 0
}

func matchKeys(pa, pb *points) error {
	if err := sameKeySet("input", pa.inKeys, pb.inKeys); err != nil {
		return err
	}
	return sameKeySet("output", pa.outKeys, pb.outKeys)
}

func sameKeySet(kind string, a, b []string) error {
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	if len(as) != len(bs) {
		return fmt.Errorf("cec: %s interface mismatch: %d vs %d points", kind, len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Errorf("cec: %s interface mismatch at %s vs %s", kind, as[i], bs[i])
		}
	}
	return nil
}
