package cec

// The reference combinational checker: the sim.Parallel refuter and the
// clause-tied miter over two separate CNFs that Check used before it
// became frame 0 of the strashed product machine. Each module is mapped
// to its own AIG and Tseitin-encoded on its own, the inputs are tied by
// key with two clauses each, and the miter is an OR over one XOR
// variable per output pair. DiffCheck runs it beside Check.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/aig"
	"repro/internal/rtlil"
	"repro/internal/sat"
	"repro/internal/sim"
)

// refCutPoints cuts m at its flip-flops, as modulePoints(m, true) does.
func refCutPoints(m *rtlil.Module) *points {
	ix := rtlil.NewIndex(m)
	p := &points{}
	seenIn := map[rtlil.SigBit]bool{}
	for _, w := range m.Inputs() {
		mapped := ix.Map(w.Bits())
		for i, b := range mapped {
			if b.IsConst() || seenIn[b] {
				continue
			}
			seenIn[b] = true
			p.inKeys = append(p.inKeys, fmt.Sprintf("in:%s[%d]", w.Name, i))
			p.inBits = append(p.inBits, b)
		}
	}
	for _, c := range m.Cells() {
		if !rtlil.IsSequential(c.Type) {
			continue
		}
		q := ix.Map(c.Port("Q"))
		for i, b := range q {
			if b.IsConst() || seenIn[b] {
				continue
			}
			seenIn[b] = true
			p.inKeys = append(p.inKeys, fmt.Sprintf("ff:%s.Q[%d]", c.Name, i))
			p.inBits = append(p.inBits, b)
		}
	}
	for _, w := range m.Outputs() {
		for i, b := range w.Bits() {
			p.outKeys = append(p.outKeys, fmt.Sprintf("out:%s[%d]", w.Name, i))
			p.outBits = append(p.outBits, b)
		}
	}
	for _, c := range m.Cells() {
		if !rtlil.IsSequential(c.Type) {
			continue
		}
		for i, b := range c.Port("D") {
			p.outKeys = append(p.outKeys, fmt.Sprintf("ff:%s.D[%d]", c.Name, i))
			p.outBits = append(p.outBits, b)
		}
	}
	return p
}

// refBitForKey returns the bit of a cut point by key.
func (p *points) refBitForKey(key string) rtlil.SigBit {
	for i, k := range p.inKeys {
		if k == key {
			return p.inBits[i]
		}
	}
	for i, k := range p.outKeys {
		if k == key {
			return p.outBits[i]
		}
	}
	panic("cec: unknown key " + key)
}

// refCheck is Check on the reference checker.
func refCheck(a, b *rtlil.Module, opt *Options) error {
	o := opt.withDefaults()
	pa, pb := refCutPoints(a), refCutPoints(b)
	if err := matchKeys(pa, pb); err != nil {
		return err
	}
	cex, err := refRefute(a, b, pa, pb, o.RandomRounds)
	if err != nil {
		return err
	}
	if cex != nil {
		return cex
	}
	return refSatMiter(a, b, pa, pb, o.MaxConflicts)
}

// refRefute is the random-simulation phase: rounds of 64 random
// patterns on sim.Parallel, drawing from the RNG in the order simulate
// does.
func refRefute(a, b *rtlil.Module, pa, pb *points, rounds int) (*NotEquivalentError, error) {
	rng := rand.New(rand.NewSource(checkSeed))
	simA, err := sim.NewParallel(a)
	if err != nil {
		return nil, fmt.Errorf("cec: module %s: %w", a.Name, err)
	}
	simB, err := sim.NewParallel(b)
	if err != nil {
		return nil, fmt.Errorf("cec: module %s: %w", b.Name, err)
	}
	for round := 0; round < rounds; round++ {
		lanes := make([]uint64, len(pa.inBits))
		inA := map[rtlil.SigBit]uint64{}
		inB := map[rtlil.SigBit]uint64{}
		for i := range lanes {
			lanes[i] = rng.Uint64()
			inA[pa.inBits[i]] = lanes[i]
			inB[pb.refBitForKey(pa.inKeys[i])] = lanes[i]
		}
		ra := simA.Run(inA)
		rb := simB.Run(inB)
		for i, key := range pa.outKeys {
			va := simA.Sig(ra, rtlil.SigSpec{pa.outBits[i]})[0]
			vb := simB.Sig(rb, rtlil.SigSpec{pb.refBitForKey(key)})[0]
			if va != vb {
				lane := firstDiffLane(va, vb)
				ce := map[string]bool{}
				for j, k := range pa.inKeys {
					ce[k] = (lanes[j]>>lane)&1 == 1
				}
				return &NotEquivalentError{Output: key, Inputs: ce}, nil
			}
		}
	}
	return nil, nil
}

// refSatMiter proves the pair on two CNFs tied by clauses.
func refSatMiter(a, b *rtlil.Module, pa, pb *points, maxConflicts int64) error {
	mpA, err := aig.FromModule(a)
	if err != nil {
		return fmt.Errorf("cec: mapping %s: %w", a.Name, err)
	}
	mpB, err := aig.FromModule(b)
	if err != nil {
		return fmt.Errorf("cec: mapping %s: %w", b.Name, err)
	}
	solver := sat.NewSolver()
	solver.MaxConflicts = maxConflicts
	cnfA := aig.NewCNF(mpA.G, solver)
	cnfB := aig.NewCNF(mpB.G, solver)

	// Tie the inputs together by key.
	inLitA := map[string]sat.Lit{}
	for i, key := range pa.inKeys {
		inLitA[key] = cnfA.SatLit(mpA.LitOf(pa.inBits[i]))
	}
	for key, la := range inLitA {
		lb := cnfB.SatLit(mpB.LitOf(pb.refBitForKey(key)))
		solver.AddClause(la.Not(), lb)
		solver.AddClause(la, lb.Not())
	}

	// Miter: OR over output-pair XORs.
	var miter []sat.Lit
	type outPair struct {
		key    string
		la, lb sat.Lit
	}
	var outs []outPair
	for i, key := range pa.outKeys {
		la := cnfA.SatLit(mpA.LitOf(pa.outBits[i]))
		lb := cnfB.SatLit(mpB.LitOf(pb.refBitForKey(key)))
		xl := sat.PosLit(solver.NewVar())
		// x <-> la xor lb
		solver.AddClause(xl.Not(), la, lb)
		solver.AddClause(xl.Not(), la.Not(), lb.Not())
		solver.AddClause(xl, la.Not(), lb)
		solver.AddClause(xl, la, lb.Not())
		miter = append(miter, xl)
		outs = append(outs, outPair{key, la, lb})
	}
	if len(miter) == 0 {
		return nil
	}
	solver.AddClause(miter...)

	switch solver.Solve() {
	case sat.Unsat:
		return nil
	case sat.Unknown:
		return fmt.Errorf("cec: SAT conflict budget exhausted (MaxConflicts=%d)", maxConflicts)
	}
	ce := map[string]bool{}
	for key, l := range inLitA {
		ce[key] = solver.ValueLit(l)
	}
	for _, ov := range outs {
		if solver.ValueLit(ov.la) != solver.ValueLit(ov.lb) {
			return &NotEquivalentError{Output: ov.key, Inputs: ce}
		}
	}
	return &NotEquivalentError{Output: "?", Inputs: ce}
}

// DiffCheck runs Check and the reference checker on one pair and
// describes the first way they disagree ("" when they agree): the
// verdict kind; a simulation counterexample, which must be
// byte-identical to the reference's; and any counterexample of either
// checker that does not replay on sim.Parallel. It also returns both
// verdicts. Meant for unbounded checks: a conflict budget may decide
// the two miters differently.
func DiffCheck(a, b *rtlil.Module, opt *Options) (got, want error, diff string) {
	got, want = Check(a, b, opt), refCheck(a, b, opt)
	if g, w := verdictKind(got), verdictKind(want); g != w {
		return got, want, fmt.Sprintf("verdict %s (%v), reference %s (%v)", g, got, w, want)
	}
	for _, v := range []error{got, want} {
		var ne *NotEquivalentError
		if errors.As(v, &ne) {
			if err := replayCheck(a, b, ne); err != nil {
				return got, want, err.Error()
			}
		}
	}
	o := opt.withDefaults()
	ma, mb, err := newMachines(a, b, true)
	if err != nil {
		return got, want, ""
	}
	cex, _, _ := simulate(ma, mb, checkSeed, o.RandomRounds, 1)
	rcex, err := refRefute(a, b, refCutPoints(a), refCutPoints(b), o.RandomRounds)
	if err != nil {
		return got, want, "reference simulation: " + err.Error()
	}
	if (cex == nil) != (rcex == nil) || (rcex != nil && !reflect.DeepEqual(got, want)) {
		return got, want, fmt.Sprintf("simulation counterexample %v (verdict %v), reference %v", cex, got, rcex)
	}
	return got, want, ""
}

// replayCheck evaluates both modules on sim.Parallel under the
// counterexample's inputs (lane 0) and fails unless its output differs.
func replayCheck(a, b *rtlil.Module, ne *NotEquivalentError) error {
	var vals [2]uint64
	for s, m := range []*rtlil.Module{a, b} {
		ps, err := sim.NewParallel(m)
		if err != nil {
			return err
		}
		in := map[rtlil.SigBit]uint64{}
		for key, v := range ne.Inputs {
			bit, err := keyBit(m, key)
			if err != nil {
				return err
			}
			if v {
				in[bit] = 1
			}
		}
		out, err := keyBit(m, ne.Output)
		if err != nil {
			return err
		}
		vals[s] = ps.Sig(ps.Run(in), rtlil.SigSpec{out})[0] & 1
	}
	if vals[0] == vals[1] {
		return fmt.Errorf("counterexample does not replay on sim.Parallel: %v", ne)
	}
	return nil
}

// keyBit resolves a cut-point key to its module bit: in:<wire>[i] and
// out:<wire>[i] name a port bit, ff:<cell>.Q[i] and ff:<cell>.D[i] a
// flip-flop's.
func keyBit(m *rtlil.Module, key string) (rtlil.SigBit, error) {
	open := strings.LastIndex(key, "[")
	i, err := strconv.Atoi(strings.TrimSuffix(key[open+1:], "]"))
	if open < 0 || err != nil {
		return rtlil.SigBit{}, fmt.Errorf("bad key %q", key)
	}
	kind, name, _ := strings.Cut(key[:open], ":")
	var sig rtlil.SigSpec
	if dot := strings.LastIndex(name, "."); kind == "ff" && dot >= 0 {
		if c := m.Cell(name[:dot]); c != nil {
			sig = c.Port(name[dot+1:])
		}
	} else if w := m.Wire(name); kind != "ff" && w != nil {
		sig = w.Bits()
	}
	if i < 0 || i >= len(sig) {
		return rtlil.SigBit{}, fmt.Errorf("module %s has no bit %q", m.Name, key)
	}
	return sig[i], nil
}

// CheckPair is one module pair for a differential check.
type CheckPair struct {
	Name string
	A, B *rtlil.Module
}

// CheckFixtures returns this package's combinational pairs: random
// modules against their clones and against copies with one cell's
// output inverted, the De Morgan pair, the 0xdeadbeef pair alone and
// behind another output, and the flip-flop modules of TestSequentialCut.
func CheckFixtures() []CheckPair {
	var out []CheckPair
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 16; trial++ {
		m := randomModule(rng)
		out = append(out,
			CheckPair{fmt.Sprintf("random%d/clone", trial), m, m.Clone()},
			CheckPair{fmt.Sprintf("random%d/inverted", trial), m, invertedCell(m.Clone(), rng)})
	}
	a, b := demorganPair()
	out = append(out, CheckPair{"demorgan", a, b})
	a, b = magicPair()
	out = append(out, CheckPair{"deadbeef", a, b})
	a, b = lateMagicPair()
	out = append(out, CheckPair{"deadbeef/late", a, b})
	out = append(out,
		CheckPair{"flop", flopModule(false), flopModule(true)},
		CheckPair{"flop/inverted", flopModule(true), invertedD(flopModule(true))})
	return out
}

// lateMagicPair is magicPair behind a first output the two modules
// compute alike but differently, x*y against y*x, so only a miter over
// every output finds the difference.
func lateMagicPair() (*rtlil.Module, *rtlil.Module) {
	build := func(diff bool) *rtlil.Module {
		m := rtlil.NewModule("m")
		x := m.AddInput("x", 32).Bits()
		y := m.AddInput("y", 3).Bits()
		p := m.AddOutput("p", 3)
		out := m.AddOutput("out", 1)
		if diff {
			m.Connect(p.Bits(), m.MulOp(x.Extract(0, 3), y))
			m.Connect(out.Bits(), m.Eq(x, rtlil.Const(0xdeadbeef, 32)))
		} else {
			m.Connect(p.Bits(), m.MulOp(y, x.Extract(0, 3)))
			m.Connect(out.Bits(), rtlil.Const(0, 1))
		}
		return m
	}
	return build(true), build(false)
}

// invertedCell returns m with the output of one cell, drawn from rng,
// inverted.
func invertedCell(m *rtlil.Module, rng *rand.Rand) *rtlil.Module {
	cells := m.Cells()
	c := cells[rng.Intn(len(cells))]
	y := c.Port("Y")
	w := m.NewWire(len(y))
	c.SetPort("Y", w.Bits())
	m.Connect(y, m.Not(w.Bits()))
	return m
}
