package opt

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/rtlil"
)

// Oracle answers the select values of a muxtree walk under the path
// facts the walk gathered on its way down the tree (paper Figure 3).
// The baseline, Yosys' opt_muxtree, is the walk with no oracle: it
// answers from the facts alone. smaRTLy's oracle adds sub-graph
// inference, simulation and SAT (internal/core).
type Oracle interface {
	// Values writes the value of bits[i] under facts to out[i]: S0 or S1
	// when it is determined, Sx when it is not. The bits of one call see
	// the same module state and facts, so an oracle may resolve them
	// concurrently, but its answers and side effects must equal
	// resolving them one at a time in slice order: the walk's rewrites
	// may not depend on the worker count. facts, and the slices it
	// returns, may only be read during the call.
	Values(facts *PathFacts, bits []rtlil.SigBit, out []rtlil.State)
}

// PathFacts is the walk's path condition: one value per bit, implied by
// the branches taken from the tree root down to the current cell. The
// facts stay sorted, constants first, then by wire name and offset, an
// order that depends only on the fact set, so oracles seed searches and
// order solver assumptions by it without sorting.
type PathFacts struct {
	bits []rtlil.SigBit
	vals []rtlil.State
	// undo holds, per Push, the index the fact went in at, or -1 when
	// the bit already had a fact.
	undo []int
}

// Push records that bit has value v along the current branch. A bit
// that already has a fact keeps its first value.
func (f *PathFacts) Push(bit rtlil.SigBit, v rtlil.State) {
	i, dup := slices.BinarySearchFunc(f.bits, bit, compareBits)
	if dup {
		f.undo = append(f.undo, -1)
		return
	}
	f.bits = slices.Insert(f.bits, i, bit)
	f.vals = slices.Insert(f.vals, i, v)
	f.undo = append(f.undo, i)
}

// Pop undoes the n most recent pushes. Pushes and pops nest, so a fact
// is still at the index it went in at when its push is undone.
func (f *PathFacts) Pop(n int) {
	for ; n > 0; n-- {
		i := f.undo[len(f.undo)-1]
		f.undo = f.undo[:len(f.undo)-1]
		if i >= 0 {
			f.bits = slices.Delete(f.bits, i, i+1)
			f.vals = slices.Delete(f.vals, i, i+1)
		}
	}
}

// Lookup answers from the facts alone: the bit's value and true, or Sx
// and false. The constants 0 and 1 are always known.
func (f *PathFacts) Lookup(bit rtlil.SigBit) (rtlil.State, bool) {
	if bit.IsConst() && (bit.Const == rtlil.S0 || bit.Const == rtlil.S1) {
		return bit.Const, true
	}
	if i, ok := slices.BinarySearchFunc(f.bits, bit, compareBits); ok {
		return f.vals[i], true
	}
	return rtlil.Sx, false
}

// Bits returns the fact bits in order and States their values, index for
// index. Both alias the stack, which the next Push or Pop changes.
func (f *PathFacts) Bits() []rtlil.SigBit { return f.bits }

// States returns the fact values in the order of Bits.
func (f *PathFacts) States() []rtlil.State { return f.vals }

// compareBits is the fact order: constants first, by value, then wire
// bits by wire name (unique within a module) and offset.
func compareBits(a, b rtlil.SigBit) int {
	if (a.Wire == nil) != (b.Wire == nil) {
		if a.Wire == nil {
			return -1
		}
		return 1
	}
	if a.Wire == nil {
		return cmp.Compare(a.Const, b.Const)
	}
	if c := strings.Compare(a.Wire.Name, b.Wire.Name); c != 0 {
		return c
	}
	return cmp.Compare(a.Offset, b.Offset)
}

// MuxtreeWalk traverses all muxtrees of the module root-down, consulting
// the oracle for control values, and applies three rewrites:
//
//   - a mux whose control is determined collapses to the active branch
//     (paper Figure 1, and Figure 3 with the smaRTLy oracle);
//   - pmux candidate words with inactive selects are dropped;
//   - data-port bits whose value is implied by the path facts are
//     replaced with constants (paper Figure 2).
//
// Rewrites are only applied along single-fanout tree edges, where the
// accumulated path condition is valid.
type MuxtreeWalk struct {
	// Oracle answers the select values; nil answers from the path facts
	// alone.
	Oracle Oracle

	m       *rtlil.Module
	ix      *rtlil.Index
	visited map[*rtlil.Cell]bool
	facts   PathFacts
	sels    []rtlil.SigBit // the selects of one query, reused
	vals    []rtlil.State  // their values, reused
	res     *Result
}

// Run traverses and rewrites the indexed module's muxtrees once. The
// index must be current for the module when Run starts: it is the
// snapshot every tree edge is judged against while the walk rewrites.
// Cancellation is checked between tree roots; a canceled run returns
// the context error with the rewrites applied so far (each is
// individually sound).
func (w *MuxtreeWalk) Run(c *Ctx, ix *rtlil.Index) (Result, error) {
	res := NewResult()
	w.m = ix.Module()
	w.ix = ix
	w.visited = map[*rtlil.Cell]bool{}
	w.facts = PathFacts{}
	w.res = &res

	muxes := w.muxCells()
	for _, mc := range muxes {
		if err := c.Err(); err != nil {
			return res, err
		}
		if w.isRoot(mc) {
			w.visit(mc)
		}
	}
	return res, nil
}

func (w *MuxtreeWalk) muxCells() []*rtlil.Cell {
	var out []*rtlil.Cell
	for _, c := range w.m.Cells() {
		if c.Type == rtlil.CellMux || c.Type == rtlil.CellPmux {
			out = append(out, c)
		}
	}
	return out
}

// TreeChild returns the mux cell driving sig, when sig is exactly that
// cell's output and every bit has fanout 1 (a muxtree edge). It is
// shared by the baseline walker and smaRTLy's restructuring pass.
func TreeChild(ix *rtlil.Index, sig rtlil.SigSpec) *rtlil.Cell {
	mapped := ix.Map(sig)
	if len(mapped) == 0 || mapped[0].IsConst() {
		return nil
	}
	r, ok := ix.Driver(mapped[0])
	if !ok {
		return nil
	}
	c := r.Cell
	if c.Type != rtlil.CellMux && c.Type != rtlil.CellPmux {
		return nil
	}
	y := ix.Map(c.Port("Y"))
	if !y.Equal(mapped) {
		return nil
	}
	for _, b := range y {
		if ix.FanoutCount(b) != 1 {
			return nil
		}
	}
	return c
}

// IsMuxRoot reports whether the mux cell is not a tree child of another
// mux (the traversal entry points).
func IsMuxRoot(ix *rtlil.Index, c *rtlil.Cell) bool {
	y := ix.Map(c.Port("Y"))
	for _, b := range y {
		if ix.FanoutCount(b) != 1 {
			return true
		}
	}
	// Single reader: root unless that reader is a mux data port taking
	// the whole word.
	r := ix.Readers(y[0])
	if len(r) != 1 {
		return true
	}
	p := r[0]
	if p.Cell.Type != rtlil.CellMux && p.Cell.Type != rtlil.CellPmux {
		return true
	}
	if p.Port == "S" {
		return true
	}
	// Check the parent's data port contains exactly this word.
	return !parentHoldsWord(ix, p.Cell, y)
}

func parentHoldsWord(ix *rtlil.Index, parent *rtlil.Cell, y rtlil.SigSpec) bool {
	width := parent.Param("WIDTH")
	if parent.Type == rtlil.CellMux {
		width = len(parent.Port("Y"))
	}
	check := func(sig rtlil.SigSpec) bool {
		return ix.Map(sig).Equal(y)
	}
	if check(parent.Port("A")) {
		return true
	}
	if parent.Type == rtlil.CellMux {
		return check(parent.Port("B"))
	}
	b := parent.Port("B")
	for i := 0; i*width < len(b); i++ {
		if check(b.Extract(i*width, width)) {
			return true
		}
	}
	return false
}

func (w *MuxtreeWalk) treeChild(sig rtlil.SigSpec) *rtlil.Cell {
	c := TreeChild(w.ix, sig)
	if c == nil || !w.m.HasCell(c) {
		return nil
	}
	return c
}

func (w *MuxtreeWalk) isRoot(c *rtlil.Cell) bool {
	return IsMuxRoot(w.ix, c)
}

func (w *MuxtreeWalk) ctrlBit(sig rtlil.SigSpec) rtlil.SigBit {
	return w.ix.MapBit(sig[0])
}

// values answers w.sels under the path facts. The result is w.vals,
// which the next query overwrites: read it before visiting a child.
func (w *MuxtreeWalk) values() []rtlil.State {
	w.vals = slices.Grow(w.vals[:0], len(w.sels))[:len(w.sels)]
	if w.Oracle == nil {
		for i, b := range w.sels {
			w.vals[i], _ = w.facts.Lookup(b)
		}
		return w.vals
	}
	// Unknown unless answered: the zero State is S0 ("known 0"), which
	// would unsoundly drop words if an oracle left a slot unanswered.
	for i := range w.vals {
		w.vals[i] = rtlil.Sx
	}
	w.Oracle.Values(&w.facts, w.sels, w.vals)
	return w.vals
}

// substituteData replaces data-port bits whose value is implied by the
// current path facts with constants (Figure 2).
func (w *MuxtreeWalk) substituteData(c *rtlil.Cell, port string) {
	sig := c.Port(port)
	changed := false
	out := sig.Copy()
	for i, b := range w.ix.Map(sig) {
		if b.IsConst() {
			continue
		}
		if v, ok := w.facts.Lookup(b); ok {
			out[i] = rtlil.ConstBit(v)
			changed = true
		}
	}
	if changed {
		c.SetPort(port, out)
		w.res.bump("data_bits_substituted", 1)
	}
}

// collapse removes cell c, connecting its output to the active branch,
// and continues traversal into that branch.
func (w *MuxtreeWalk) collapse(c *rtlil.Cell, branch rtlil.SigSpec, counter string) {
	y := c.Port("Y")
	w.m.RemoveCell(c)
	w.m.Connect(y, branch.Copy())
	w.res.bump(counter, 1)
	if child := w.treeChild(branch); child != nil {
		w.visit(child)
	}
}

func (w *MuxtreeWalk) visit(c *rtlil.Cell) {
	if w.visited[c] || !w.m.HasCell(c) {
		return
	}
	w.visited[c] = true
	switch c.Type {
	case rtlil.CellMux:
		w.visitMux(c)
	case rtlil.CellPmux:
		w.visitPmux(c)
	}
}

func (w *MuxtreeWalk) visitMux(c *rtlil.Cell) {
	w.substituteData(c, "A")
	w.substituteData(c, "B")
	s := w.ctrlBit(c.Port("S"))
	w.sels = append(w.sels[:0], s)
	switch w.values()[0] {
	case rtlil.S1:
		w.collapse(c, c.Port("B"), "mux_collapsed")
		return
	case rtlil.S0:
		w.collapse(c, c.Port("A"), "mux_collapsed")
		return
	}
	if child := w.treeChild(c.Port("A")); child != nil {
		w.facts.Push(s, rtlil.S0)
		w.visit(child)
		w.facts.Pop(1)
	}
	if child := w.treeChild(c.Port("B")); child != nil {
		w.facts.Push(s, rtlil.S1)
		w.visit(child)
		w.facts.Pop(1)
	}
}

func (w *MuxtreeWalk) visitPmux(c *rtlil.Cell) {
	w.substituteData(c, "A")
	w.substituteData(c, "B")
	sw := c.Param("S_WIDTH")
	s := c.Port("S")

	// One query for all sw selects under the current path condition.
	w.sels = w.sels[:0]
	for i := 0; i < sw; i++ {
		w.sels = append(w.sels, w.ctrlBit(rtlil.SigSpec{s[i]}))
	}
	vals := w.values()

	// With ascending priority, a select bit known 1 shadows all earlier
	// words and the default; drop words whose select is known 0.
	base := c.Port("A")
	start := 0
	for i := 0; i < sw; i++ {
		if vals[i] == rtlil.S1 {
			base = c.PmuxWord(i)
			start = i + 1
		}
	}
	var words []rtlil.SigSpec
	var sels rtlil.SigSpec
	for i := start; i < sw; i++ {
		if vals[i] == rtlil.S0 {
			continue
		}
		words = append(words, c.PmuxWord(i))
		sels = append(sels, s[i])
	}

	if start == 0 && len(words) == sw {
		// No structural change: recurse into branches with implied facts.
		w.recursePmux(c, base, words, sels)
		return
	}

	y := c.Port("Y")
	w.m.RemoveCell(c)
	switch len(words) {
	case 0:
		w.m.Connect(y, base.Copy())
		w.res.bump("pmux_collapsed", 1)
		if child := w.treeChild(base); child != nil {
			w.visit(child)
		}
	case 1:
		nc := w.m.AddMux("", base, words[0], sels, y)
		w.res.bump("pmux_shrunk", 1)
		w.visited[nc] = true // contents already processed this round
		w.recursePmux(nc, base, words, sels)
	default:
		nc := w.m.AddPmux("", base, words, sels, y)
		w.res.bump("pmux_shrunk", 1)
		w.visited[nc] = true
		w.recursePmux(nc, base, words, sels)
	}
}

// recursePmux descends into the default branch (all remaining selects 0)
// and each candidate word (its select 1, later selects 0 by priority).
func (w *MuxtreeWalk) recursePmux(c *rtlil.Cell, base rtlil.SigSpec, words []rtlil.SigSpec, sels rtlil.SigSpec) {
	if child := w.treeChild(base); child != nil {
		for i := range sels {
			w.facts.Push(w.ctrlBit(rtlil.SigSpec{sels[i]}), rtlil.S0)
		}
		w.visit(child)
		w.facts.Pop(len(sels))
	}
	for i, word := range words {
		child := w.treeChild(word)
		if child == nil {
			continue
		}
		w.facts.Push(w.ctrlBit(rtlil.SigSpec{sels[i]}), rtlil.S1)
		for j := i + 1; j < len(sels); j++ {
			w.facts.Push(w.ctrlBit(rtlil.SigSpec{sels[j]}), rtlil.S0)
		}
		w.visit(child)
		w.facts.Pop(len(sels) - i)
	}
}

// MuxtreePass is the baseline opt_muxtree: the walker with no oracle,
// answering from the path facts alone, run to a fixpoint.
type MuxtreePass struct{}

// Name implements Pass.
func (MuxtreePass) Name() string { return "opt_muxtree" }

// Run implements Pass.
func (MuxtreePass) Run(c *Ctx, m *rtlil.Module) (Result, error) {
	total := NewResult()
	for iter := 0; iter < 20; iter++ {
		walk := &MuxtreeWalk{}
		r, err := walk.Run(c, rtlil.NewIndex(m))
		if err != nil {
			return total, err
		}
		total.Merge(r)
		if !r.Changed {
			break
		}
	}
	return total, nil
}
