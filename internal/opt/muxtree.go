package opt

import (
	"repro/internal/rtlil"
)

// Oracle answers control-value queries during a muxtree traversal. The
// walker pushes path facts (control values implied by the branch being
// descended) and asks for the value of the next control bit.
//
// The baseline (Yosys opt_muxtree behaviour) answers only from the pushed
// facts; smaRTLy's oracle additionally runs sub-graph inference,
// simulation and SAT (internal/core).
type Oracle interface {
	// Push records a path fact: along the current branch, bit has the
	// given constant value.
	Push(bit rtlil.SigBit, v rtlil.State)
	// Pop removes the n most recent facts.
	Pop(n int)
	// Lookup answers cheaply from recorded facts only. It is used for
	// data-port substitution, where a full query per bit would be too
	// expensive.
	Lookup(bit rtlil.SigBit) (rtlil.State, bool)
	// Value determines the bit's value under the current path facts,
	// with whatever effort the oracle implements.
	Value(bit rtlil.SigBit) (rtlil.State, bool)
}

// FactOracle is the baseline oracle: a stack of path facts with map
// lookup, replicating what Yosys' opt_muxtree knows.
type FactOracle struct {
	facts map[rtlil.SigBit]rtlil.State
	stack []rtlil.SigBit
}

// NewFactOracle returns an empty fact oracle.
func NewFactOracle() *FactOracle {
	return &FactOracle{facts: map[rtlil.SigBit]rtlil.State{}}
}

// Push implements Oracle.
func (o *FactOracle) Push(bit rtlil.SigBit, v rtlil.State) {
	if _, dup := o.facts[bit]; dup {
		// Keep the first fact; record a placeholder pop entry.
		o.stack = append(o.stack, rtlil.SigBit{Const: rtlil.Sx})
		return
	}
	o.facts[bit] = v
	o.stack = append(o.stack, bit)
}

// Pop implements Oracle.
func (o *FactOracle) Pop(n int) {
	for i := 0; i < n; i++ {
		b := o.stack[len(o.stack)-1]
		o.stack = o.stack[:len(o.stack)-1]
		if b.Wire != nil || b.Const != rtlil.Sx {
			delete(o.facts, b)
		}
	}
}

// Lookup implements Oracle.
func (o *FactOracle) Lookup(bit rtlil.SigBit) (rtlil.State, bool) {
	if bit.IsConst() && (bit.Const == rtlil.S0 || bit.Const == rtlil.S1) {
		return bit.Const, true
	}
	v, ok := o.facts[bit]
	return v, ok
}

// Value implements Oracle: the baseline knows nothing beyond its facts.
func (o *FactOracle) Value(bit rtlil.SigBit) (rtlil.State, bool) {
	return o.Lookup(bit)
}

// Facts returns the current fact map (shared, do not mutate).
func (o *FactOracle) Facts() map[rtlil.SigBit]rtlil.State { return o.facts }

// BatchValue is one result of a BatchOracle query.
type BatchValue struct {
	V     rtlil.State
	Known bool
}

// BatchOracle is implemented by oracles that can resolve several control
// bits under the same path condition at once — smaRTLy's oracle fans the
// independent simulation/SAT queries of a pmux select scan out to a
// worker pool. Implementations must return results identical to calling
// Value on each bit sequentially in slice order (deterministic merge),
// so the walker's rewrites do not depend on the worker count.
type BatchOracle interface {
	Oracle
	ValueBatch(bits []rtlil.SigBit) []BatchValue
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
	Oracle Oracle

	m       *rtlil.Module
	ix      *rtlil.Index
	visited map[*rtlil.Cell]bool
	removed map[*rtlil.Cell]bool
	res     *Result
}

// Run traverses and rewrites the indexed module's muxtrees once. The
// index must be current for the module when Run starts: it is the
// snapshot every tree edge is judged against while the walk rewrites.
// Cancellation is checked between tree roots; a canceled run returns
// the context error with the rewrites applied so far (each is
// individually sound).
func (w *MuxtreeWalk) Run(c *Ctx, ix *rtlil.Index) (Result, error) {
	res := newResult()
	w.m = ix.Module()
	w.ix = ix
	w.visited = map[*rtlil.Cell]bool{}
	w.removed = map[*rtlil.Cell]bool{}
	w.res = &res
	if w.Oracle == nil {
		w.Oracle = NewFactOracle()
	}

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
	if c == nil || w.removed[c] {
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
		if v, ok := w.Oracle.Lookup(b); ok {
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
	w.removed[c] = true
	w.m.Connect(y, branch.Copy())
	w.res.bump(counter, 1)
	if child := w.treeChild(branch); child != nil {
		w.visit(child)
	}
}

func (w *MuxtreeWalk) visit(c *rtlil.Cell) {
	if w.visited[c] || w.removed[c] {
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
	if v, ok := w.Oracle.Value(s); ok {
		if v == rtlil.S1 {
			w.collapse(c, c.Port("B"), "mux_collapsed")
		} else {
			w.collapse(c, c.Port("A"), "mux_collapsed")
		}
		return
	}
	if child := w.treeChild(c.Port("A")); child != nil {
		w.Oracle.Push(s, rtlil.S0)
		w.visit(child)
		w.Oracle.Pop(1)
	}
	if child := w.treeChild(c.Port("B")); child != nil {
		w.Oracle.Push(s, rtlil.S1)
		w.visit(child)
		w.Oracle.Pop(1)
	}
}

func (w *MuxtreeWalk) visitPmux(c *rtlil.Cell) {
	w.substituteData(c, "A")
	w.substituteData(c, "B")
	sw := c.Param("S_WIDTH")
	s := c.Port("S")

	// Determine select values under the current path condition. All sw
	// queries see the same module state and fact set, so a batch-capable
	// oracle may resolve them concurrently.
	bits := make([]rtlil.SigBit, sw)
	vals := make([]rtlil.State, sw)
	for i := 0; i < sw; i++ {
		bits[i] = w.ctrlBit(rtlil.SigSpec{s[i]})
		// Unknown by default: the State zero value is S0 ("known 0"),
		// which would unsoundly drop words if an oracle left a slot
		// unanswered.
		vals[i] = rtlil.Sx
	}
	if bo, ok := w.Oracle.(BatchOracle); ok && sw > 1 {
		for i, r := range bo.ValueBatch(bits) {
			if r.Known {
				vals[i] = r.V
			}
		}
	} else {
		for i := 0; i < sw; i++ {
			if v, ok := w.Oracle.Value(bits[i]); ok {
				vals[i] = v
			}
		}
	}

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
	w.removed[c] = true
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
		n := 0
		for i := range sels {
			w.Oracle.Push(w.ctrlBit(rtlil.SigSpec{sels[i]}), rtlil.S0)
			n++
		}
		w.visit(child)
		w.Oracle.Pop(n)
	}
	for i, word := range words {
		child := w.treeChild(word)
		if child == nil {
			continue
		}
		n := 0
		w.Oracle.Push(w.ctrlBit(rtlil.SigSpec{sels[i]}), rtlil.S1)
		n++
		for j := i + 1; j < len(sels); j++ {
			w.Oracle.Push(w.ctrlBit(rtlil.SigSpec{sels[j]}), rtlil.S0)
			n++
		}
		w.visit(child)
		w.Oracle.Pop(n)
	}
}

// MuxtreePass is the baseline opt_muxtree: the walker with the
// facts-only oracle, run to a fixpoint.
type MuxtreePass struct{}

// Name implements Pass.
func (MuxtreePass) Name() string { return "opt_muxtree" }

// Run implements Pass.
func (MuxtreePass) Run(c *Ctx, m *rtlil.Module) (Result, error) {
	total := newResult()
	for iter := 0; iter < 20; iter++ {
		walk := &MuxtreeWalk{Oracle: NewFactOracle()}
		r, err := walk.Run(c, rtlil.NewIndex(m))
		if err != nil {
			return total, err
		}
		total.merge(r)
		if !r.Changed {
			break
		}
	}
	return total, nil
}
