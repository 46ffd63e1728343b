// Package infer implements the known-value inference engine of smaRTLy's
// SAT-based redundancy elimination (paper §II, Table I).
//
// Given a set of assumed bit values (the muxtree path condition), the
// engine propagates implications through cells both forward (inputs →
// output, via the four-state evaluator) and backward (output → inputs;
// e.g. the paper's OR rules: a|b = 0 ⇒ a = b = 0, and a|b = 1 with
// a = 0 ⇒ b = 1). Propagation runs to a fixpoint; a contradiction means
// the assumed path condition is unreachable.
//
// The cheap fixpoint resolves most of the paper's motivating cases (such
// as Figure 3's S ⇒ S|R = 1) without invoking the SAT solver at all.
package infer

import (
	"slices"

	"repro/internal/rtlil"
	"repro/internal/sim"
	"repro/internal/subgraph"
)

// Engine propagates known bit values through a module (or a restricted
// cell sub-set) to a fixpoint. Facts are keyed by Index.ID and cells by
// their subgraph.Graph id: a fact schedules the bit's driver and then
// its readers in cell order, as the Index lists them, and the pending
// cells are a stack, so the rules fire in one fixed order.
type Engine struct {
	ix       *rtlil.Index
	g        *subgraph.Graph
	scope    []int32 // graph ids of the participating cells, ascending
	inQueue  []bool  // by position in scope
	pending  []int32 // positions in scope, processed last in, first out
	known    rtlil.IDMap[rtlil.State]
	loose    map[rtlil.SigBit]rtlil.State // facts on bits the index does not number
	conflict bool
	facts    int
	in       map[string][]rtlil.State // forward's input values, reused per cell
}

// New creates an engine over the indexed module. If cells is non-nil,
// only those cells participate in propagation (the sub-graph case).
// Sequential cells never participate.
func New(ix *rtlil.Index, cells []*rtlil.Cell) *Engine {
	g := subgraph.NewGraph(ix)
	var ids []int32
	if cells == nil {
		for id := int32(0); int(id) < g.NumCells(); id++ {
			ids = append(ids, id)
		}
	} else {
		pos := make(map[*rtlil.Cell]int32, g.NumCells())
		for id := int32(0); int(id) < g.NumCells(); id++ {
			pos[g.Cell(id)] = id
		}
		for _, c := range cells {
			if id, ok := pos[c]; ok {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	ids = slices.DeleteFunc(ids, func(id int32) bool { return rtlil.IsSequential(g.Cell(id).Type) })
	return NewScoped(g, ids)
}

// NewScoped creates an engine over the combinational cells of g with
// the given graph ids (ascending, as subgraph.Result.IDs holds them;
// the engine reads the slice, never writes it). It is the oracle's
// per-query constructor: its cost is O(len(ids)), not O(module).
func NewScoped(g *subgraph.Graph, ids []int32) *Engine {
	return &Engine{ix: g.Index(), g: g, scope: ids, inQueue: make([]bool, len(ids))}
}

// Assume records that bit b has value v (S0 or S1) and schedules
// propagation. Assuming both values for one bit raises a conflict.
func (e *Engine) Assume(b rtlil.SigBit, v rtlil.State) {
	e.setBit(b, v)
}

// AssumeSig records known values for every defined state in vals.
func (e *Engine) AssumeSig(sig rtlil.SigSpec, vals []rtlil.State) {
	for i, b := range sig {
		if vals[i] == rtlil.S0 || vals[i] == rtlil.S1 {
			e.Assume(b, vals[i])
		}
	}
}

// Value returns the inferred value of b, if known.
func (e *Engine) Value(b rtlil.SigBit) (rtlil.State, bool) {
	if id := e.ix.ID(b); id >= 0 {
		return e.known.Get(id)
	}
	b = e.ix.MapBit(b)
	if b.IsConst() {
		if b.Const == rtlil.S0 || b.Const == rtlil.S1 {
			return b.Const, true
		}
		return rtlil.Sx, false
	}
	v, ok := e.loose[b]
	return v, ok
}

// ValueSig returns the signal's known values (Sx for unknown bits).
func (e *Engine) ValueSig(sig rtlil.SigSpec) []rtlil.State {
	out := make([]rtlil.State, len(sig))
	for i, b := range sig {
		if v, ok := e.Value(b); ok {
			out[i] = v
		} else {
			out[i] = rtlil.Sx
		}
	}
	return out
}

// NumFacts returns the number of bit values learned so far (assumptions
// included).
func (e *Engine) NumFacts() int { return e.facts }

// Conflict reports whether the assumptions are contradictory.
func (e *Engine) Conflict() bool { return e.conflict }

func (e *Engine) setBit(b rtlil.SigBit, v rtlil.State) {
	if v != rtlil.S0 && v != rtlil.S1 {
		return
	}
	id := e.ix.ID(b)
	if id < 0 {
		b = e.ix.MapBit(b)
		if b.IsConst() {
			if (b.Const == rtlil.S0 || b.Const == rtlil.S1) && b.Const != v {
				e.conflict = true
			}
			return
		}
		// A bit the index does not number has no driver and no readers.
		if old, ok := e.loose[b]; ok {
			e.conflict = e.conflict || old != v
			return
		}
		if e.loose == nil {
			e.loose = map[rtlil.SigBit]rtlil.State{}
		}
		e.loose[b] = v
		e.facts++
		return
	}
	if old, ok := e.known.Get(id); ok {
		if old != v {
			e.conflict = true
		}
		return
	}
	e.known.Set(id, v)
	e.facts++
	// Schedule the driver and all readers for (re)examination.
	if d := e.g.Driver(id); d >= 0 {
		e.enqueue(d)
	}
	for _, r := range e.g.Readers(id) {
		e.enqueue(r)
	}
}

// enqueue schedules the cell with graph id gid when it participates and
// is not already pending.
func (e *Engine) enqueue(gid int32) {
	if p, ok := slices.BinarySearch(e.scope, gid); ok && !e.inQueue[p] {
		e.inQueue[p] = true
		e.pending = append(e.pending, int32(p))
	}
}

// Propagate runs inference to a fixpoint. It returns false if the
// assumptions are contradictory (the path is unreachable).
func (e *Engine) Propagate() bool {
	for len(e.pending) > 0 && !e.conflict {
		p := e.pending[len(e.pending)-1]
		e.pending = e.pending[:len(e.pending)-1]
		e.inQueue[p] = false
		c := e.g.Cell(e.scope[p])
		e.forward(c)
		if e.conflict {
			break
		}
		e.backward(c)
	}
	return !e.conflict
}

// forward evaluates the cell over currently known values; any defined
// output bit becomes a fact.
func (e *Engine) forward(c *rtlil.Cell) {
	if e.in == nil {
		e.in = map[string][]rtlil.State{}
	}
	clear(e.in)
	for _, p := range rtlil.InputPorts(c.Type) {
		e.in[p] = e.ValueSig(c.Port(p))
	}
	out, err := sim.EvalCell(c, e.in)
	if err != nil {
		return
	}
	y := c.Port(rtlil.OutputPorts(c.Type)[0])
	for i, b := range y {
		if out[i] == rtlil.S0 || out[i] == rtlil.S1 {
			e.setBit(b, out[i])
		}
	}
}

// backward applies output-to-input implication rules.
func (e *Engine) backward(c *rtlil.Cell) {
	y := e.ValueSig(c.Port("Y"))
	switch c.Type {
	case rtlil.CellNot:
		a := c.Port("A")
		for i := range y {
			if i < len(a) && (y[i] == rtlil.S0 || y[i] == rtlil.S1) {
				e.setBit(a[i], sim.Not3(y[i]))
			}
		}

	case rtlil.CellAnd, rtlil.CellOr:
		e.backwardBitwise(c, y)

	case rtlil.CellXor, rtlil.CellXnor:
		a, b := c.Port("A"), c.Port("B")
		av, bv := e.ValueSig(a), e.ValueSig(b)
		for i := range y {
			if y[i] != rtlil.S0 && y[i] != rtlil.S1 {
				continue
			}
			yi := y[i]
			if c.Type == rtlil.CellXnor {
				yi = sim.Not3(yi)
			}
			if i < len(a) && i < len(b) {
				if av[i] == rtlil.S0 || av[i] == rtlil.S1 {
					e.setBit(b[i], sim.Xor3(yi, av[i]))
				}
				if bv[i] == rtlil.S0 || bv[i] == rtlil.S1 {
					e.setBit(a[i], sim.Xor3(yi, bv[i]))
				}
			}
		}

	case rtlil.CellReduceAnd:
		e.backwardReduce(c, y[0], rtlil.S1)
	case rtlil.CellReduceOr:
		e.backwardReduce(c, y[0], rtlil.S0)
	case rtlil.CellLogicNot:
		e.backwardReduce(c, sim.Not3(y[0]), rtlil.S0)

	case rtlil.CellLogicAnd, rtlil.CellLogicOr:
		e.backwardLogicBin(c, y[0])

	case rtlil.CellEq, rtlil.CellNe:
		e.backwardEq(c, y[0])

	case rtlil.CellMux:
		e.backwardMux(c, y)

	case rtlil.CellPmux:
		e.backwardPmux(c, y)
	}
}

// backwardBitwise handles $and / $or per bit. For $or this is exactly the
// paper's Table I; $and is the dual.
func (e *Engine) backwardBitwise(c *rtlil.Cell, y []rtlil.State) {
	a, b := c.Port("A"), c.Port("B")
	av, bv := e.ValueSig(a), e.ValueSig(b)
	forcing, forced := rtlil.S1, rtlil.S0 // $or: y=1&a=0 ⇒ b=1; y=0 ⇒ a=b=0
	if c.Type == rtlil.CellAnd {
		forcing, forced = rtlil.S0, rtlil.S1 // $and: y=0&a=1 ⇒ b=0; y=1 ⇒ a=b=1
	}
	for i := range y {
		if i >= len(a) || i >= len(b) {
			continue
		}
		switch y[i] {
		case forced:
			// The non-dominant output forces both inputs.
			e.setBit(a[i], forced)
			e.setBit(b[i], forced)
		case forcing:
			// Dominant output with one input known non-dominant forces
			// the other input.
			if av[i] == forced {
				e.setBit(b[i], forcing)
			}
			if bv[i] == forced {
				e.setBit(a[i], forcing)
			}
		}
	}
}

// backwardReduce handles reduce gates: absorbing is the input value that
// cannot occur when the output proves all inputs are the other value.
func (e *Engine) backwardReduce(c *rtlil.Cell, y rtlil.State, zero rtlil.State) {
	a := c.Port("A")
	av := e.ValueSig(a)
	one := sim.Not3(zero)
	switch y {
	case zero:
		// reduce_or = 0 ⇒ all inputs 0; reduce_and = 1 ⇒ all inputs 1
		// (the roles are mirrored via the zero parameter).
		for _, b := range a {
			e.setBit(b, zero)
		}
	case one:
		// Exactly one undetermined input with all others at the neutral
		// value forces it.
		unknown := -1
		for i := range a {
			switch av[i] {
			case one:
				return // already satisfied
			case zero:
			default:
				if unknown >= 0 {
					return // more than one free input
				}
				unknown = i
			}
		}
		if unknown >= 0 {
			e.setBit(a[unknown], one)
		} else {
			e.conflict = true // all inputs neutral but output claims otherwise
		}
	}
}

func (e *Engine) backwardLogicBin(c *rtlil.Cell, y rtlil.State) {
	a, b := c.Port("A"), c.Port("B")
	redA := reduce3(e.ValueSig(a))
	redB := reduce3(e.ValueSig(b))
	if c.Type == rtlil.CellLogicAnd {
		switch y {
		case rtlil.S1:
			e.forceReduce(a, rtlil.S1)
			e.forceReduce(b, rtlil.S1)
		case rtlil.S0:
			if redA == rtlil.S1 {
				e.forceReduce(b, rtlil.S0)
			}
			if redB == rtlil.S1 {
				e.forceReduce(a, rtlil.S0)
			}
		}
		return
	}
	// $logic_or
	switch y {
	case rtlil.S0:
		e.forceReduce(a, rtlil.S0)
		e.forceReduce(b, rtlil.S0)
	case rtlil.S1:
		if redA == rtlil.S0 {
			e.forceReduce(b, rtlil.S1)
		}
		if redB == rtlil.S0 {
			e.forceReduce(a, rtlil.S1)
		}
	}
}

// forceReduce makes |sig equal to v: v=0 zeroes every bit; v=1 forces a
// single undetermined bit when all others are 0.
func (e *Engine) forceReduce(sig rtlil.SigSpec, v rtlil.State) {
	vals := e.ValueSig(sig)
	if v == rtlil.S0 {
		for _, b := range sig {
			e.setBit(b, rtlil.S0)
		}
		return
	}
	unknown := -1
	for i := range sig {
		switch vals[i] {
		case rtlil.S1:
			return
		case rtlil.S0:
		default:
			if unknown >= 0 {
				return
			}
			unknown = i
		}
	}
	if unknown >= 0 {
		e.setBit(sig[unknown], rtlil.S1)
	} else {
		e.conflict = true
	}
}

func reduce3(vals []rtlil.State) rtlil.State {
	r := rtlil.S0
	for _, v := range vals {
		r = sim.Or3(r, v)
	}
	return r
}

// backwardEq handles $eq / $ne.
func (e *Engine) backwardEq(c *rtlil.Cell, y rtlil.State) {
	if y != rtlil.S0 && y != rtlil.S1 {
		return
	}
	if c.Type == rtlil.CellNe {
		y = sim.Not3(y)
	}
	a, b := c.Port("A"), c.Port("B")
	av, bv := e.ValueSig(a), e.ValueSig(b)
	if y == rtlil.S1 {
		// Equal: copy known bits across.
		for i := range a {
			if i >= len(b) {
				break
			}
			if av[i] == rtlil.S0 || av[i] == rtlil.S1 {
				e.setBit(b[i], av[i])
			}
			if bv[i] == rtlil.S0 || bv[i] == rtlil.S1 {
				e.setBit(a[i], bv[i])
			}
		}
		return
	}
	// Not equal: if exactly one bit pair is undecided and all other
	// pairs are known equal, the undecided pair must differ.
	undecided := -1
	for i := range a {
		if i >= len(b) {
			break
		}
		known := (av[i] == rtlil.S0 || av[i] == rtlil.S1) && (bv[i] == rtlil.S0 || bv[i] == rtlil.S1)
		if known {
			if av[i] != bv[i] {
				return // already satisfied
			}
			continue
		}
		if undecided >= 0 {
			return
		}
		undecided = i
	}
	if undecided < 0 {
		e.conflict = true
		return
	}
	i := undecided
	if av[i] == rtlil.S0 || av[i] == rtlil.S1 {
		e.setBit(b[i], sim.Not3(av[i]))
	} else if bv[i] == rtlil.S0 || bv[i] == rtlil.S1 {
		e.setBit(a[i], sim.Not3(bv[i]))
	}
}

// backwardMux infers through $mux: a known output bit that matches only
// one branch determines the select; a known select forwards output bits
// into the active branch.
func (e *Engine) backwardMux(c *rtlil.Cell, y []rtlil.State) {
	a, b, s := c.Port("A"), c.Port("B"), c.Port("S")
	av, bv := e.ValueSig(a), e.ValueSig(b)
	sv, sKnown := e.Value(s[0])
	for i := range y {
		if y[i] != rtlil.S0 && y[i] != rtlil.S1 {
			continue
		}
		if sKnown {
			if sv == rtlil.S0 {
				e.setBit(a[i], y[i])
			} else {
				e.setBit(b[i], y[i])
			}
			continue
		}
		aK := av[i] == rtlil.S0 || av[i] == rtlil.S1
		bK := bv[i] == rtlil.S0 || bv[i] == rtlil.S1
		if aK && bK && av[i] != bv[i] {
			if y[i] == bv[i] {
				e.setBit(s[0], rtlil.S1)
			} else {
				e.setBit(s[0], rtlil.S0)
			}
		} else if aK && av[i] != y[i] {
			// Output differs from A, so B must be selected.
			e.setBit(s[0], rtlil.S1)
			e.setBit(b[i], y[i])
		} else if bK && bv[i] != y[i] {
			e.setBit(s[0], rtlil.S0)
			e.setBit(a[i], y[i])
		}
	}
}

// backwardPmux: with all select bits known, forward output bits into the
// selected word (or the default).
func (e *Engine) backwardPmux(c *rtlil.Cell, y []rtlil.State) {
	w := c.Param("WIDTH")
	sw := c.Param("S_WIDTH")
	s := c.Port("S")
	sv := e.ValueSig(s)
	sel := -1
	for i := 0; i < sw; i++ {
		switch sv[i] {
		case rtlil.S1:
			if sel >= 0 {
				return // multi-hot: leave to four-state semantics
			}
			sel = i
		case rtlil.S0:
		default:
			return
		}
	}
	var target rtlil.SigSpec
	if sel < 0 {
		target = c.Port("A")
	} else {
		target = c.Port("B").Extract(sel*w, w)
	}
	for i := range y {
		if y[i] == rtlil.S0 || y[i] == rtlil.S1 {
			e.setBit(target[i], y[i])
		}
	}
}
