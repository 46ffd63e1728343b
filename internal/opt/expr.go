package opt

import (
	"repro/internal/rtlil"
	"repro/internal/sim"
)

// ExprPass is the opt_expr equivalent: it folds cells whose output is
// fully determined by constant inputs and applies word-level identity
// rewrites (x&0=0, mux with constant select, equal mux branches, pmux
// branch pruning, ...).
type ExprPass struct{}

// Name implements Pass.
func (ExprPass) Name() string { return "opt_expr" }

// Run implements Pass.
func (ExprPass) Run(c *Ctx, m *rtlil.Module) (Result, error) {
	total := NewResult()
	for iter := 0; iter < 50; iter++ {
		if err := c.Err(); err != nil {
			return total, err
		}
		r, err := exprSweep(m)
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

func exprSweep(m *rtlil.Module) (Result, error) {
	res := NewResult()
	ix := rtlil.NewIndex(m)
	order, err := rtlil.TopoSort(ix)
	if err != nil {
		return res, err
	}
	// consts accumulates constant values discovered during this sweep so
	// cascades fold in a single pass.
	consts := map[rtlil.SigBit]rtlil.State{}
	valOf := func(b rtlil.SigBit) rtlil.State {
		b = ix.MapBit(b)
		if b.IsConst() {
			return b.Const
		}
		if v, ok := consts[b]; ok {
			return v
		}
		return rtlil.Sx
	}
	sigVals := func(s rtlil.SigSpec) []rtlil.State {
		out := make([]rtlil.State, len(s))
		for i, b := range s {
			out[i] = valOf(b)
		}
		return out
	}
	constSig := func(vals []rtlil.State) rtlil.SigSpec {
		out := make(rtlil.SigSpec, len(vals))
		for i, v := range vals {
			out[i] = rtlil.ConstBit(v)
		}
		return out
	}
	allDefined := func(vals []rtlil.State) bool {
		for _, v := range vals {
			if v != rtlil.S0 && v != rtlil.S1 {
				return false
			}
		}
		return true
	}

	type rewrite struct {
		cell    *rtlil.Cell
		newSig  rtlil.SigSpec // replacement for Y; nil = keep cell
		counter string
	}
	var rewrites []rewrite

	for _, c := range order {
		if rtlil.IsSequential(c.Type) {
			continue
		}
		in := map[string][]rtlil.State{}
		for _, p := range rtlil.InputPorts(c.Type) {
			in[p] = sigVals(c.Port(p))
		}
		out, err := sim.EvalCell(c, in)
		if err != nil {
			return res, err
		}
		y := c.Port(rtlil.OutputPorts(c.Type)[0])
		if allDefined(out) {
			for i, b := range y {
				if !b.IsConst() {
					consts[ix.MapBit(b)] = out[i]
				}
			}
			rewrites = append(rewrites, rewrite{c, constSig(out), "const_folded"})
			continue
		}
		if rw, counter := identityRewrite(m, c, in); rw != nil {
			rewrites = append(rewrites, rewrite{c, rw, counter})
		}
	}

	for _, rw := range rewrites {
		y := rw.cell.Port(rtlil.OutputPorts(rw.cell.Type)[0])
		m.RemoveCell(rw.cell)
		m.Connect(y, rw.newSig)
		res.bump(rw.counter, 1)
	}
	res.Merge(shrinkPmux(m, sigVals))
	return res, nil
}

// identityRewrite returns a replacement signal for the cell's output when
// a word-level identity applies, or nil.
func identityRewrite(m *rtlil.Module, c *rtlil.Cell, in map[string][]rtlil.State) (rtlil.SigSpec, string) {
	y := c.Port(rtlil.OutputPorts(c.Type)[0])
	a, b := c.Port("A"), c.Port("B")
	switch c.Type {
	case rtlil.CellAnd, rtlil.CellOr:
		if len(a) != len(y) || len(b) != len(y) {
			return nil, ""
		}
		neutral := rtlil.S1 // and: a & 1 = a
		if c.Type == rtlil.CellOr {
			neutral = rtlil.S0
		}
		if isAll(in["B"], neutral) {
			return a.Copy(), "identity"
		}
		if isAll(in["A"], neutral) {
			return b.Copy(), "identity"
		}
	case rtlil.CellXor:
		if len(a) != len(y) || len(b) != len(y) {
			return nil, ""
		}
		if isAll(in["B"], rtlil.S0) {
			return a.Copy(), "identity"
		}
		if isAll(in["A"], rtlil.S0) {
			return b.Copy(), "identity"
		}
	case rtlil.CellMux:
		s := in["S"][0]
		switch s {
		case rtlil.S0:
			return a.Copy(), "const_select"
		case rtlil.S1:
			return b.Copy(), "const_select"
		}
		if a.Equal(b) {
			return a.Copy(), "equal_branches"
		}
	case rtlil.CellEq:
		if a.Equal(b) {
			return rtlil.Const(1, 1), "trivial_compare"
		}
	case rtlil.CellNe:
		if a.Equal(b) {
			return rtlil.Const(0, 1), "trivial_compare"
		}
	}
	return nil, ""
}

func isAll(vals []rtlil.State, want rtlil.State) bool {
	if len(vals) == 0 {
		return false
	}
	for _, v := range vals {
		if v != want {
			return false
		}
	}
	return true
}

// shrinkPmux drops $pmux candidate words whose select bit is constant 0,
// collapses single-word pmux with constant select, and rewrites pmux with
// zero remaining words to the default input.
func shrinkPmux(m *rtlil.Module, sigVals func(rtlil.SigSpec) []rtlil.State) Result {
	res := NewResult()
	for _, c := range append([]*rtlil.Cell(nil), m.Cells()...) {
		if c.Type != rtlil.CellPmux {
			continue
		}
		w := c.Param("WIDTH")
		sw := c.Param("S_WIDTH")
		s := c.Port("S")
		sv := sigVals(s)

		// A select bit constant 1 makes later words the only candidates
		// (ascending priority); everything at or below collapses into
		// the new default.
		base := c.Port("A")
		start := 0
		for i := 0; i < sw; i++ {
			if sv[i] == rtlil.S1 {
				base = c.Port("B").Extract(i*w, w)
				start = i + 1
			}
		}
		var keepWords []rtlil.SigSpec
		var keepSel rtlil.SigSpec
		for i := start; i < sw; i++ {
			if sv[i] == rtlil.S0 {
				continue
			}
			keepWords = append(keepWords, c.Port("B").Extract(i*w, w))
			keepSel = append(keepSel, s[i])
		}
		if start == 0 && len(keepWords) == sw {
			continue // nothing to do
		}
		y := c.Port("Y")
		m.RemoveCell(c)
		switch len(keepWords) {
		case 0:
			m.Connect(y, base)
			res.bump("pmux_collapsed", 1)
		case 1:
			m.AddMux("", base, keepWords[0], keepSel, y)
			res.bump("pmux_to_mux", 1)
		default:
			m.AddPmux("", base, keepWords, keepSel, y)
			res.bump("pmux_shrunk", 1)
		}
	}
	return res
}
