package opt

import "repro/internal/rtlil"

// CleanPass is the opt_clean equivalent: it removes combinational cells
// whose outputs cannot reach any module output or flip-flop, dangling
// module connections, and unused automatically-named wires. This is the
// pass that actually deletes the eq gates disconnected by muxtree
// restructuring (paper Algorithm 1, line 9).
type CleanPass struct{}

// Name implements Pass.
func (CleanPass) Name() string { return "opt_clean" }

// Run implements Pass.
func (CleanPass) Run(c *Ctx, m *rtlil.Module) (Result, error) {
	res := NewResult()
	for {
		if err := c.Err(); err != nil {
			return res, err
		}
		n := cleanSweep(m)
		if n == 0 {
			break
		}
		res.bump("cells_removed", n)
	}
	res.bump("wires_removed", cleanWires(m))
	return res, nil
}

func cleanSweep(m *rtlil.Module) int {
	ix := rtlil.NewIndex(m)

	// Mark observable bits: module outputs and every input of a
	// sequential cell.
	live := map[rtlil.SigBit]bool{}
	var queue []rtlil.SigBit
	markSig := func(sig rtlil.SigSpec) {
		for _, b := range ix.Map(sig) {
			if !b.IsConst() && !live[b] {
				live[b] = true
				queue = append(queue, b)
			}
		}
	}
	for _, w := range m.Outputs() {
		markSig(w.Bits())
	}
	liveCells := map[*rtlil.Cell]bool{}
	for _, c := range m.Cells() {
		if rtlil.IsSequential(c.Type) {
			liveCells[c] = true
			for _, p := range rtlil.InputPorts(c.Type) {
				markSig(c.Port(p))
			}
		}
	}
	// Backward reachability.
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		r, ok := ix.Driver(b)
		if !ok || liveCells[r.Cell] {
			continue
		}
		liveCells[r.Cell] = true
		for _, p := range rtlil.InputPorts(r.Cell.Type) {
			markSig(r.Cell.Port(p))
		}
	}

	removed := 0
	for _, c := range append([]*rtlil.Cell(nil), m.Cells()...) {
		if !liveCells[c] {
			m.RemoveCell(c)
			removed++
		}
	}

	// Drop connections whose LHS is entirely unreferenced. The check
	// must use *raw* references (not SigMap-canonical ones): a wire
	// aliased to a constant has the constant as its canonical form and
	// therefore no recorded readers, yet cells may still reference the
	// wire directly — dropping its driving connection would leave those
	// references undriven.
	rawUsed := map[rtlil.SigBit]bool{}
	markRaw := func(sig rtlil.SigSpec) {
		for _, b := range sig {
			if !b.IsConst() {
				rawUsed[b] = true
			}
		}
	}
	for _, c := range m.Cells() {
		for port, sig := range c.Conn {
			if c.IsInputPort(port) {
				markRaw(sig)
			}
		}
	}
	for _, cn := range m.Conns {
		markRaw(cn.RHS)
	}
	ix2 := rtlil.NewIndex(m)
	var kept []rtlil.Connection
	for _, cn := range m.Conns {
		used := false
		for _, b := range cn.LHS {
			if b.IsConst() {
				used = true
				break
			}
			if b.Wire.PortOutput || rawUsed[b] || len(ix2.Readers(b)) > 0 {
				used = true
				break
			}
			cb := ix2.MapBit(b)
			if ix2.IsOutputBit(cb) || len(ix2.Readers(cb)) > 0 {
				used = true
				break
			}
		}
		if used {
			kept = append(kept, cn)
		}
	}
	m.Conns = kept
	return removed
}

// cleanWires removes wires that are not ports and are referenced nowhere.
func cleanWires(m *rtlil.Module) int {
	used := map[*rtlil.Wire]bool{}
	mark := func(sig rtlil.SigSpec) {
		for _, b := range sig {
			if b.Wire != nil {
				used[b.Wire] = true
			}
		}
	}
	for _, c := range m.Cells() {
		for _, sig := range c.Conn {
			mark(sig)
		}
	}
	for _, cn := range m.Conns {
		mark(cn.LHS)
		mark(cn.RHS)
	}
	removed := 0
	for _, w := range append([]*rtlil.Wire(nil), m.Wires()...) {
		if !w.IsPort() && !used[w] {
			m.RemoveWire(w)
			removed++
		}
	}
	return removed
}
