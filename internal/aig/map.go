package aig

import (
	"fmt"

	"repro/internal/rtlil"
)

// Mapping is the result of technology-mapping an rtlil module to an AIG
// (the equivalent of Yosys' aigmap). Flip-flops are cut: their Q bits
// become AIG primary inputs and their D bits additional outputs, so the
// mapped graph is the module's combinational transition/output function.
type Mapping struct {
	G *AIG

	mod  *rtlil.Module
	ix   *rtlil.Index
	bits map[rtlil.SigBit]Lit

	// Inputs lists the module bits (primary inputs and dff Q bits) in
	// the order their AIG inputs were created.
	Inputs []rtlil.SigBit
	// Outputs lists the observable bits: module output port bits
	// followed by dff D bits.
	Outputs []rtlil.SigBit
	// OutputLits are the AIG literals of Outputs, index-aligned.
	OutputLits []Lit
}

// NewPartialMapping creates an empty mapping over a pre-built index.
// Callers declare inputs with AddInputBit and map cells bottom-up with
// MapCell — this is how smaRTLy encodes extracted sub-graphs for SAT.
func NewPartialMapping(ix *rtlil.Index) *Mapping {
	return &Mapping{
		G:    New(),
		mod:  ix.Module(),
		ix:   ix,
		bits: map[rtlil.SigBit]Lit{},
	}
}

// AddInputBit declares a module bit as an AIG primary input (idempotent).
func (mp *Mapping) AddInputBit(b rtlil.SigBit) {
	mp.addInput(mp.ix.MapBit(b))
}

// MapCell maps one combinational cell; its input bits must already be
// mapped (inputs or outputs of previously mapped cells).
func (mp *Mapping) MapCell(c *rtlil.Cell) error {
	return mp.mapCell(c)
}

// HasBit reports whether the bit has an AIG literal (constant bits
// always do).
func (mp *Mapping) HasBit(b rtlil.SigBit) bool {
	b = mp.ix.MapBit(b)
	if b.IsConst() {
		return true
	}
	_, ok := mp.bits[b]
	return ok
}

// FromModule maps a module to a fresh AIG. It fails on combinational
// loops or unmappable cells.
func FromModule(m *rtlil.Module) (*Mapping, error) {
	ix := rtlil.NewIndex(m)
	order, err := rtlil.TopoSort(ix)
	if err != nil {
		return nil, err
	}
	mp := &Mapping{
		G:    New(),
		mod:  m,
		ix:   ix,
		bits: map[rtlil.SigBit]Lit{},
	}
	// Create PIs for module inputs and dff Q bits.
	for _, w := range m.Inputs() {
		for _, b := range mp.ix.Map(w.Bits()) {
			mp.addInput(b)
		}
	}
	for _, c := range m.Cells() {
		if rtlil.IsSequential(c.Type) {
			for _, b := range mp.ix.Map(c.Port("Q")) {
				mp.addInput(b)
			}
		}
	}
	// Map combinational cells bottom-up.
	for _, c := range order {
		if rtlil.IsSequential(c.Type) {
			continue
		}
		if err := mp.mapCell(c); err != nil {
			return nil, err
		}
	}
	// Collect outputs: module outputs then dff D.
	for _, w := range m.Outputs() {
		for _, b := range w.Bits() {
			mp.Outputs = append(mp.Outputs, b)
			mp.OutputLits = append(mp.OutputLits, mp.LitOf(b))
		}
	}
	for _, c := range m.Cells() {
		if rtlil.IsSequential(c.Type) {
			for _, b := range c.Port("D") {
				mp.Outputs = append(mp.Outputs, b)
				mp.OutputLits = append(mp.OutputLits, mp.LitOf(b))
			}
		}
	}
	return mp, nil
}

func (mp *Mapping) addInput(b rtlil.SigBit) {
	if b.IsConst() {
		return
	}
	if _, dup := mp.bits[b]; dup {
		return
	}
	mp.bits[b] = mp.G.NewInput()
	mp.Inputs = append(mp.Inputs, b)
}

// LitOf returns the AIG literal computing the given module bit. Bits with
// no driver (dangling wires) and x/z constants map to constant false.
func (mp *Mapping) LitOf(b rtlil.SigBit) Lit {
	b = mp.ix.MapBit(b)
	if b.IsConst() {
		if b.Const == rtlil.S1 {
			return Const1
		}
		return Const0 // 0, x and z all map to 0
	}
	if l, ok := mp.bits[b]; ok {
		return l
	}
	return Const0
}

// LitsOf maps a whole signal.
func (mp *Mapping) LitsOf(sig rtlil.SigSpec) []Lit {
	out := make([]Lit, len(sig))
	for i, b := range sig {
		out[i] = mp.LitOf(b)
	}
	return out
}

func (mp *Mapping) setSig(sig rtlil.SigSpec, lits []Lit) {
	for i, b := range sig {
		if b.IsConst() {
			continue
		}
		mp.bits[mp.ix.MapBit(b)] = lits[i]
	}
}

func resizeLits(v []Lit, width int) []Lit {
	if len(v) == width {
		return v
	}
	out := make([]Lit, width)
	for i := range out {
		if i < len(v) {
			out[i] = v[i]
		} else {
			out[i] = Const0
		}
	}
	return out
}

func (mp *Mapping) mapCell(c *rtlil.Cell) error {
	g := mp.G
	yw := len(c.Port("Y"))
	A := mp.LitsOf(c.Port("A"))
	var B []Lit
	if b := c.Port("B"); b != nil {
		B = mp.LitsOf(b)
	}
	var Y []Lit
	switch c.Type {
	case rtlil.CellNot:
		a := resizeLits(A, yw)
		Y = make([]Lit, yw)
		for i := range Y {
			Y[i] = a[i].Not()
		}
	case rtlil.CellNeg:
		a := resizeLits(A, yw)
		Y = make([]Lit, yw)
		carry := Const1
		for i := range Y {
			na := a[i].Not()
			Y[i] = g.Xor(na, carry)
			carry = g.And(na, carry)
		}
	case rtlil.CellReduceAnd:
		Y = []Lit{mp.foldAnd(A)}
	case rtlil.CellReduceOr:
		Y = []Lit{mp.foldOr(A)}
	case rtlil.CellReduceXor:
		r := Const0
		for _, l := range A {
			r = g.Xor(r, l)
		}
		Y = []Lit{r}
	case rtlil.CellLogicNot:
		Y = []Lit{mp.foldOr(A).Not()}

	case rtlil.CellAnd, rtlil.CellOr, rtlil.CellXor, rtlil.CellXnor:
		a, b := resizeLits(A, yw), resizeLits(B, yw)
		Y = make([]Lit, yw)
		for i := range Y {
			switch c.Type {
			case rtlil.CellAnd:
				Y[i] = g.And(a[i], b[i])
			case rtlil.CellOr:
				Y[i] = g.Or(a[i], b[i])
			case rtlil.CellXor:
				Y[i] = g.Xor(a[i], b[i])
			case rtlil.CellXnor:
				Y[i] = g.Xnor(a[i], b[i])
			}
		}

	case rtlil.CellAdd:
		Y = mp.adder(resizeLits(A, yw), resizeLits(B, yw), Const0)
	case rtlil.CellSub:
		b := resizeLits(B, yw)
		nb := make([]Lit, yw)
		for i := range nb {
			nb[i] = b[i].Not()
		}
		Y = mp.adder(resizeLits(A, yw), nb, Const1)
	case rtlil.CellMul:
		Y = mp.multiplier(resizeLits(A, yw), resizeLits(B, yw))

	case rtlil.CellEq, rtlil.CellNe:
		w := len(A)
		if len(B) > w {
			w = len(B)
		}
		a, b := resizeLits(A, w), resizeLits(B, w)
		bits := make([]Lit, w)
		for i := range bits {
			bits[i] = g.Xnor(a[i], b[i])
		}
		eq := mp.foldAnd(bits)
		if c.Type == rtlil.CellEq {
			Y = []Lit{eq}
		} else {
			Y = []Lit{eq.Not()}
		}

	case rtlil.CellLt, rtlil.CellLe, rtlil.CellGt, rtlil.CellGe:
		w := len(A)
		if len(B) > w {
			w = len(B)
		}
		a, b := resizeLits(A, w), resizeLits(B, w)
		lt := mp.less(a, b)
		switch c.Type {
		case rtlil.CellLt:
			Y = []Lit{lt}
		case rtlil.CellGe:
			Y = []Lit{lt.Not()}
		case rtlil.CellGt:
			Y = []Lit{mp.less(b, a)}
		case rtlil.CellLe:
			Y = []Lit{mp.less(b, a).Not()}
		}

	case rtlil.CellLogicAnd:
		Y = []Lit{g.And(mp.foldOr(A), mp.foldOr(B))}
	case rtlil.CellLogicOr:
		Y = []Lit{g.Or(mp.foldOr(A), mp.foldOr(B))}

	case rtlil.CellShl, rtlil.CellShr:
		Y = mp.shifter(c.Type, resizeLits(A, yw), B)

	case rtlil.CellMux:
		s := mp.LitOf(c.Port("S")[0])
		a, b := resizeLits(A, yw), resizeLits(B, yw)
		Y = make([]Lit, yw)
		for i := range Y {
			Y[i] = g.Mux(a[i], b[i], s)
		}

	case rtlil.CellPmux:
		w := c.Param("WIDTH")
		sw := c.Param("S_WIDTH")
		s := mp.LitsOf(c.Port("S"))
		cur := resizeLits(A, w)
		for i := 0; i < sw; i++ {
			word := B[i*w : (i+1)*w]
			next := make([]Lit, w)
			for k := 0; k < w; k++ {
				next[k] = g.Mux(cur[k], word[k], s[i])
			}
			cur = next
		}
		Y = cur

	default:
		return fmt.Errorf("aig: cannot map cell %s of type %s", c.Name, c.Type)
	}
	mp.setSig(c.Port(rtlil.OutputPorts(c.Type)[0]), Y)
	return nil
}

// foldAnd builds a balanced AND tree.
func (mp *Mapping) foldAnd(lits []Lit) Lit {
	if len(lits) == 0 {
		return Const1
	}
	for len(lits) > 1 {
		var next []Lit
		for i := 0; i < len(lits); i += 2 {
			if i+1 < len(lits) {
				next = append(next, mp.G.And(lits[i], lits[i+1]))
			} else {
				next = append(next, lits[i])
			}
		}
		lits = next
	}
	return lits[0]
}

// foldOr builds a balanced OR tree.
func (mp *Mapping) foldOr(lits []Lit) Lit {
	inv := make([]Lit, len(lits))
	for i, l := range lits {
		inv[i] = l.Not()
	}
	return mp.foldAnd(inv).Not()
}

// adder builds a ripple-carry adder.
func (mp *Mapping) adder(a, b []Lit, cin Lit) []Lit {
	g := mp.G
	out := make([]Lit, len(a))
	c := cin
	for i := range a {
		axb := g.Xor(a[i], b[i])
		out[i] = g.Xor(axb, c)
		c = g.Or(g.And(a[i], b[i]), g.And(axb, c))
	}
	return out
}

// less builds an unsigned a < b comparator (LSB-to-MSB ripple).
func (mp *Mapping) less(a, b []Lit) Lit {
	g := mp.G
	lt := Const0
	for i := 0; i < len(a); i++ {
		bi := b[i]
		ai := a[i]
		eq := g.Xnor(ai, bi)
		lt = g.Or(g.And(ai.Not(), bi), g.And(eq, lt))
	}
	return lt
}

// multiplier builds a shift-add array multiplier truncated to len(a) bits.
func (mp *Mapping) multiplier(a, b []Lit) []Lit {
	g := mp.G
	w := len(a)
	acc := make([]Lit, w)
	for i := range acc {
		acc[i] = Const0
	}
	for j := 0; j < w; j++ {
		part := make([]Lit, w)
		for i := range part {
			if i >= j {
				part[i] = g.And(a[i-j], b[j])
			} else {
				part[i] = Const0
			}
		}
		acc = mp.adder(acc, part, Const0)
	}
	return acc
}

// shifter builds a barrel shifter (canonical decomposition shared with the
// simulators: select bits with weight >= width force zero).
func (mp *Mapping) shifter(t rtlil.CellType, a, sel []Lit) []Lit {
	g := mp.G
	w := len(a)
	cur := a
	overflow := Const0
	for j, s := range sel {
		amt := 1 << uint(j)
		if j >= 31 || amt >= w {
			overflow = g.Or(overflow, s)
			continue
		}
		next := make([]Lit, w)
		for i := 0; i < w; i++ {
			shifted := Const0
			if t == rtlil.CellShl {
				if i-amt >= 0 {
					shifted = cur[i-amt]
				}
			} else {
				if i+amt < w {
					shifted = cur[i+amt]
				}
			}
			next[i] = g.Mux(cur[i], shifted, s)
		}
		cur = next
	}
	out := make([]Lit, w)
	for i := range out {
		out[i] = g.And(cur[i], overflow.Not())
	}
	return out
}

// Area maps the module and returns the number of AND nodes reachable from
// its observable outputs — the paper's AIG-area metric.
func Area(m *rtlil.Module) (int, error) {
	mp, err := FromModule(m)
	if err != nil {
		return 0, err
	}
	return mp.G.CountReachable(mp.OutputLits), nil
}
