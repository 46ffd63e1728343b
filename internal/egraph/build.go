package egraph

import (
	"repro/internal/rtlil"
)

// opKind classifies one recorded cell operand.
type opKind int

const (
	opCell  opKind = iota // exact output of another region cell
	opLeaf                // opaque signal
	opConst               // fully defined constant
)

// operandRef records how one original cell operand was classified, so
// the verifier can rebuild the original cone without consulting the
// (possibly already rewritten) module.
type operandRef struct {
	kind     opKind
	producer *regionCell // opCell: the driving region cell
	leaf     ClassID     // opLeaf: the leaf's class (pre-saturation ID)
	val      uint64      // opConst
	width    int         // operand width before resizing
	resizeTo int         // canonical target width; 0 when none needed
}

// regionCell is one ingested datapath cell.
type regionCell struct {
	cell *rtlil.Cell
	node Node    // the cell as an e-node (pre-saturation kid IDs)
	cls  ClassID // class of the cell's result (pre-saturation ID)
	// ySig is the canonical render of the cell's Y signal; yw its value
	// width (1 for comparisons).
	ySig rtlil.SigSpec
	yw   int
	ops  []operandRef
	root bool
}

// Builder ingests a module's datapath region into an e-graph.
type Builder struct {
	m  *rtlil.Module
	ix *rtlil.Index
	g  *EGraph

	cells    []*regionCell // ingestion (topological) order
	byCell   map[*rtlil.Cell]*regionCell
	sigClass map[string]*regionCell // canonical Y render -> producer
	exposed  map[*regionCell]bool
}

// BuildModule ingests the module's datapath region. It returns nil when
// the module has no region cells (or is cyclic, which TopoSort rejects).
func BuildModule(m *rtlil.Module) (*Builder, error) {
	ix := rtlil.NewIndex(m)
	order, err := rtlil.TopoSort(ix)
	if err != nil {
		return nil, err
	}
	b := &Builder{
		m:        m,
		ix:       ix,
		g:        New(),
		byCell:   map[*rtlil.Cell]*regionCell{},
		sigClass: map[string]*regionCell{},
		exposed:  map[*regionCell]bool{},
	}
	for _, c := range order {
		b.ingest(c)
	}
	if len(b.cells) == 0 {
		return nil, nil
	}
	b.markRoots()
	return b, nil
}

// EGraph returns the populated e-graph.
func (b *Builder) EGraph() *EGraph { return b.g }

// ingest adds one cell to the e-graph if it belongs to the region and
// fits the supported shapes (widths 1..64, 1-bit comparison results).
func (b *Builder) ingest(c *rtlil.Cell) {
	op, ok := regionOps[c.Type]
	if !ok {
		return
	}
	ySig := b.ix.Map(c.Port("Y"))
	if len(ySig) < 1 || ySig.HasConst() {
		return
	}
	yw := len(ySig)
	var node Node
	var ops []operandRef
	switch {
	case op.isCompare():
		if yw != 1 {
			return
		}
		a, bsig := c.Port("A"), c.Port("B")
		w := len(a)
		if len(bsig) > w {
			w = len(bsig)
		}
		if w < 1 || w > 64 {
			return
		}
		ka, ra := b.operand(a, w)
		kb, rb := b.operand(bsig, w)
		node = bin(op, w, ka, kb)
		ops = []operandRef{ra, rb}
	case op.arity() == 1: // $not, $neg
		if yw > 64 {
			return
		}
		ka, ra := b.operand(c.Port("A"), yw)
		node = un(op, yw, ka)
		ops = []operandRef{ra}
	case op == OpShl || op == OpShr:
		bsig := c.Port("B")
		if yw > 64 || len(bsig) < 1 || len(bsig) > 64 {
			return
		}
		ka, ra := b.operand(c.Port("A"), yw)
		kb, rb := b.operandRaw(bsig)
		node = bin(op, yw, ka, kb)
		ops = []operandRef{ra, rb}
	case op == OpDiv:
		// Opaque: operands keep their exact widths — truncating a
		// dividend does not commute with division, so no resize node may
		// separate the cell from its operands.
		a, bsig := c.Port("A"), c.Port("B")
		if yw > 64 || len(a) < 1 || len(a) > 64 || len(bsig) < 1 || len(bsig) > 64 {
			return
		}
		ka, ra := b.operandRaw(a)
		kb, rb := b.operandRaw(bsig)
		node = bin(op, yw, ka, kb)
		ops = []operandRef{ra, rb}
	default: // binary arith/bitwise
		if yw > 64 {
			return
		}
		ka, ra := b.operand(c.Port("A"), yw)
		kb, rb := b.operand(c.Port("B"), yw)
		node = bin(op, yw, ka, kb)
		ops = []operandRef{ra, rb}
	}
	cls := b.g.Add(node)
	rc := &regionCell{cell: c, node: node, cls: cls, ySig: ySig, yw: node.valueWidth(), ops: ops}
	b.cells = append(b.cells, rc)
	b.byCell[c] = rc
	key := ySig.String()
	if _, dup := b.sigClass[key]; !dup {
		b.sigClass[key] = rc
	}
}

// operand resolves a cell operand under the canonical resize-to-w
// semantics: the base signal's class, wrapped in an OpResize node when
// the widths differ.
func (b *Builder) operand(sig rtlil.SigSpec, w int) (ClassID, operandRef) {
	base, ref := b.operandRaw(sig)
	if ref.width == w {
		return base, ref
	}
	cls := b.g.Add(un(OpResize, w, base))
	ref.resizeTo = w
	return cls, ref
}

// operandRaw resolves a signal at its own width: a constant, the exact
// output of an ingested region cell, or an opaque leaf.
func (b *Builder) operandRaw(sig rtlil.SigSpec) (ClassID, operandRef) {
	c := b.ix.Map(sig)
	w := len(c)
	if c.IsFullyConst() && c.IsFullyDefined() && w <= 64 {
		v, _ := c.AsUint64()
		n := Node{Op: OpConst, Width: w, Val: v}
		cls := b.g.Add(n)
		return cls, operandRef{kind: opConst, val: v, width: w}
	}
	key := c.String()
	if rc := b.sigClass[key]; rc != nil {
		return rc.cls, operandRef{kind: opCell, producer: rc, width: rc.yw}
	}
	cls := b.g.Add(b.g.leaf(key, c))
	// A leaf that covers bits driven by region cells (a slice, concat or
	// mix) pins those producers: mark them so they become roots and stay
	// realized.
	for _, bit := range c {
		if d := b.ix.DriverCell(bit); d != nil {
			if prc := b.byCell[d]; prc != nil {
				b.exposed[prc] = true
			}
		}
	}
	return cls, operandRef{kind: opLeaf, leaf: cls, width: w}
}

// markRoots flags the cells whose results are observable outside the
// region: read by a non-region cell, exported as a module output, or
// partially read through a leaf slice.
func (b *Builder) markRoots() {
	for _, rc := range b.cells {
		if b.exposed[rc] {
			rc.root = true
			continue
		}
	bits:
		for _, bit := range rc.ySig {
			if b.ix.IsOutputBit(bit) {
				rc.root = true
				break
			}
			for _, r := range b.ix.Readers(bit) {
				if b.byCell[r.Cell] == nil {
					rc.root = true
					break bits
				}
			}
		}
	}
}

// Roots lists the root cells in ingestion order.
func (b *Builder) Roots() []*regionCell {
	var out []*regionCell
	for _, rc := range b.cells {
		if rc.root {
			out = append(out, rc)
		}
	}
	return out
}

// OriginalCost prices the module's own realization of the root cones:
// the intrinsic cost of every region cell reachable from the roots,
// each distinct cell counted once. Duplicate cells are counted
// separately (they really exist in the module), which is what lets
// extraction's shared realization register as a strict improvement.
// Resize adaptations are priced at zero here — they are free wiring in
// the module — while extraction prices them at one, biasing ties
// toward keeping the original netlist. Must be called before
// saturation, while pre-saturation class IDs are canonical.
func (b *Builder) OriginalCost(cm *CostModel, roots []*regionCell) int64 {
	seen := map[*regionCell]bool{}
	var total int64
	var visit func(rc *regionCell)
	visit = func(rc *regionCell) {
		if seen[rc] {
			return
		}
		seen[rc] = true
		total = satAdd(total, cm.NodeCost(rc.node, b.g.kidSpecs(rc.node)))
		for _, ref := range rc.ops {
			if ref.kind == opCell {
				visit(ref.producer)
			}
		}
	}
	for _, rc := range roots {
		visit(rc)
	}
	return total
}
