package egraph

import (
	"fmt"
	"sort"

	"repro/internal/rtlil"
)

// decision is the per-class realization plan: reuse an existing region
// cell whose node is the class's chosen derivation, or emit the chosen
// node fresh.
type decision struct {
	reuse *regionCell // non-nil: the cell's Y already computes the class
	node  Node        // reuse == nil: emit this node over its kids
}

// Rewrite is the planned (not yet applied) outcome of extraction: a
// per-class decision tree plus the list of root cells whose Y will be
// re-driven.
type Rewrite struct {
	b   *Builder
	ext *Extraction
	// decisions is keyed by post-saturation canonical class ID.
	decisions map[ClassID]decision
	// orig maps a canonical class and node key to the first
	// (topo-order) region cell realizing that exact node in that class.
	orig map[classNode]*regionCell
	// Rewired lists the root cells whose Y gets a new driver, in
	// ingestion order.
	Rewired []*regionCell
}

// classNode is a node key within one canonical class.
type classNode struct {
	node Node
	cls  ClassID
}

// Plan decides, after saturation and extraction, how every root cone is
// realized. It is side-effect free: the module is untouched until Apply.
func Plan(b *Builder, ext *Extraction) *Rewrite {
	rw := &Rewrite{
		b:         b,
		ext:       ext,
		decisions: map[ClassID]decision{},
		orig:      map[classNode]*regionCell{},
	}
	g := b.g
	for _, rc := range b.cells {
		key := classNode{node: g.canonicalize(rc.node), cls: g.Find(rc.cls)}
		if _, ok := rw.orig[key]; !ok {
			rw.orig[key] = rc
		}
	}
	for _, rc := range b.Roots() {
		if !ext.Realizable(rc.cls) {
			// Cannot happen (the original derivation is always finite),
			// but never plan a rewrite without a realization.
			continue
		}
		rw.decide(rc.cls)
		if d := rw.decisions[g.Find(rc.cls)]; d.reuse != rc {
			rw.Rewired = append(rw.Rewired, rc)
		}
	}
	return rw
}

// decide fills the decision for the class and (for fresh emissions) its
// chosen children.
func (rw *Rewrite) decide(cls ClassID) {
	cls = rw.b.g.Find(cls)
	if _, done := rw.decisions[cls]; done {
		return
	}
	n := rw.ext.Node(cls)
	if n.Op.isCell() {
		if rc := rw.orig[classNode{node: n, cls: cls}]; rc != nil {
			rw.decisions[cls] = decision{reuse: rc}
			return
		}
	}
	rw.decisions[cls] = decision{node: n}
	for _, k := range n.kids() {
		rw.decide(k)
	}
}

// --- verification ------------------------------------------------------

// coneBuilder materializes cones inside one scratch verification
// module, with every leaf class exposed as an input port named after
// its canonical class ID.
type coneBuilder struct {
	rw     *Rewrite
	m      *rtlil.Module
	inputs map[ClassID]*rtlil.Wire
	// cuts maps a cell whose subtree is shared verbatim by both sides
	// to its free-input stand-in (see Verify).
	cuts map[*regionCell]rtlil.SigSpec
	// oldSig caches original-cone realizations per region cell, newSig
	// chosen-derivation realizations per canonical class.
	oldSig map[*regionCell]rtlil.SigSpec
	newSig map[ClassID]rtlil.SigSpec
}

func (rw *Rewrite) newConeBuilder(name string, leaves []ClassID, cutCells []*regionCell) *coneBuilder {
	cb := &coneBuilder{
		rw:     rw,
		m:      rtlil.NewModule(name),
		inputs: map[ClassID]*rtlil.Wire{},
		cuts:   map[*regionCell]rtlil.SigSpec{},
		oldSig: map[*regionCell]rtlil.SigSpec{},
		newSig: map[ClassID]rtlil.SigSpec{},
	}
	for _, id := range leaves {
		cb.inputs[id] = cb.m.AddInput(fmt.Sprintf("l%d", id), cb.rw.b.g.Class(id).width)
	}
	for i, c := range cutCells {
		cb.cuts[c] = cb.m.AddInput(fmt.Sprintf("x%d", i), c.yw).Bits()
	}
	return cb
}

// leafInput returns the input signal standing in for a leaf class.
func (cb *coneBuilder) leafInput(id ClassID) rtlil.SigSpec {
	id = cb.rw.b.g.Find(id)
	w := cb.inputs[id]
	if w == nil {
		// Leaves are collected before construction; a miss is a
		// programming error surfaced by the width-checked Connect below.
		w = cb.m.AddInput(fmt.Sprintf("l%d", id), cb.rw.b.g.Class(id).width)
		cb.inputs[id] = w
	}
	return w.Bits()
}

// emit adds one fresh cell computing the operator over the operands.
func (cb *coneBuilder) emit(t rtlil.CellType, width int, operands []rtlil.SigSpec) rtlil.SigSpec {
	y := cb.m.NewWireHint("e", width).Bits()
	if rtlil.IsUnary(t) {
		cb.m.AddUnary(t, "", operands[0], y)
	} else {
		cb.m.AddBinary(t, "", operands[0], operands[1], y)
	}
	return y
}

// oldCone rebuilds the region cell's original cone from the recorded
// operand classifications. Cells in the cut set stand in as free
// inputs instead of expanding.
func (cb *coneBuilder) oldCone(rc *regionCell) rtlil.SigSpec {
	if s, ok := cb.cuts[rc]; ok {
		return s
	}
	if s, ok := cb.oldSig[rc]; ok {
		return s
	}
	operands := make([]rtlil.SigSpec, len(rc.ops))
	for i, ref := range rc.ops {
		var s rtlil.SigSpec
		switch ref.kind {
		case opCell:
			s = cb.oldCone(ref.producer)
		case opLeaf:
			s = cb.leafInput(ref.leaf)
		case opConst:
			s = rtlil.Const(ref.val, ref.width)
		}
		if ref.resizeTo > 0 {
			s = s.Resize(ref.resizeTo, false)
		}
		operands[i] = s
	}
	y := cb.emit(rc.cell.Type, rc.yw, operands)
	cb.oldSig[rc] = y
	return y
}

// newCone materializes the planned realization of a class: a reused
// cell replays its original cone (that is exactly what the real module
// will keep), a fresh node emits over its children's realizations.
func (cb *coneBuilder) newCone(cls ClassID) rtlil.SigSpec {
	cls = cb.rw.b.g.Find(cls)
	if s, ok := cb.newSig[cls]; ok {
		return s
	}
	d := cb.rw.decisions[cls]
	var s rtlil.SigSpec
	if d.reuse != nil {
		s = cb.oldCone(d.reuse)
	} else {
		switch d.node.Op {
		case OpConst:
			s = rtlil.Const(d.node.Val, d.node.Width)
		case OpLeaf:
			s = cb.leafInput(cls)
		case OpResize:
			s = cb.newCone(d.node.Kids[0]).Resize(d.node.Width, false)
		default:
			kids := d.node.kids()
			operands := make([]rtlil.SigSpec, len(kids))
			for i, k := range kids {
				operands[i] = cb.newCone(k)
			}
			s = cb.emit(d.node.Op.cell(), d.node.valueWidth(), operands)
		}
	}
	cb.newSig[cls] = s
	return s
}

// oldLeaves collects the leaf classes of the cell's original cone.
func (rw *Rewrite) oldLeaves(rc *regionCell, seen map[*regionCell]bool, out map[ClassID]bool) {
	if seen[rc] {
		return
	}
	seen[rc] = true
	for _, ref := range rc.ops {
		switch ref.kind {
		case opCell:
			rw.oldLeaves(ref.producer, seen, out)
		case opLeaf:
			out[rw.b.g.Find(ref.leaf)] = true
		}
	}
}

// newLeaves collects the leaf classes of the planned realization.
func (rw *Rewrite) newLeaves(cls ClassID, seen map[ClassID]bool, cells map[*regionCell]bool, out map[ClassID]bool) {
	cls = rw.b.g.Find(cls)
	if seen[cls] {
		return
	}
	seen[cls] = true
	d := rw.decisions[cls]
	if d.reuse != nil {
		rw.oldLeaves(d.reuse, cells, out)
		return
	}
	if d.node.Op == OpLeaf {
		out[cls] = true
		return
	}
	for _, k := range d.node.kids() {
		rw.newLeaves(k, seen, cells, out)
	}
}

// oldCellsOf collects every region cell of the full original cone.
func (rw *Rewrite) oldCellsOf(rc *regionCell, out map[*regionCell]bool) {
	if out[rc] {
		return
	}
	out[rc] = true
	for _, ref := range rc.ops {
		if ref.kind == opCell {
			rw.oldCellsOf(ref.producer, out)
		}
	}
}

// newCellsOf collects every region cell the planned realization would
// replay: reused cells plus their full original cones.
func (rw *Rewrite) newCellsOf(cls ClassID, seen map[ClassID]bool, out map[*regionCell]bool) {
	cls = rw.b.g.Find(cls)
	if seen[cls] {
		return
	}
	seen[cls] = true
	d := rw.decisions[cls]
	if d.reuse != nil {
		rw.oldCellsOf(d.reuse, out)
		return
	}
	for _, k := range d.node.kids() {
		rw.newCellsOf(k, seen, out)
	}
}

// MiterModules builds, for one rewired root, the two scratch modules
// whose equivalence proves that the planned realization matches the
// original cone over every leaf valuation: both sides are rebuilt
// sharing input ports named by leaf class, and the caller hands them to
// cec.Check (and keys its proof cache on their canonical hashes). Any
// failure — a counterexample, an unmappable cell such as $div, a SAT
// budget blowout — means the rewrite must not ship.
//
// Cut points keep the miter proportional to what actually changed: a
// cell whose full original cone would be replayed verbatim on BOTH
// sides is replaced by one shared free input. The two occurrences are
// structurally identical by construction, so generalizing their common
// value is sound. The checker's structural hashing would merge the two
// copies anyway, but only after mapping both; the cut also keeps an
// unchanged unmappable cell out of the proof.
func (rw *Rewrite) MiterModules(rc *regionCell) (oldM, newM *rtlil.Module) {
	oldSet := map[*regionCell]bool{}
	rw.oldCellsOf(rc, oldSet)
	newSet := map[*regionCell]bool{}
	rw.newCellsOf(rc.cls, map[ClassID]bool{}, newSet)
	var cutCells []*regionCell
	for _, cand := range rw.b.cells { // ingestion order: deterministic names
		if cand != rc && oldSet[cand] && newSet[cand] {
			cutCells = append(cutCells, cand)
		}
	}

	leafSet := map[ClassID]bool{}
	rw.oldLeaves(rc, map[*regionCell]bool{}, leafSet)
	rw.newLeaves(rc.cls, map[ClassID]bool{}, map[*regionCell]bool{}, leafSet)
	leaves := make([]ClassID, 0, len(leafSet))
	for id := range leafSet {
		leaves = append(leaves, id)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })

	oldCB := rw.newConeBuilder("$egraph$old", leaves, cutCells)
	y := oldCB.m.AddOutput("y0", rc.yw)
	oldCB.m.Connect(y.Bits(), oldCB.oldCone(rc))

	newCB := rw.newConeBuilder("$egraph$new", leaves, cutCells)
	y = newCB.m.AddOutput("y0", rc.yw)
	newCB.m.Connect(y.Bits(), newCB.newCone(rc.cls))

	return oldCB.m, newCB.m
}

// Reject drops a root from the planned rewires (its proof failed); the
// cell keeps its original cone. Dropping a root never invalidates the
// other proofs: each proof's cut variables only assume that the cut
// cells' output wires keep their original values, which holds whether
// a cell is left alone or replaced by its own proven rewrite.
func (rw *Rewrite) Reject(rc *regionCell) {
	for i, r := range rw.Rewired {
		if r == rc {
			rw.Rewired = append(rw.Rewired[:i], rw.Rewired[i+1:]...)
			return
		}
	}
}

// Apply performs the planned surgery on the real module: materialize
// every needed class (reusing untouched original cells, emitting fresh
// cells otherwise), then re-drive each rewired root's Y wire and detach
// the old driver onto a dead wire for opt_clean to sweep. Returns the
// number of fresh cells emitted.
func (rw *Rewrite) Apply() int {
	m := rw.b.m
	emitted := 0
	sigOf := map[ClassID]rtlil.SigSpec{}
	var materialize func(cls ClassID) rtlil.SigSpec
	materialize = func(cls ClassID) rtlil.SigSpec {
		cls = rw.b.g.Find(cls)
		if s, ok := sigOf[cls]; ok {
			return s
		}
		d := rw.decisions[cls]
		var s rtlil.SigSpec
		if d.reuse != nil {
			s = d.reuse.ySig
		} else {
			switch d.node.Op {
			case OpConst:
				s = rtlil.Const(d.node.Val, d.node.Width)
			case OpLeaf:
				s = rw.b.g.leaves[d.node.Leaf]
			case OpResize:
				s = materialize(d.node.Kids[0]).Resize(d.node.Width, false)
			default:
				t := d.node.Op.cell()
				kids := d.node.kids()
				operands := make([]rtlil.SigSpec, len(kids))
				for i, k := range kids {
					operands[i] = materialize(k)
				}
				y := m.NewWireHint("egraph", d.node.valueWidth()).Bits()
				if rtlil.IsUnary(t) {
					m.AddUnary(t, "", operands[0], y)
				} else {
					m.AddBinary(t, "", operands[0], operands[1], y)
				}
				emitted++
				s = y
			}
		}
		sigOf[cls] = s
		return s
	}
	for _, rc := range rw.Rewired {
		newY := materialize(rc.cls)
		origY := rc.cell.Port("Y")
		dead := m.NewWireHint("egraphdead", len(origY))
		rc.cell.SetPort("Y", dead.Bits())
		m.Connect(origY, newY)
	}
	return emitted
}
