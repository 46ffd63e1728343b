package egraph

import (
	"fmt"

	"repro/internal/rtlil"
)

// ClassID identifies an e-class. IDs are dense and allocation-ordered;
// after unions an ID must be resolved with Find before use.
type ClassID int32

// Op is the operator of an e-node: one of the datapath region's cell
// types or one of the internal operators that have no cell-library
// counterpart (leaf, const, resize).
type Op uint8

const (
	// OpLeaf is an opaque signal the e-graph does not look through:
	// module inputs, mux/dff outputs, sliced or mixed signals, and
	// constants it cannot fold (x bits, width > 64).
	OpLeaf Op = iota
	// OpConst is a fully defined constant of width <= 64.
	OpConst
	// OpResize zero-extends or truncates its child to Width — the
	// operand adaptation the cell lowerings perform implicitly
	// (internal/aig resizeLits). It is pure wiring when emitted.
	OpResize

	// The region's cell operators. $div is opaque: it is hash-consed
	// (identical cells share a class) but no rule rewrites through it.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpNeg
	OpNot
	OpAnd
	OpOr
	OpXor
	OpXnor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	numOps
)

// opCellType is the cell type of every cell operator ("" for the internal
// ones).
var opCellType = [numOps]rtlil.CellType{
	OpAdd: rtlil.CellAdd, OpSub: rtlil.CellSub, OpMul: rtlil.CellMul,
	OpDiv: rtlil.CellDiv, OpNeg: rtlil.CellNeg, OpNot: rtlil.CellNot,
	OpAnd: rtlil.CellAnd, OpOr: rtlil.CellOr, OpXor: rtlil.CellXor,
	OpXnor: rtlil.CellXnor, OpShl: rtlil.CellShl, OpShr: rtlil.CellShr,
	OpEq: rtlil.CellEq, OpNe: rtlil.CellNe, OpLt: rtlil.CellLt,
	OpLe: rtlil.CellLe, OpGt: rtlil.CellGt, OpGe: rtlil.CellGe,
}

// regionOps inverts opCellType: it maps the cell types of the datapath
// region to their operators.
var regionOps = func() map[rtlil.CellType]Op {
	m := map[rtlil.CellType]Op{}
	for op, t := range opCellType {
		if t != "" {
			m[t] = Op(op)
		}
	}
	return m
}()

// String renders the operator as its cell type, or its internal name.
func (op Op) String() string {
	switch op {
	case OpLeaf:
		return "leaf"
	case OpConst:
		return "const"
	case OpResize:
		return "resize"
	}
	return string(opCellType[op])
}

// cell returns the cell type of a cell operator.
func (op Op) cell() rtlil.CellType { return opCellType[op] }

// isCell reports whether the operator emits a library cell (everything
// but leaf, const and resize).
func (op Op) isCell() bool { return op > OpResize }

// isCompare reports whether the operator is a 1-bit comparison.
func (op Op) isCompare() bool { return op >= OpEq && op <= OpGe }

// arity is the number of children the operator takes.
func (op Op) arity() int {
	switch op {
	case OpLeaf, OpConst:
		return 0
	case OpResize, OpNeg, OpNot:
		return 1
	}
	return 2
}

// opSet is a set of operators, one bit per Op.
type opSet uint32

const _ = 32 - numOps // opSet must hold a bit for every Op

// opsOf returns the set of the given operators.
func opsOf(ops ...Op) opSet {
	var s opSet
	for _, op := range ops {
		s |= 1 << op
	}
	return s
}

// has reports whether the set contains op.
func (s opSet) has(op Op) bool { return s&(1<<op) != 0 }

// Node is one e-node: an operator applied to e-class children. It is a
// small comparable value without pointers, so the hash-cons and every
// other node-keyed map key on the node itself (see key). Fields are
// ordered widest first so no padding falls between them: the compiler
// then hashes and compares a node as one block of memory.
type Node struct {
	// Width is the result width, except for comparison operators where
	// it is the shared operand width (their result is always 1 bit —
	// see valueWidth).
	Width int
	// Val is the OpConst payload.
	Val uint64
	// Kids holds the children; only the first Op.arity() slots are used.
	Kids [2]ClassID
	// Leaf is the OpLeaf signal's index in the graph's leaf table.
	Leaf int32
	Op   Op
}

// bin returns the binary node op(a, b) at width w.
func bin(op Op, w int, a, b ClassID) Node {
	return Node{Op: op, Width: w, Kids: [2]ClassID{a, b}}
}

// un returns the unary node op(a) at width w.
func un(op Op, w int, a ClassID) Node {
	return Node{Op: op, Width: w, Kids: [2]ClassID{a}}
}

// kids returns the children the operator uses.
func (n *Node) kids() []ClassID { return n.Kids[:n.Op.arity()] }

// valueWidth is the width of the value the node produces: 1 for
// comparisons, Width for everything else.
func (n Node) valueWidth() int {
	if n.Op.isCompare() {
		return 1
	}
	return n.Width
}

// key returns the node's hash-cons identity: the node with every field
// its operator ignores cleared (Val off constants, Leaf off leaves, the
// kid slots past the arity). Two nodes share a key exactly when they
// apply the same operator, at the same width, to the same payload and
// children. Children must already be canonical.
func (n Node) key() Node {
	if n.Op != OpConst {
		n.Val = 0
	}
	if n.Op != OpLeaf {
		n.Leaf = 0
	}
	for i := n.Op.arity(); i < len(n.Kids); i++ {
		n.Kids[i] = 0
	}
	return n
}

// Class is one e-class: a set of equivalent nodes plus the parent nodes
// that reference it (for congruence repair).
type Class struct {
	id ClassID
	// width is the value width shared by every node in the class.
	width int
	// Nodes holds the class members in insertion order (original
	// ingested nodes come before rule-derived ones). Between rebuilds
	// the list is only ever appended to, never rewritten in place.
	Nodes []Node
	// constVal/hasConst cache the OpConst member, if any.
	constVal uint64
	hasConst bool
	// parents lists nodes that have this class as a child, with the
	// class each parent node currently lives in.
	parents []parentRef
}

type parentRef struct {
	node Node
	cls  ClassID
}

// EGraph is a deterministic e-graph: union-find over classes, a
// hash-cons of canonical nodes, and a worklist-based congruence
// rebuild. All iteration is in allocation order, so runs are
// reproducible for identical inputs.
type EGraph struct {
	uf       []ClassID
	classes  []*Class // indexed by ClassID; nil after a merge-away
	hashcons map[Node]ClassID
	dirty    []ClassID
	// nodeCount tracks live (hash-consed) nodes for the saturation
	// budget.
	nodeCount int
	// version increments on every structural change (new node or
	// merge); the saturation loop uses it to detect a fixpoint.
	version uint64
	// leaves holds the signal of every OpLeaf node, indexed by
	// Node.Leaf; leafIndex interns them by canonical render.
	leaves    []rtlil.SigSpec
	leafIndex map[string]int32
}

// New returns an empty e-graph.
func New() *EGraph {
	return &EGraph{hashcons: map[Node]ClassID{}, leafIndex: map[string]int32{}}
}

// leaf returns the OpLeaf node of a signal, interning the signal in the
// leaf table under key, its canonical render.
func (g *EGraph) leaf(key string, sig rtlil.SigSpec) Node {
	i, ok := g.leafIndex[key]
	if !ok {
		i = int32(len(g.leaves))
		g.leaves = append(g.leaves, sig)
		g.leafIndex[key] = i
	}
	return Node{Op: OpLeaf, Width: len(sig), Leaf: i}
}

// Find resolves an ID to its canonical class ID (with path compression).
func (g *EGraph) Find(id ClassID) ClassID {
	for g.uf[id] != id {
		g.uf[id] = g.uf[g.uf[id]]
		id = g.uf[id]
	}
	return id
}

// Class returns the canonical class of id.
func (g *EGraph) Class(id ClassID) *Class { return g.classes[g.Find(id)] }

// NodeCount returns the number of live hash-consed nodes.
func (g *EGraph) NodeCount() int { return g.nodeCount }

// ClassCount returns the number of canonical classes.
func (g *EGraph) ClassCount() int {
	n := 0
	for i, c := range g.classes {
		if c != nil && g.Find(ClassID(i)) == ClassID(i) {
			n++
		}
	}
	return n
}

// ClassIDs lists the canonical class IDs in ascending order.
func (g *EGraph) ClassIDs() []ClassID {
	out := make([]ClassID, 0, len(g.classes))
	for i := range g.classes {
		if g.classes[i] != nil && g.Find(ClassID(i)) == ClassID(i) {
			out = append(out, ClassID(i))
		}
	}
	return out
}

// canonicalize resolves the node's children to canonical class IDs and
// returns its hash-cons key.
func (g *EGraph) canonicalize(n Node) Node {
	for i, k := range n.kids() {
		n.Kids[i] = g.Find(k)
	}
	return n.key()
}

// kidSpecs describes the node's operands for the cost model.
func (g *EGraph) kidSpecs(n Node) [2]kidSpec {
	var specs [2]kidSpec
	for i, k := range n.kids() {
		c := g.Class(k)
		specs[i] = kidSpec{width: c.width, isConst: c.hasConst, val: c.constVal}
	}
	return specs
}

// Add hash-conses the node, returning its class (existing or fresh).
func (g *EGraph) Add(n Node) ClassID {
	n = g.canonicalize(n)
	if id, ok := g.hashcons[n]; ok {
		return g.Find(id)
	}
	id := ClassID(len(g.classes))
	c := &Class{id: id, width: n.valueWidth(), Nodes: []Node{n}}
	if n.Op == OpConst {
		c.hasConst, c.constVal = true, n.Val
	}
	g.classes = append(g.classes, c)
	g.uf = append(g.uf, id)
	g.hashcons[n] = id
	g.nodeCount++
	g.version++
	for _, k := range n.kids() {
		kc := g.classes[g.Find(k)]
		kc.parents = append(kc.parents, parentRef{node: n, cls: id})
	}
	return id
}

// Union merges the classes of a and b, returning true when they were
// distinct. The lower canonical ID wins, keeping iteration order (and
// extraction tie-breaks) stable.
func (g *EGraph) Union(a, b ClassID) bool {
	a, b = g.Find(a), g.Find(b)
	if a == b {
		return false
	}
	if a > b {
		a, b = b, a
	}
	ca, cb := g.classes[a], g.classes[b]
	if ca.width != cb.width {
		panic(fmt.Sprintf("egraph: union of classes with widths %d and %d — unsound rule", ca.width, cb.width))
	}
	if ca.hasConst && cb.hasConst && ca.constVal != cb.constVal {
		panic(fmt.Sprintf("egraph: union proves %d == %d at width %d — unsound rule", ca.constVal, cb.constVal, ca.width))
	}
	g.uf[b] = a
	ca.Nodes = append(ca.Nodes, cb.Nodes...)
	ca.parents = append(ca.parents, cb.parents...)
	if cb.hasConst {
		ca.hasConst, ca.constVal = true, cb.constVal
	}
	g.classes[b] = nil
	g.dirty = append(g.dirty, a)
	g.version++
	return true
}

// Rebuild restores the hash-cons and congruence invariants after a
// batch of unions: parents of merged classes are re-canonicalized, and
// nodes that became equal force further unions (upward congruence
// closure — the "shared-subexpression merging" the pass relies on).
func (g *EGraph) Rebuild() {
	for len(g.dirty) > 0 {
		todo := g.dirty
		g.dirty = nil
		seen := map[ClassID]bool{}
		for _, id := range todo {
			id = g.Find(id)
			if seen[id] {
				continue
			}
			seen[id] = true
			g.repair(id)
		}
	}
}

func (g *EGraph) repair(id ClassID) {
	c := g.classes[id]
	if c == nil {
		return
	}
	// Re-canonicalize parents: nodes whose keys collide after the
	// merge identify classes to union.
	oldParents := c.parents
	c.parents = nil
	seen := map[Node]ClassID{}
	for _, p := range oldParents {
		delete(g.hashcons, p.node)
		n := g.canonicalize(p.node)
		pcls := g.Find(p.cls)
		if prev, ok := seen[n]; ok {
			g.Union(prev, pcls)
			continue
		}
		seen[n] = pcls
		if other, ok := g.hashcons[n]; ok {
			g.Union(other, pcls)
		} else {
			g.hashcons[n] = pcls
		}
		g.classes[g.Find(id)].parents = append(g.classes[g.Find(id)].parents, parentRef{node: n, cls: g.Find(pcls)})
	}
	// Dedup the class's own node list under canonical keys.
	c = g.classes[g.Find(id)]
	if c == nil {
		return
	}
	keep := c.Nodes[:0]
	have := map[Node]bool{}
	for _, n := range c.Nodes {
		cn := g.canonicalize(n)
		if have[cn] {
			g.nodeCount--
			continue
		}
		have[cn] = true
		if at, ok := g.hashcons[cn]; !ok || g.Find(at) != g.Find(id) {
			g.hashcons[cn] = g.Find(id)
		}
		keep = append(keep, cn)
	}
	c.Nodes = keep
}
