package egraph

import "math/bits"

// A Rule inspects one e-node and, when it matches, adds an equivalent
// representation to the node's class (and/or unions classes). Apply
// returns the number of rewrites performed. Rules must be sound under
// the repository's canonical two-valued semantics for every value of
// every leaf — the verify gate will reject (not repair) an unsound
// extraction, and the e-graph panics outright when a rule proves two
// distinct constants equal.
type Rule struct {
	Name string
	// ops is the set of operators the rule matches: Saturate calls
	// Apply only on nodes whose operator is in it.
	ops   opSet
	Apply func(g *EGraph, id ClassID, n Node) int
}

// matchScanLimit bounds how many nodes of a class a single rule match
// may enumerate. After heavy merging a class can hold thousands of
// nodes — and even be its own kid — which makes unbounded enumeration
// quadratic-to-cubic in the node budget on adversarial inputs. The
// earliest nodes in a class are the oldest (the original, canonical
// shapes), so a bounded prefix scan keeps the matches that matter.
const matchScanLimit = 64

// matchNodes returns a bounded, deterministic (allocation-ordered)
// prefix of the class's node list for rule matching.
func matchNodes(g *EGraph, cls ClassID) []Node {
	nodes := g.Class(cls).Nodes
	if len(nodes) > matchScanLimit {
		nodes = nodes[:matchScanLimit]
	}
	return nodes
}

// binKids returns the node's two child classes.
func binKids(g *EGraph, n Node) (ClassID, ClassID) {
	return g.Find(n.Kids[0]), g.Find(n.Kids[1])
}

// addConst adds a constant node of the given width.
func addConst(g *EGraph, val uint64, width int) ClassID {
	return g.Add(Node{Op: OpConst, Width: width, Val: val & mask(width)})
}

// unionWith adds the node and unions it with the class; returns 1 when
// anything changed.
func unionWith(g *EGraph, id ClassID, n Node) int {
	before := g.version
	nid := g.Add(n)
	g.Union(id, nid)
	if g.version != before {
		return 1
	}
	return 0
}

// Operators whose operand order, and whose grouping, is irrelevant.
var (
	commutativeOps = opsOf(OpAdd, OpMul, OpAnd, OpOr, OpXor, OpXnor, OpEq, OpNe)
	associativeOps = opsOf(OpAdd, OpMul, OpAnd, OpOr, OpXor)
)

// ruleLibrary builds the full rule set. Rules are cheap closures; the
// library is rebuilt per call so rules carry no shared state.
func ruleLibrary() []Rule {
	var rules []Rule
	add := func(name string, ops opSet, apply func(g *EGraph, id ClassID, n Node) int) {
		rules = append(rules, Rule{Name: name, ops: ops, Apply: apply})
	}

	// --- structural ----------------------------------------------------

	// resize(w, x) with width(x) == w is the identity.
	add("resize_identity", opsOf(OpResize), func(g *EGraph, id ClassID, n Node) int {
		kid := g.Find(n.Kids[0])
		if g.Class(kid).width != n.Width {
			return 0
		}
		if g.Union(id, kid) {
			return 1
		}
		return 0
	})
	// resize(w1, resize(w2, x)) == resize(w1, x) when w1 <= w2
	// (truncation composes; zero-extension below w1 does not).
	add("resize_resize", opsOf(OpResize), func(g *EGraph, id ClassID, n Node) int {
		applied := 0
		for _, inner := range matchNodes(g, n.Kids[0]) {
			if inner.Op == OpResize && n.Width <= inner.Width {
				applied += unionWith(g, id, un(OpResize, n.Width, inner.Kids[0]))
			}
		}
		return applied
	})

	// --- commutativity / associativity --------------------------------

	add("commute", commutativeOps, func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		if a == b {
			return 0
		}
		return unionWith(g, id, bin(n.Op, n.Width, b, a))
	})
	add("associate", associativeOps, func(g *EGraph, id ClassID, n Node) int {
		// (x ∘ y) ∘ z  ->  x ∘ (y ∘ z)
		applied := 0
		a, z := binKids(g, n)
		for _, inner := range matchNodes(g, a) {
			if inner.Op != n.Op {
				continue
			}
			x, y := binKids(g, inner)
			yz := g.Add(bin(n.Op, n.Width, y, z))
			applied += unionWith(g, id, bin(n.Op, n.Width, x, yz))
		}
		return applied
	})

	// --- arithmetic ----------------------------------------------------

	// a*b + a*c -> a*(b+c), checking every operand pairing (the shared
	// factor may sit on either side of either multiply).
	add("distrib_factor", opsOf(OpAdd), func(g *EGraph, id ClassID, n Node) int {
		l, r := binKids(g, n)
		applied := 0
		for _, ln := range matchNodes(g, l) {
			if ln.Op != OpMul {
				continue
			}
			la, lb := binKids(g, ln)
			for _, rn := range matchNodes(g, r) {
				if rn.Op != OpMul {
					continue
				}
				ra, rb := binKids(g, rn)
				for _, pair := range [...][4]ClassID{
					{la, lb, ra, rb}, {la, lb, rb, ra},
					{lb, la, ra, rb}, {lb, la, rb, ra},
				} {
					if pair[0] != pair[2] {
						continue
					}
					sum := g.Add(bin(OpAdd, n.Width, pair[1], pair[3]))
					applied += unionWith(g, id, bin(OpMul, n.Width, pair[0], sum))
				}
			}
		}
		return applied
	})
	// a*(b+c) -> a*b + a*c (the expansion direction feeds further
	// factorings; extraction keeps whichever form is cheaper).
	add("distrib_expand", opsOf(OpMul), func(g *EGraph, id ClassID, n Node) int {
		a, s := binKids(g, n)
		applied := 0
		expand := func(a, s ClassID) {
			for _, sn := range matchNodes(g, s) {
				if sn.Op != OpAdd {
					continue
				}
				b, c := binKids(g, sn)
				ab := g.Add(bin(OpMul, n.Width, a, b))
				ac := g.Add(bin(OpMul, n.Width, a, c))
				applied += unionWith(g, id, bin(OpAdd, n.Width, ab, ac))
			}
		}
		expand(a, s)
		if a != s {
			expand(s, a)
		}
		return applied
	})
	// x - x -> 0.
	add("sub_self", opsOf(OpSub), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		if a != b {
			return 0
		}
		if g.Union(id, addConst(g, 0, n.Width)) {
			return 1
		}
		return 0
	})
	// x - y -> x + (-y): bridges sub into the add/mul rule space.
	add("sub_to_add", opsOf(OpSub), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		nb := g.Add(un(OpNeg, n.Width, b))
		return unionWith(g, id, bin(OpAdd, n.Width, a, nb))
	})
	// x + 0 -> x, x - 0 -> x, x * 1 -> x, x * 0 -> 0.
	add("arith_identity", opsOf(OpAdd, OpSub, OpMul), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		applied := 0
		try := func(x, c ClassID) {
			v, ok := g.constOf(c)
			if !ok {
				return
			}
			switch {
			case v == 0 && n.Op != OpMul:
				if g.Union(id, x) {
					applied++
				}
			case v == 0 && n.Op == OpMul:
				if g.Union(id, addConst(g, 0, n.Width)) {
					applied++
				}
			case v == 1 && n.Op == OpMul:
				if g.Union(id, x) {
					applied++
				}
			}
		}
		try(a, b)
		if n.Op != OpSub {
			try(b, a)
		}
		return applied
	})
	// x + x -> x * 2 (which mul_to_shl turns into x << 1; at width 1 the
	// doubling wraps to zero).
	add("add_self", opsOf(OpAdd), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		if a != b {
			return 0
		}
		if n.Width == 1 {
			if g.Union(id, addConst(g, 0, 1)) {
				return 1
			}
			return 0
		}
		two := addConst(g, 2, n.Width)
		return unionWith(g, id, bin(OpMul, n.Width, a, two))
	})
	// -(-x) -> x.
	add("neg_neg", opsOf(OpNeg), func(g *EGraph, id ClassID, n Node) int {
		applied := 0
		for _, inner := range matchNodes(g, n.Kids[0]) {
			if inner.Op == OpNeg {
				if g.Union(id, inner.Kids[0]) {
					applied++
				}
			}
		}
		return applied
	})

	// --- bitwise -------------------------------------------------------

	// x&x -> x, x|x -> x, x^x -> 0, xnor(x,x) -> ~0.
	add("bitwise_self", opsOf(OpAnd, OpOr, OpXor, OpXnor), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		if a != b {
			return 0
		}
		switch n.Op {
		case OpAnd, OpOr:
			if g.Union(id, a) {
				return 1
			}
		case OpXor:
			if g.Union(id, addConst(g, 0, n.Width)) {
				return 1
			}
		case OpXnor:
			if g.Union(id, addConst(g, mask(n.Width), n.Width)) {
				return 1
			}
		}
		return 0
	})
	// x&0 -> 0, x&~0 -> x, x|0 -> x, x|~0 -> ~0, x^0 -> x.
	add("bitwise_identity", opsOf(OpAnd, OpOr, OpXor), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		applied := 0
		try := func(x, c ClassID) {
			v, ok := g.constOf(c)
			if !ok {
				return
			}
			ones := mask(n.Width)
			switch {
			case v == 0 && n.Op == OpAnd:
				if g.Union(id, addConst(g, 0, n.Width)) {
					applied++
				}
			case v == 0: // or, xor
				if g.Union(id, x) {
					applied++
				}
			case v == ones && n.Op == OpAnd:
				if g.Union(id, x) {
					applied++
				}
			case v == ones && n.Op == OpOr:
				if g.Union(id, addConst(g, ones, n.Width)) {
					applied++
				}
			}
		}
		try(a, b)
		try(b, a)
		return applied
	})
	// ~~x -> x.
	add("not_not", opsOf(OpNot), func(g *EGraph, id ClassID, n Node) int {
		applied := 0
		for _, inner := range matchNodes(g, n.Kids[0]) {
			if inner.Op == OpNot {
				if g.Union(id, inner.Kids[0]) {
					applied++
				}
			}
		}
		return applied
	})
	// xnor(a,b) -> ~(a^b): lets an xnor share an existing xor.
	add("xnor_not_xor", opsOf(OpXnor), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		x := g.Add(bin(OpXor, n.Width, a, b))
		return unionWith(g, id, un(OpNot, n.Width, x))
	})

	// --- shifts --------------------------------------------------------

	// x << 0 -> x, x >> 0 -> x; x << k -> 0 and x >> k -> 0 for k >= w.
	add("shift_const", opsOf(OpShl, OpShr), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		k, ok := g.constOf(b)
		if !ok {
			return 0
		}
		switch {
		case k == 0:
			if g.Union(id, a) {
				return 1
			}
		case k >= uint64(n.Width):
			if g.Union(id, addConst(g, 0, n.Width)) {
				return 1
			}
		}
		return 0
	})
	// x << k -> x * 2^k for constant 0 < k < w (2^k is representable at
	// width w exactly when k < w).
	add("shl_to_mul", opsOf(OpShl), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		k, ok := g.constOf(b)
		if !ok || k == 0 || k >= uint64(n.Width) || n.Width > 64 {
			return 0
		}
		c := addConst(g, uint64(1)<<k, n.Width)
		return unionWith(g, id, bin(OpMul, n.Width, a, c))
	})
	// x * 2^k -> x << k: the power-of-two strength reduction the paper's
	// datapath class gains most from.
	add("mul_to_shl", opsOf(OpMul), func(g *EGraph, id ClassID, n Node) int {
		if n.Width > 64 {
			return 0
		}
		a, b := binKids(g, n)
		applied := 0
		try := func(x, c ClassID) {
			v, ok := g.constOf(c)
			if !ok || v == 0 || v&(v-1) != 0 {
				return
			}
			k := uint64(bits.TrailingZeros64(v))
			if k == 0 || k >= uint64(n.Width) {
				return // *1 is arith_identity's job; overflow cannot happen for an in-range const
			}
			kw := bits.Len64(k)
			sh := addConst(g, k, kw)
			applied += unionWith(g, id, bin(OpShl, n.Width, x, sh))
		}
		try(a, b)
		try(b, a)
		return applied
	})

	// --- comparison canonicalization ----------------------------------

	// a>b -> b<a and a>=b -> b<=a: one comparator direction per pair.
	add("cmp_swap", opsOf(OpGt, OpGe), func(g *EGraph, id ClassID, n Node) int {
		flip := OpLt
		if n.Op == OpGe {
			flip = OpLe
		}
		a, b := binKids(g, n)
		return unionWith(g, id, bin(flip, n.Width, b, a))
	})
	// a<=b -> ~(b<a) and a!=b -> ~(a==b): complements share the
	// comparator through a 1-bit inverter.
	add("cmp_complement", opsOf(OpLe, OpNe), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		inner := bin(OpEq, n.Width, a, b)
		if n.Op == OpLe {
			inner = bin(OpLt, n.Width, b, a)
		}
		return unionWith(g, id, un(OpNot, 1, g.Add(inner)))
	})
	// x==x -> 1, x!=x -> 0, x<x -> 0, x<=x -> 1 (gt/ge reach these via
	// cmp_swap).
	add("cmp_self", opsOf(OpEq, OpNe, OpLt, OpLe), func(g *EGraph, id ClassID, n Node) int {
		a, b := binKids(g, n)
		if a != b {
			return 0
		}
		var v uint64
		if n.Op == OpEq || n.Op == OpLe {
			v = 1
		}
		if g.Union(id, addConst(g, v, 1)) {
			return 1
		}
		return 0
	})

	// --- constant folding ---------------------------------------------

	add("const_fold", foldOps, func(g *EGraph, id ClassID, n Node) int {
		var vals [2]uint64
		for i, k := range n.kids() {
			v, ok := g.constOf(k)
			if !ok {
				return 0
			}
			vals[i] = v
		}
		v, ok := evalOp(n.Op, n.Width, vals)
		if !ok {
			return 0
		}
		if g.Union(id, addConst(g, v, n.valueWidth())) {
			return 1
		}
		return 0
	})

	return rules
}

// Saturate runs equality saturation: every rule over every (class,
// node) pair whose operator the rule matches, rebuild, repeat — until a
// fixpoint, the iteration budget, or the node budget. It returns the
// number of iterations run and the total rewrites applied.
func Saturate(g *EGraph, rules []Rule, iters, nodeLimit int) (ranIters, applied int) {
	for iter := 0; iter < iters; iter++ {
		if g.NodeCount() >= nodeLimit {
			break
		}
		before := g.version
		// Snapshot the class list: rewrites may allocate classes, which
		// get their turn next iteration.
		ids := g.ClassIDs()
		for _, id := range ids {
			for _, rule := range rules {
				if g.NodeCount() >= nodeLimit {
					break
				}
				id = g.Find(id)
				// The range reads the class's node list as the rule
				// starts, without copying it: until Rebuild compacts the
				// lists after the sweep, rules and unions only append to
				// them, so the nodes the header covers never change. The
				// limit is re-checked per node, not just per class:
				// rules like associativity enumerate a kid class's
				// nodes, so one unchecked sweep over a large class can
				// add O(class²) nodes and eat gigabytes before the outer
				// check fires.
				for _, n := range g.classes[id].Nodes {
					if !rule.ops.has(n.Op) {
						continue
					}
					if g.NodeCount() >= nodeLimit {
						break
					}
					applied += rule.Apply(g, id, g.canonicalize(n))
					id = g.Find(id)
				}
			}
		}
		g.Rebuild()
		ranIters++
		if g.version == before {
			break
		}
	}
	return ranIters, applied
}
