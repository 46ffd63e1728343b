package egraph

// mask returns the low-w-bit mask (w in 1..64).
func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// foldOps is the set of operators constant folding understands. $div
// is excluded on purpose: its x-producing division-by-zero case has no
// two-valued constant story, and the pass treats it as opaque.
var foldOps = opsOf(OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpXnor,
	OpNot, OpNeg, OpShl, OpShr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpResize)

// evalOp computes the node's value from constant child values (slots
// past the operator's arity are ignored), mirroring the canonical cell
// semantics of internal/aig and internal/sim: arithmetic/bitwise
// operate mod 2^Width, comparisons at the operand width with a 1-bit
// result, shifts zero-fill and overflow to zero. Child values must
// already be reduced mod their own width.
func evalOp(op Op, width int, kids [2]uint64) (uint64, bool) {
	if width > 64 || width < 1 || !foldOps.has(op) {
		return 0, false
	}
	m := mask(width)
	one := func(b bool) (uint64, bool) {
		if b {
			return 1, true
		}
		return 0, true
	}
	switch op {
	case OpAdd:
		return (kids[0] + kids[1]) & m, true
	case OpSub:
		return (kids[0] - kids[1]) & m, true
	case OpMul:
		return (kids[0] * kids[1]) & m, true
	case OpAnd:
		return kids[0] & kids[1], true
	case OpOr:
		return kids[0] | kids[1], true
	case OpXor:
		return kids[0] ^ kids[1], true
	case OpXnor:
		return ^(kids[0] ^ kids[1]) & m, true
	case OpNot:
		return ^kids[0] & m, true
	case OpNeg:
		return (-kids[0]) & m, true
	case OpShl:
		if kids[1] >= uint64(width) {
			return 0, true
		}
		return (kids[0] << kids[1]) & m, true
	case OpShr:
		if kids[1] >= uint64(width) {
			return 0, true
		}
		return (kids[0] >> kids[1]) & m, true
	case OpEq:
		return one(kids[0] == kids[1])
	case OpNe:
		return one(kids[0] != kids[1])
	case OpLt:
		return one(kids[0] < kids[1])
	case OpLe:
		return one(kids[0] <= kids[1])
	case OpGt:
		return one(kids[0] > kids[1])
	case OpGe:
		return one(kids[0] >= kids[1])
	case OpResize:
		return kids[0] & m, true
	}
	return 0, false
}

// constOf returns the constant value of a class, if it has one, reduced
// to the class width.
func (g *EGraph) constOf(id ClassID) (uint64, bool) {
	c := g.Class(id)
	if !c.hasConst {
		return 0, false
	}
	return c.constVal, true
}
