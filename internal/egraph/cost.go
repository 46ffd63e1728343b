package egraph

import (
	"strconv"

	"repro/internal/aig"
	"repro/internal/rtlil"
)

// kidSpec is what the cost model knows about one operand: its width and
// whether it is a known constant. Constant operands matter a lot — the
// AIG lowering of, say, a multiply by 2^k or a compare against a fixed
// value collapses most of the logic, and pricing that collapse is what
// makes shift/multiply exchange and comparison sharing pay off.
type kidSpec struct {
	width   int
	isConst bool
	val     uint64
}

// costKey identifies one priced shape: the operator, its width and its
// operands (val only counts for constant operands).
type costKey struct {
	width int
	kids  [2]kidSpec
	op    Op
}

// CostModel prices e-nodes by the repository's area metric: the AIG AND
// count of a one-cell module with the node's exact operand shapes.
// Results are memoized by (op, width, operand shapes); the model is
// deterministic and safe to share across passes but not across
// goroutines.
type CostModel struct {
	memo map[costKey]int64
}

// NewCostModel returns an empty memoized cost model.
func NewCostModel() *CostModel {
	return &CostModel{memo: map[costKey]int64{}}
}

// Cost of operators that cannot be priced by AIG construction.
const (
	costLeaf   int64 = 0 // existing signal: free
	costResize int64 = 1 // pure wiring, but >= 1 keeps extraction acyclic
	// divMulFactor scales the same-shape multiply cost to price the
	// opaque $div, which has no AIG lowering. Restoring divisons are a
	// few times a multiplier of the same width.
	divMulFactor int64 = 4
)

// NodeCost returns the intrinsic cost of one e-node (excluding its
// children) given its operands' shapes (the slots past the operator's
// arity are ignored), clamped to >= 1 for every operator that emits a
// cell so the cheapest derivation of a class can never cycle through
// itself.
func (cm *CostModel) NodeCost(n Node, kids [2]kidSpec) int64 {
	switch n.Op {
	case OpLeaf, OpConst:
		return costLeaf
	case OpResize:
		return costResize
	case OpDiv:
		mul := n
		mul.Op = OpMul
		c := cm.NodeCost(mul, kids)
		if c < 1 {
			c = 1
		}
		return c * divMulFactor
	}
	key := costKey{op: n.Op, width: n.Width}
	for i := 0; i < n.Op.arity(); i++ {
		key.kids[i] = kids[i]
		if !kids[i].isConst {
			key.kids[i].val = 0
		}
	}
	if c, ok := cm.memo[key]; ok {
		return c
	}
	c := cellArea(n, kids)
	if c < 1 {
		c = 1
	}
	cm.memo[key] = c
	return c
}

// cellArea builds the one-cell module and measures it. Constant
// operands are materialized as constants so the mapping simplifies them
// exactly as it would in the real netlist; mapping failures (which
// cannot happen for the AIG-lowered cell set) price as 0 and are
// clamped to 1 by the caller.
func cellArea(n Node, kids [2]kidSpec) int64 {
	m := rtlil.NewModule("$egraph$cost")
	operand := func(i int, k kidSpec) rtlil.SigSpec {
		if k.isConst {
			return rtlil.Const(k.val, k.width)
		}
		return m.AddInput("i"+strconv.Itoa(i), k.width).Bits()
	}
	y := m.AddOutput("y", n.valueWidth()).Bits()
	switch n.Op.arity() {
	case 1:
		m.AddUnary(n.Op.cell(), "$u", operand(0, kids[0]), y)
	case 2:
		m.AddBinary(n.Op.cell(), "$b", operand(0, kids[0]), operand(1, kids[1]), y)
	default:
		return 0
	}
	a, err := aig.Area(m)
	if err != nil {
		return 0
	}
	return int64(a)
}
