package egraph

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/rtlil"
)

// leaf adds the opaque leaf for a fresh input wire of the given name
// and width.
func leaf(g *EGraph, name string, w int) ClassID {
	sig := rtlil.NewModule("t").AddInput(name, w).Bits()
	return g.Add(g.leaf(sig.String(), sig))
}

func cellNode(op Op, w int, kids ...ClassID) Node {
	n := Node{Op: op, Width: w}
	copy(n.Kids[:], kids)
	return n
}

func saturateAll(t *testing.T, g *EGraph) int {
	t.Helper()
	_, applied := Saturate(g, ruleLibrary(), 16, 100000)
	return applied
}

func TestHashconsDedup(t *testing.T) {
	g := New()
	a, b := leaf(g, "a", 8), leaf(g, "b", 8)
	x := g.Add(cellNode(OpAdd, 8, a, b))
	y := g.Add(cellNode(OpAdd, 8, a, b))
	if x != y {
		t.Fatalf("identical nodes got classes %d and %d", x, y)
	}
	if got := g.NodeCount(); got != 3 {
		t.Fatalf("NodeCount = %d, want 3", got)
	}
	if leaf(g, "a", 8) != a {
		t.Error("leaf not deduped")
	}
}

func TestUnionFindLowerIDWins(t *testing.T) {
	g := New()
	a, b := leaf(g, "a", 4), leaf(g, "b", 4)
	if !g.Union(b, a) {
		t.Fatal("union of distinct classes reported no change")
	}
	if g.Union(a, b) {
		t.Fatal("second union reported a change")
	}
	if got := g.Find(b); got != a {
		t.Errorf("Find(b) = %d, want %d (lower ID wins)", got, a)
	}
}

func TestCongruenceClosure(t *testing.T) {
	g := New()
	a, b, c := leaf(g, "a", 8), leaf(g, "b", 8), leaf(g, "c", 8)
	f1 := g.Add(cellNode(OpAdd, 8, a, b))
	f2 := g.Add(cellNode(OpAdd, 8, a, c))
	if g.Find(f1) == g.Find(f2) {
		t.Fatal("distinct applications merged prematurely")
	}
	g.Union(b, c)
	g.Rebuild()
	if g.Find(f1) != g.Find(f2) {
		t.Error("congruence closure did not merge add(a,b) with add(a,c) after b=c")
	}
}

func TestUnionWidthMismatchPanics(t *testing.T) {
	g := New()
	a, b := leaf(g, "a", 8), leaf(g, "b", 4)
	defer func() {
		if recover() == nil {
			t.Error("union of different widths did not panic")
		}
	}()
	g.Union(a, b)
}

func TestUnionConstConflictPanics(t *testing.T) {
	g := New()
	c1 := g.Add(Node{Op: OpConst, Width: 8, Val: 1})
	c2 := g.Add(Node{Op: OpConst, Width: 8, Val: 2})
	defer func() {
		if recover() == nil {
			t.Error("union proving 1 == 2 did not panic")
		}
	}()
	g.Union(c1, c2)
}

func TestConstFold(t *testing.T) {
	g := New()
	c3 := g.Add(Node{Op: OpConst, Width: 8, Val: 3})
	c4 := g.Add(Node{Op: OpConst, Width: 8, Val: 4})
	sum := g.Add(cellNode(OpAdd, 8, c3, c4))
	saturateAll(t, g)
	if v, ok := g.constOf(sum); !ok || v != 7 {
		t.Errorf("3+4 folded to (%d, %v), want (7, true)", v, ok)
	}
	cmp := g.Add(cellNode(OpLt, 8, c3, c4))
	saturateAll(t, g)
	if v, ok := g.constOf(cmp); !ok || v != 1 {
		t.Errorf("3<4 folded to (%d, %v), want (1, true)", v, ok)
	}
}

func TestCommuteAndAssociate(t *testing.T) {
	g := New()
	a, b, c := leaf(g, "a", 8), leaf(g, "b", 8), leaf(g, "c", 8)
	ab := g.Add(cellNode(OpMul, 8, a, b))
	ba := g.Add(cellNode(OpMul, 8, b, a))
	abc := g.Add(cellNode(OpAdd, 8, g.Add(cellNode(OpAdd, 8, a, b)), c))
	acb := g.Add(cellNode(OpAdd, 8, a, g.Add(cellNode(OpAdd, 8, b, c))))
	saturateAll(t, g)
	if g.Find(ab) != g.Find(ba) {
		t.Error("a*b and b*a not merged")
	}
	if g.Find(abc) != g.Find(acb) {
		t.Error("(a+b)+c and a+(b+c) not merged")
	}
}

func TestSubSelfAndXorSelf(t *testing.T) {
	g := New()
	x := leaf(g, "x", 8)
	sub := g.Add(cellNode(OpSub, 8, x, x))
	xor := g.Add(cellNode(OpXor, 8, x, x))
	saturateAll(t, g)
	if v, ok := g.constOf(sub); !ok || v != 0 {
		t.Errorf("x-x = (%d, %v), want (0, true)", v, ok)
	}
	if v, ok := g.constOf(xor); !ok || v != 0 {
		t.Errorf("x^x = (%d, %v), want (0, true)", v, ok)
	}
}

func TestDistributivityFactoring(t *testing.T) {
	g := New()
	a, b, c := leaf(g, "a", 8), leaf(g, "b", 8), leaf(g, "c", 8)
	sum := g.Add(cellNode(OpAdd, 8,
		g.Add(cellNode(OpMul, 8, a, b)),
		g.Add(cellNode(OpMul, 8, a, c))))
	saturateAll(t, g)
	cm := NewCostModel()
	ext := Extract(g, cm)
	n := ext.Node(sum)
	if n.Op != OpMul {
		t.Fatalf("extraction chose %s for a*b+a*c, want the factored $mul", n.Op)
	}
	// The factored form prices one multiplier instead of two.
	single := g.Add(cellNode(OpMul, 8, a, b))
	if ext.TotalCost([]ClassID{sum}) >= 2*ext.TotalCost([]ClassID{single}) {
		t.Errorf("factored cost %d not below two multipliers (%d each)",
			ext.TotalCost([]ClassID{sum}), ext.TotalCost([]ClassID{single}))
	}
}

func TestMulShlExchange(t *testing.T) {
	g := New()
	x := leaf(g, "x", 8)
	four := g.Add(Node{Op: OpConst, Width: 8, Val: 4})
	mul := g.Add(cellNode(OpMul, 8, x, four))
	two := g.Add(Node{Op: OpConst, Width: 2, Val: 2})
	shl := g.Add(cellNode(OpShl, 8, x, two))
	saturateAll(t, g)
	if g.Find(mul) != g.Find(shl) {
		t.Error("x*4 and x<<2 not merged")
	}
}

func TestShiftOverflowAndZero(t *testing.T) {
	g := New()
	x := leaf(g, "x", 8)
	k9 := g.Add(Node{Op: OpConst, Width: 4, Val: 9})
	over := g.Add(cellNode(OpShl, 8, x, k9))
	zero := g.Add(Node{Op: OpConst, Width: 4, Val: 0})
	ident := g.Add(cellNode(OpShr, 8, x, zero))
	saturateAll(t, g)
	if v, ok := g.constOf(over); !ok || v != 0 {
		t.Errorf("x<<9 at width 8 = (%d, %v), want (0, true)", v, ok)
	}
	if g.Find(ident) != g.Find(x) {
		t.Error("x>>0 not merged with x")
	}
}

func TestCompareCanonicalization(t *testing.T) {
	g := New()
	a, b := leaf(g, "a", 8), leaf(g, "b", 8)
	gt := g.Add(cellNode(OpGt, 8, a, b))
	lt := g.Add(cellNode(OpLt, 8, b, a))
	ltSelf := g.Add(cellNode(OpLt, 8, a, a))
	saturateAll(t, g)
	if g.Find(gt) != g.Find(lt) {
		t.Error("a>b and b<a not merged")
	}
	if v, ok := g.constOf(ltSelf); !ok || v != 0 {
		t.Errorf("a<a = (%d, %v), want (0, true)", v, ok)
	}
}

func TestNotNotAndXnor(t *testing.T) {
	g := New()
	a, b := leaf(g, "a", 8), leaf(g, "b", 8)
	nn := g.Add(cellNode(OpNot, 8, g.Add(cellNode(OpNot, 8, a))))
	xnor := g.Add(cellNode(OpXnor, 8, a, b))
	notXor := g.Add(cellNode(OpNot, 8, g.Add(cellNode(OpXor, 8, a, b))))
	saturateAll(t, g)
	if g.Find(nn) != g.Find(a) {
		t.Error("~~a not merged with a")
	}
	if g.Find(xnor) != g.Find(notXor) {
		t.Error("xnor(a,b) not merged with ~(a^b)")
	}
}

func TestSaturateNodeBudget(t *testing.T) {
	g := New()
	ids := make([]ClassID, 6)
	for i := range ids {
		ids[i] = leaf(g, string(rune('a'+i)), 8)
	}
	acc := ids[0]
	for _, id := range ids[1:] {
		acc = g.Add(cellNode(OpAdd, 8, acc, id))
	}
	limit := g.NodeCount() + 5
	Saturate(g, ruleLibrary(), 100, limit)
	// The budget is a soft stop: one rule application may overshoot by
	// the few nodes it allocates, but growth must halt near the limit.
	if g.NodeCount() > limit+8 {
		t.Errorf("NodeCount = %d, want <= %d (budget ignored)", g.NodeCount(), limit+8)
	}
}

func TestDivIsOpaque(t *testing.T) {
	g := New()
	a, b := leaf(g, "a", 8), leaf(g, "b", 8)
	d1 := g.Add(cellNode(OpDiv, 8, a, b))
	d2 := g.Add(cellNode(OpDiv, 8, a, b))
	if d1 != d2 {
		t.Error("identical $div nodes not hash-consed")
	}
	c2 := g.Add(Node{Op: OpConst, Width: 8, Val: 2})
	dc := g.Add(cellNode(OpDiv, 8, a, c2))
	saturateAll(t, g)
	if _, ok := g.constOf(g.Find(dc)); ok {
		t.Error("$div by constant was folded; it must stay opaque")
	}
	if got := g.Class(dc).Nodes; len(got) != 1 {
		t.Errorf("$div class grew %d nodes, want 1 (no rewrites through $div)", len(got))
	}
}

func TestCostModelConstOperandsCheaper(t *testing.T) {
	cm := NewCostModel()
	x := kidSpec{width: 8}
	constK := kidSpec{width: 8, isConst: true, val: 13}
	mulVar := cm.NodeCost(Node{Op: OpMul, Width: 8}, [2]kidSpec{x, x})
	mulConst := cm.NodeCost(Node{Op: OpMul, Width: 8}, [2]kidSpec{x, constK})
	if mulConst >= mulVar {
		t.Errorf("mul by constant (%d) not cheaper than variable mul (%d)", mulConst, mulVar)
	}
	div := cm.NodeCost(Node{Op: OpDiv, Width: 8}, [2]kidSpec{x, x})
	if div <= mulVar {
		t.Errorf("$div (%d) not priced above $mul (%d)", div, mulVar)
	}
	if c := cm.NodeCost(Node{Op: OpLeaf, Width: 8}, [2]kidSpec{}); c != 0 {
		t.Errorf("leaf cost = %d, want 0", c)
	}
	if c := cm.NodeCost(Node{Op: OpResize, Width: 8}, [2]kidSpec{x}); c < 1 {
		t.Errorf("resize cost = %d, want >= 1 (acyclic extraction)", c)
	}
}

func TestExtractionDeterministic(t *testing.T) {
	build := func() (*EGraph, ClassID) {
		g := New()
		a, b, c := leaf(g, "a", 8), leaf(g, "b", 8), leaf(g, "c", 8)
		sum := g.Add(cellNode(OpAdd, 8,
			g.Add(cellNode(OpMul, 8, a, b)),
			g.Add(cellNode(OpMul, 8, a, c))))
		saturateAll(t, g)
		return g, sum
	}
	g1, s1 := build()
	g2, s2 := build()
	e1, e2 := Extract(g1, NewCostModel()), Extract(g2, NewCostModel())
	if k1, k2 := e1.Node(s1).key(), e2.Node(s2).key(); k1 != k2 {
		t.Errorf("extraction differs across identical runs: %+v vs %+v", k1, k2)
	}
	if c1, c2 := e1.TotalCost([]ClassID{s1}), e2.TotalCost([]ClassID{s2}); c1 != c2 {
		t.Errorf("total cost differs across identical runs: %d vs %d", c1, c2)
	}
}

// signature is the string hash-cons key nodes were interned under
// before keys became node values, kept here as the reference the value
// key must agree with: operator, width, then the constant payload or
// the leaf's canonical signal render, then the children.
func signature(g *EGraph, n Node) string {
	var b strings.Builder
	b.WriteString(n.Op.String())
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(n.Width))
	switch n.Op {
	case OpConst:
		b.WriteByte('#')
		b.WriteString(strconv.FormatUint(n.Val, 16))
	case OpLeaf:
		b.WriteByte('@')
		b.WriteString(g.leaves[n.Leaf].String())
	}
	for _, k := range n.kids() {
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(int(k)))
	}
	return b.String()
}

// TestNodeKeyMatchesSignature: over every operator, widths 1/8/64,
// the operator's 0-2 children (plus stray ids
// in the unused kid slots), several leaves and a stray Val and leaf
// index on the nodes that do not use them, two nodes share a key
// exactly when their reference signatures are equal.
func TestNodeKeyMatchesSignature(t *testing.T) {
	g := New()
	m := rtlil.NewModule("t")
	var leaves []int32
	for _, w := range []int{1, 8, 64} {
		for _, name := range []string{"a", "b"} {
			sig := m.AddInput(name+strconv.Itoa(w), w).Bits()
			leaves = append(leaves, g.leaf(sig.String(), sig).Leaf)
		}
	}
	wide := m.AddInput("c", 64).Bits()
	leaves = append(leaves, g.leaf(wide[8:16].String(), wide[8:16]).Leaf)

	bySig := map[string]Node{}
	byKey := map[Node]string{}
	n := 0
	for op := Op(0); op < numOps; op++ {
		for _, w := range []int{1, 8, 64} {
			for _, kids := range [][2]ClassID{{0, 0}, {0, 1}, {1, 0}, {2, 2}, {1, 2}} {
				for _, val := range []uint64{0, 1, 0xff, 1 << 63} {
					for _, lf := range leaves {
						node := Node{Op: op, Width: w, Kids: kids, Val: val, Leaf: lf}
						sig, key := signature(g, node), node.key()
						if k, ok := bySig[sig]; ok && k != key {
							t.Fatalf("signature %q has keys %+v and %+v", sig, k, key)
						}
						if s, ok := byKey[key]; ok && s != sig {
							t.Fatalf("key %+v has signatures %q and %q", key, s, sig)
						}
						bySig[sig], byKey[key] = key, sig
						n++
					}
				}
			}
		}
	}
	if len(bySig) != len(byKey) || len(bySig) == n {
		t.Fatalf("%d nodes gave %d signatures and %d keys; want equal counts below the node count",
			n, len(bySig), len(byKey))
	}
}
