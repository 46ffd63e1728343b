// Package aig implements an And-Inverter Graph with structural hashing,
// conversion from rtlil modules (the equivalent of Yosys' aigmap pass) and
// Tseitin CNF export for SAT-based reasoning.
//
// The AND-node count of the mapped graph is the paper's area metric:
// "AIG area, specifically the number of AND gates in the optimized
// circuit", with flip-flops excluded.
package aig

import "fmt"

// Lit is an AIG literal: node index times two, plus one if complemented.
// Node 0 is the constant-false node, so Lit 0 is constant false and Lit 1
// constant true.
type Lit int32

// Const0 and Const1 are the constant literals.
const (
	Const0 Lit = 0
	Const1 Lit = 1
)

// MkLit builds a literal from a node index and complement flag.
func MkLit(node int32, compl bool) Lit {
	l := Lit(node << 1)
	if compl {
		l |= 1
	}
	return l
}

// Node returns the literal's node index.
func (l Lit) Node() int32 { return int32(l >> 1) }

// Compl reports whether the literal is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

type node struct {
	f0, f1 Lit // fanins; f0 == -1 marks a primary input
}

func (n node) isInput() bool { return n.f0 == -1 }
func (n node) isAnd() bool   { return n.f0 >= 0 && n.f1 >= 0 }

// AIG is a structurally hashed and-inverter graph.
type AIG struct {
	nodes   []node
	strash  map[[2]Lit]int32
	numPIs  int
	numAnds int
}

// New returns an empty AIG containing only the constant node.
func New() *AIG {
	return &AIG{
		nodes:  []node{{f0: -2, f1: -2}}, // node 0: constant
		strash: map[[2]Lit]int32{},
	}
}

// NumInputs returns the number of primary inputs created.
func (g *AIG) NumInputs() int { return g.numPIs }

// NumAnds returns the total number of AND nodes ever created (including
// ones no longer reachable from any output).
func (g *AIG) NumAnds() int { return g.numAnds }

// NumNodes returns the total node count including the constant and inputs.
func (g *AIG) NumNodes() int { return len(g.nodes) }

// NewInput creates a fresh primary input and returns its positive literal.
func (g *AIG) NewInput() Lit {
	idx := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{f0: -1, f1: -1})
	g.numPIs++
	return MkLit(idx, false)
}

// And returns a literal for the conjunction of a and b, applying constant
// folding, idempotence/complement rules and structural hashing.
func (g *AIG) And(a, b Lit) Lit {
	// Trivial cases.
	switch {
	case a == Const0 || b == Const0:
		return Const0
	case a == Const1:
		return b
	case b == Const1:
		return a
	case a == b:
		return a
	case a == b.Not():
		return Const0
	}
	if a > b {
		a, b = b, a
	}
	key := [2]Lit{a, b}
	if idx, ok := g.strash[key]; ok {
		return MkLit(idx, false)
	}
	idx := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{f0: a, f1: b})
	g.strash[key] = idx
	g.numAnds++
	return MkLit(idx, false)
}

// Or returns a | b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a ^ b (two AND nodes after hashing).
func (g *AIG) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Xnor returns ~(a ^ b).
func (g *AIG) Xnor(a, b Lit) Lit { return g.Xor(a, b).Not() }

// Mux returns s ? b : a.
func (g *AIG) Mux(a, b, s Lit) Lit {
	if a == b {
		return a
	}
	return g.Or(g.And(s, b), g.And(s.Not(), a))
}

// Copy rebuilds src's nodes in g through And, so the copy is
// constant-folded and structurally hashed against everything already in
// g. input gives the literal of g that each of src's input nodes stands
// for. The result holds the literal of every src node, by node index:
// src literal l becomes result[l.Node()] ^ (l & 1). Node order is
// topological, so this is one pass.
func (g *AIG) Copy(src *AIG, input func(node int32) Lit) []Lit {
	lits := make([]Lit, len(src.nodes))
	for i, n := range src.nodes {
		switch {
		case n.isInput():
			lits[i] = input(int32(i))
		case n.isAnd():
			lits[i] = g.And(lits[n.f0.Node()]^(n.f0&1), lits[n.f1.Node()]^(n.f1&1))
		}
	}
	return lits
}

// Simulate evaluates every AND node over 64 lanes in place: vals holds
// one lane vector per node, vals[0] (the constant node) must be 0, and
// the caller sets the input nodes' vectors before the call.
func (g *AIG) Simulate(vals []uint64) {
	for i, n := range g.nodes {
		if n.isAnd() {
			a, b := vals[n.f0.Node()], vals[n.f1.Node()]
			if n.f0.Compl() {
				a = ^a
			}
			if n.f1.Compl() {
				b = ^b
			}
			vals[i] = a & b
		}
	}
}

// CountReachable returns the number of AND nodes reachable from the given
// root literals. This is the area figure reported by the benchmark
// harness: it matches running aigmap on a cleaned netlist, where dangling
// logic has already been removed.
func (g *AIG) CountReachable(roots []Lit) int {
	seen := make([]bool, len(g.nodes))
	count := 0
	var stack []int32
	push := func(l Lit) {
		n := l.Node()
		if !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := g.nodes[n]
		if nd.isAnd() {
			count++
			push(nd.f0)
			push(nd.f1)
		}
	}
	return count
}

// Levels returns the depth (maximum AND-chain length) of each root and the
// overall maximum, a proxy for circuit delay.
func (g *AIG) Levels(roots []Lit) (perRoot []int, max int) {
	memo := make([]int, len(g.nodes))
	for i := range memo {
		memo[i] = -1
	}
	var level func(n int32) int
	level = func(n int32) int {
		if memo[n] >= 0 {
			return memo[n]
		}
		nd := g.nodes[n]
		l := 0
		if nd.isAnd() {
			l0 := level(nd.f0.Node())
			l1 := level(nd.f1.Node())
			if l1 > l0 {
				l0 = l1
			}
			l = l0 + 1
		}
		memo[n] = l
		return l
	}
	perRoot = make([]int, len(roots))
	for i, r := range roots {
		perRoot[i] = level(r.Node())
		if perRoot[i] > max {
			max = perRoot[i]
		}
	}
	return perRoot, max
}

// Eval computes the two-valued value of the given literals under an input
// assignment (indexed by input literal as returned from NewInput).
func (g *AIG) Eval(inputs map[Lit]bool, roots []Lit) []bool {
	vals := make([]int8, len(g.nodes)) // 0 unknown, 1 false, 2 true
	vals[0] = 1
	for l, v := range inputs {
		if l.Compl() {
			panic("aig: Eval input literal must be positive")
		}
		if v {
			vals[l.Node()] = 2
		} else {
			vals[l.Node()] = 1
		}
	}
	var eval func(n int32) bool
	eval = func(n int32) bool {
		if vals[n] != 0 {
			return vals[n] == 2
		}
		nd := g.nodes[n]
		if nd.isInput() {
			vals[n] = 1 // unassigned inputs default to false
			return false
		}
		v0 := eval(nd.f0.Node()) != nd.f0.Compl()
		v1 := eval(nd.f1.Node()) != nd.f1.Compl()
		v := v0 && v1
		if v {
			vals[n] = 2
		} else {
			vals[n] = 1
		}
		return v
	}
	out := make([]bool, len(roots))
	for i, r := range roots {
		out[i] = eval(r.Node()) != r.Compl()
	}
	return out
}

// String renders a summary.
func (g *AIG) String() string {
	return fmt.Sprintf("aig: %d inputs, %d ands, %d nodes", g.numPIs, g.numAnds, len(g.nodes))
}
