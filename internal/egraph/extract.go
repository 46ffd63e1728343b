package egraph

import "math"

// infCost is the not-yet-realizable sentinel. Saturating addition keeps
// partial sums below it from overflowing.
const infCost int64 = math.MaxInt64 / 4

func satAdd(a, b int64) int64 {
	s := a + b
	if s >= infCost {
		return infCost
	}
	return s
}

// Extraction is the result of cost-based extraction: for every
// realizable class, the cheapest derivation (a node index) and its
// total cost including children (shared children counted per path; use
// TotalCost for the DAG-shared figure). Both are indexed by canonical
// class ID and cover the classes that existed when Extract ran.
type Extraction struct {
	g      *EGraph
	cm     *CostModel
	cost   []int64
	choice []int
}

// Extract computes the cheapest derivation of every class by a
// Bellman-Ford style fixpoint over the class list. Iteration is in
// ascending canonical ID order with strict-less updates only, and nodes
// within a class are tried in list order (original ingested nodes come
// first), so ties break deterministically toward existing structure.
// Because every cell-emitting node costs >= 1, the chosen derivations
// can never cycle through their own class.
func Extract(g *EGraph, cm *CostModel) *Extraction {
	e := &Extraction{
		g:      g,
		cm:     cm,
		cost:   make([]int64, len(g.classes)),
		choice: make([]int, len(g.classes)),
	}
	ids := g.ClassIDs()
	for _, id := range ids {
		e.cost[id] = infCost
		e.choice[id] = -1
	}
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			c := g.Class(id)
			for ni := range c.Nodes {
				n := g.canonicalize(c.Nodes[ni])
				total := e.derivationCost(n)
				if total < e.cost[id] {
					e.cost[id] = total
					e.choice[id] = ni
					changed = true
				}
			}
		}
	}
	return e
}

// derivationCost is the node's intrinsic cost plus the current best
// costs of its children (tree-counted; the fixpoint only needs a
// monotone bound).
func (e *Extraction) derivationCost(n Node) int64 {
	total := e.cm.NodeCost(n, e.g.kidSpecs(n))
	for _, k := range n.kids() {
		total = satAdd(total, e.cost[e.g.Find(k)])
	}
	return total
}

// Realizable reports whether the class has a finite-cost derivation.
func (e *Extraction) Realizable(id ClassID) bool {
	return e.cost[e.g.Find(id)] < infCost
}

// Node returns the chosen (cheapest) node of the class, canonicalized.
// The class must be realizable.
func (e *Extraction) Node(id ClassID) Node {
	id = e.g.Find(id)
	return e.g.canonicalize(e.g.Class(id).Nodes[e.choice[id]])
}

// NodeBaseCost returns the intrinsic cost of the class's chosen node,
// excluding children.
func (e *Extraction) NodeBaseCost(id ClassID) int64 {
	n := e.Node(id)
	return e.cm.NodeCost(n, e.g.kidSpecs(n))
}

// TotalCost sums the intrinsic costs of every class in the chosen
// derivations reachable from the roots, counting each class once —
// shared subexpressions are priced once, matching how the rewrite will
// actually emit them.
func (e *Extraction) TotalCost(roots []ClassID) int64 {
	seen := map[ClassID]bool{}
	var total int64
	var visit func(id ClassID)
	visit = func(id ClassID) {
		id = e.g.Find(id)
		if seen[id] {
			return
		}
		seen[id] = true
		if !e.Realizable(id) {
			total = infCost
			return
		}
		total = satAdd(total, e.NodeBaseCost(id))
		n := e.Node(id)
		for _, k := range n.kids() {
			visit(k)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return total
}
