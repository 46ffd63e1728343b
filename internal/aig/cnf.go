package aig

import "repro/internal/sat"

// CNF relates an AIG to SAT variables via the Tseitin transformation.
// Clauses are added lazily: Ensure walks the cone of the requested
// literals and encodes only nodes not yet encoded, so one solver can be
// shared across many queries on the same graph.
type CNF struct {
	G      *AIG
	S      *sat.Solver
	varOf  map[int32]sat.Var
	cTrue  sat.Var
	haveCT bool
}

// NewCNF creates an empty Tseitin context over graph g and solver s.
func NewCNF(g *AIG, s *sat.Solver) *CNF {
	return &CNF{G: g, S: s, varOf: map[int32]sat.Var{}}
}

func (c *CNF) constVar() sat.Var {
	if !c.haveCT {
		c.cTrue = c.S.NewVar()
		c.S.AddClause(sat.PosLit(c.cTrue))
		c.haveCT = true
	}
	return c.cTrue
}

// Ensure encodes the cone of the given AIG literals into the solver and
// returns nothing; use SatLit to translate literals afterwards.
func (c *CNF) Ensure(roots ...Lit) {
	var stack []int32
	push := func(l Lit) {
		n := l.Node()
		if _, done := c.varOf[n]; !done {
			stack = append(stack, n)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		if _, done := c.varOf[n]; done {
			stack = stack[:len(stack)-1]
			continue
		}
		nd := c.G.nodes[n]
		if n == 0 {
			// Constant node: variable forced true; Lit 0 (const false)
			// is the *complemented* node-0 literal... node 0 positive
			// literal is Const0, so force the variable false.
			v := c.S.NewVar()
			c.S.AddClause(sat.NegLit(v))
			c.varOf[n] = v
			stack = stack[:len(stack)-1]
			continue
		}
		if nd.isInput() {
			c.varOf[n] = c.S.NewVar()
			stack = stack[:len(stack)-1]
			continue
		}
		// AND node: need fanins first.
		v0, ok0 := c.varOf[nd.f0.Node()]
		v1, ok1 := c.varOf[nd.f1.Node()]
		if !ok0 || !ok1 {
			if !ok0 {
				push(nd.f0)
			}
			if !ok1 {
				push(nd.f1)
			}
			continue
		}
		y := c.S.NewVar()
		a := sat.MkLit(v0, nd.f0.Compl())
		b := sat.MkLit(v1, nd.f1.Compl())
		// y <-> a & b
		c.S.AddClause(sat.NegLit(y), a)
		c.S.AddClause(sat.NegLit(y), b)
		c.S.AddClause(sat.PosLit(y), a.Not(), b.Not())
		c.varOf[n] = y
		stack = stack[:len(stack)-1]
	}
}

// SatLit translates an AIG literal to a solver literal, encoding its cone
// on demand.
func (c *CNF) SatLit(l Lit) sat.Lit {
	if _, ok := c.varOf[l.Node()]; !ok {
		c.Ensure(l)
	}
	return sat.MkLit(c.varOf[l.Node()], l.Compl())
}

// EncodedNodes reports how many AIG nodes have solver variables — i.e.
// how much of the graph the lazy Tseitin encoding has materialized so
// far. It grows monotonically as queries reference new logic.
func (c *CNF) EncodedNodes() int { return len(c.varOf) }
