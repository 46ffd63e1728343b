package subgraph

import "repro/internal/rtlil"

// The package-level walks Graph.Extract replaced, kept as the reference
// it must agree with: Extract resolves every driver and reader through
// the Index's maps per query and orders the candidates by scanning the
// live module, and TopoCells orders a cell set by a DFS over the live
// ports. Graph.Extract must return the same Cells, Inputs and
// CandidateCells as Extract, and an Order equal to TopoCells of those
// Cells.

// Extract collects the sub-graph around target, keeping only logic that
// can interact with target or with one of the known (path-condition)
// bits.
func Extract(ix *rtlil.Index, target rtlil.SigBit, known []rtlil.SigBit, opt Options) *Result {
	o := opt.withDefaults()

	// Phase 1: undirected BFS from the target's driver up to depth k.
	type entry struct {
		c     *rtlil.Cell
		depth int
	}
	inSet := map[*rtlil.Cell]bool{}
	var queue []entry
	seed := func(b rtlil.SigBit) {
		if c := ix.DriverCell(b); c != nil && !rtlil.IsSequential(c.Type) && !inSet[c] {
			inSet[c] = true
			queue = append(queue, entry{c, 0})
		}
	}
	seed(target)
	for _, k := range known {
		seed(k)
	}
	for len(queue) > 0 && len(inSet) < o.MaxCells {
		e := queue[0]
		queue = queue[1:]
		if e.depth >= o.Depth {
			continue
		}
		visit := func(c *rtlil.Cell) {
			if c == nil || rtlil.IsSequential(c.Type) || inSet[c] {
				return
			}
			if len(inSet) >= o.MaxCells {
				return
			}
			inSet[c] = true
			queue = append(queue, entry{c, e.depth + 1})
		}
		// Fixed port order (not the Conn map's): the BFS frontier, and
		// therefore the kept set under the MaxCells cap, must not vary
		// between runs — parallel and sequential query results are
		// compared bit for bit.
		for _, port := range rtlil.InputPorts(e.c.Type) {
			for _, b := range ix.Map(e.c.Port(port)) {
				if !b.IsConst() {
					visit(ix.DriverCell(b))
				}
			}
		}
		for _, port := range rtlil.OutputPorts(e.c.Type) {
			for _, b := range ix.Map(e.c.Port(port)) {
				if b.IsConst() {
					continue
				}
				for _, r := range ix.Readers(b) {
					visit(r.Cell)
				}
			}
		}
	}

	candidates := make([]*rtlil.Cell, 0, len(inSet))
	// Deterministic order: module cell order.
	for _, c := range ix.Module().Cells() {
		if inSet[c] {
			candidates = append(candidates, c)
		}
	}
	res := &Result{CandidateCells: len(candidates)}

	kept := candidates
	if !o.DisableFilter {
		kept = filterByConnectivity(ix, candidates, inSet, target, known)
	}
	res.Cells = kept

	// Free inputs of the kept set.
	keptSet := map[*rtlil.Cell]bool{}
	for _, c := range kept {
		keptSet[c] = true
	}
	seen := map[rtlil.SigBit]bool{}
	for _, c := range kept {
		for _, port := range rtlil.InputPorts(c.Type) {
			for _, b := range ix.Map(c.Port(port)) {
				if b.IsConst() || seen[b] {
					continue
				}
				if d := ix.DriverCell(b); d != nil && keptSet[d] {
					continue
				}
				seen[b] = true
				res.Inputs = append(res.Inputs, b)
			}
		}
	}
	return res
}

// filterByConnectivity implements Theorem II.1 for the inference use
// case: the value of the target under the path condition can only be
// constrained by logic in the combined fanin cones of the target and the
// known bits (common ancestors are in both cones; knowns that are
// descendants of the target carry their own cones). Cells outside those
// cones — unrelated islands and pure descendants, which cannot affect an
// ancestor's value — are dismissed; the paper reports this prunes ~80%
// of the gates.
func filterByConnectivity(ix *rtlil.Index, candidates []*rtlil.Cell, inSet map[*rtlil.Cell]bool, target rtlil.SigBit, known []rtlil.SigBit) []*rtlil.Cell {
	visited := map[*rtlil.Cell]bool{}
	var back func(b rtlil.SigBit)
	backCell := func(c *rtlil.Cell) {
		if visited[c] {
			return
		}
		visited[c] = true
		for _, port := range rtlil.InputPorts(c.Type) {
			for _, b := range ix.Map(c.Port(port)) {
				if !b.IsConst() {
					back(b)
				}
			}
		}
	}
	back = func(b rtlil.SigBit) {
		if d := ix.DriverCell(b); d != nil && inSet[d] {
			backCell(d)
		}
	}
	back(ix.MapBit(target))
	for _, k := range known {
		back(ix.MapBit(k))
	}

	var kept []*rtlil.Cell
	for _, c := range candidates {
		if visited[c] {
			kept = append(kept, c)
		}
	}
	return kept
}

// TopoCells orders the sub-graph cells so drivers precede readers. Ports
// are visited in the cell library's fixed order (not the Conn map's) so
// the ordering — and hence AIG and SAT variable numbering — is
// deterministic for a given input order.
func TopoCells(ix *rtlil.Index, cells []*rtlil.Cell) []*rtlil.Cell {
	inSet := make(map[*rtlil.Cell]bool, len(cells))
	for _, c := range cells {
		inSet[c] = true
	}
	order := make([]*rtlil.Cell, 0, len(cells))
	state := map[*rtlil.Cell]int8{}
	var visit func(c *rtlil.Cell)
	visit = func(c *rtlil.Cell) {
		if state[c] != 0 {
			return
		}
		state[c] = 1
		for _, port := range rtlil.InputPorts(c.Type) {
			for _, b := range ix.Map(c.Port(port)) {
				if b.IsConst() {
					continue
				}
				if d := ix.DriverCell(b); d != nil && inSet[d] {
					visit(d)
				}
			}
		}
		state[c] = 2
		order = append(order, c)
	}
	for _, c := range cells {
		visit(c)
	}
	return order
}
