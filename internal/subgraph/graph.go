package subgraph

import (
	"repro/internal/rtlil"
)

// Graph is a precomputed cell-adjacency view of a module index. Extract
// is called once per oracle query — thousands of times per pass
// iteration over one immutable Index — and its inner loops (driver and
// reader resolution through SigBit-keyed maps, port walks through the
// signal map) dominated the profile once the SAT stage stopped being
// the bottleneck. Graph hoists all of that into one O(module) build:
// cells get dense integer ids (module cell order), and each
// combinational cell carries its neighbor id lists and resolved input
// bits, so a query's BFS and connectivity filter touch only int slices
// and flat scratch arrays.
//
// A Graph is immutable after NewGraph and safe for concurrent Extract
// calls (per-call scratch only) — solvePrep fans queries out to worker
// goroutines over one shared Graph.
//
// The neighbor lists preserve the legacy Extract's visit order
// (input ports in cell-library order, then output ports; first
// occurrence wins, duplicates dropped), so the kept set under the
// MaxCells cap — and with it every downstream netlist and counter — is
// bit-identical to the per-query map walk it replaces. That walk had
// exactly one live lookup — the module cell scan that orders the
// candidates, through which mid-walk cell removals drop out of the
// sub-graph — and Graph.Extract keeps that scan live for the same
// reason; everything else reads the index's frozen maps in both
// implementations.
type Graph struct {
	ix    *rtlil.Index
	cells []*rtlil.Cell
	id    map[*rtlil.Cell]int32

	// fanin/fanout hold the combinational neighbor cell ids of each
	// combinational cell (sequential cells keep empty lists: the BFS
	// neither enters nor crosses them).
	fanin  [][]int32
	fanout [][]int32
	// inBits are the mapped non-const input bits of each combinational
	// cell in port order, inIDs their Index.IDs; inDrv the driving cell
	// id per bit (-1 free).
	inBits [][]rtlil.SigBit
	inIDs  [][]int32
	inDrv  [][]int32
}

// NewGraph builds the adjacency view. The index must not change while
// the graph is in use.
func NewGraph(ix *rtlil.Index) *Graph {
	// Copy: Cells returns the live order slice, and mid-walk RemoveCell
	// shifts its backing array in place, which would corrupt the
	// id → cell mapping.
	cells := append([]*rtlil.Cell(nil), ix.Module().Cells()...)
	g := &Graph{
		ix:     ix,
		cells:  cells,
		id:     make(map[*rtlil.Cell]int32, len(cells)),
		fanin:  make([][]int32, len(cells)),
		fanout: make([][]int32, len(cells)),
		inBits: make([][]rtlil.SigBit, len(cells)),
		inIDs:  make([][]int32, len(cells)),
		inDrv:  make([][]int32, len(cells)),
	}
	for i, c := range cells {
		g.id[c] = int32(i)
	}
	for i, c := range cells {
		if rtlil.IsSequential(c.Type) {
			continue
		}
		var (
			bits []rtlil.SigBit
			ids  []int32
			drv  []int32
			fin  []int32
		)
		finSeen := map[int32]bool{}
		for _, port := range rtlil.InputPorts(c.Type) {
			for _, b := range ix.Map(c.Port(port)) {
				if b.IsConst() {
					continue
				}
				bits = append(bits, b)
				ids = append(ids, ix.ID(b))
				did := int32(-1)
				if d := ix.DriverCell(b); d != nil {
					did = g.id[d]
				}
				drv = append(drv, did)
				if did >= 0 && !rtlil.IsSequential(cells[did].Type) && !finSeen[did] {
					finSeen[did] = true
					fin = append(fin, did)
				}
			}
		}
		var fout []int32
		foutSeen := map[int32]bool{}
		for _, port := range rtlil.OutputPorts(c.Type) {
			for _, b := range ix.Map(c.Port(port)) {
				if b.IsConst() {
					continue
				}
				for _, r := range ix.Readers(b) {
					rid := g.id[r.Cell]
					if rtlil.IsSequential(cells[rid].Type) || foutSeen[rid] {
						continue
					}
					foutSeen[rid] = true
					fout = append(fout, rid)
				}
			}
		}
		g.inBits[i], g.inIDs[i], g.inDrv[i], g.fanin[i], g.fanout[i] = bits, ids, drv, fin, fout
	}
	return g
}

// Extract collects the sub-graph around target exactly as the
// package-level Extract does, against the precomputed adjacency.
func (g *Graph) Extract(target rtlil.SigBit, known []rtlil.SigBit, opt Options) *Result {
	o := opt.withDefaults()

	// Phase 1: undirected BFS from the drivers of the target and the
	// known bits up to depth k, capped at MaxCells.
	inSet := make([]bool, len(g.cells))
	var members []int32
	count := 0
	type entry struct {
		id    int32
		depth int
	}
	var queue []entry
	seed := func(b rtlil.SigBit) {
		if c := g.ix.DriverCell(b); c != nil && !rtlil.IsSequential(c.Type) {
			id := g.id[c]
			if !inSet[id] {
				inSet[id] = true
				members = append(members, id)
				count++
				queue = append(queue, entry{id, 0})
			}
		}
	}
	seed(target)
	for _, k := range known {
		seed(k)
	}
	for len(queue) > 0 && count < o.MaxCells {
		e := queue[0]
		queue = queue[1:]
		if e.depth >= o.Depth {
			continue
		}
		for _, nb := range g.fanin[e.id] {
			if count >= o.MaxCells {
				break
			}
			if !inSet[nb] {
				inSet[nb] = true
				members = append(members, nb)
				count++
				queue = append(queue, entry{nb, e.depth + 1})
			}
		}
		for _, nb := range g.fanout[e.id] {
			if count >= o.MaxCells {
				break
			}
			if !inSet[nb] {
				inSet[nb] = true
				members = append(members, nb)
				count++
				queue = append(queue, entry{nb, e.depth + 1})
			}
		}
	}

	// Deterministic candidate order: module cell order, read from the
	// LIVE module, not the snapshot. The mux walk rewrites the module
	// while the oracle (and its frozen index) is in use; a cell removed
	// mid-walk must drop out of the candidate set exactly as it does
	// for the per-query scan. Cells added mid-walk are unreachable here
	// (the frozen adjacency never produces them).
	members = members[:0]
	for _, c := range g.ix.Module().Cells() {
		if id, ok := g.id[c]; ok && inSet[id] {
			members = append(members, id)
		}
	}
	res := &Result{CandidateCells: len(members)}

	keptIDs := members
	if !o.DisableFilter {
		// Theorem II.1: keep only the combined backward cones of the
		// target and the known bits within the candidate set.
		visited := make([]bool, len(g.cells))
		var stack []int32
		push := func(b rtlil.SigBit) {
			if d := g.ix.DriverCell(b); d != nil {
				if id := g.id[d]; inSet[id] && !visited[id] {
					visited[id] = true
					stack = append(stack, id)
				}
			}
		}
		push(g.ix.MapBit(target))
		for _, k := range known {
			push(g.ix.MapBit(k))
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range g.fanin[id] {
				if inSet[nb] && !visited[nb] {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		keptIDs = keptIDs[:0]
		for _, id := range members {
			if visited[id] {
				keptIDs = append(keptIDs, id)
			}
		}
	}

	kept := make([]bool, len(g.cells))
	res.Cells = make([]*rtlil.Cell, len(keptIDs))
	for i, id := range keptIDs {
		kept[id] = true
		res.Cells[i] = g.cells[id]
	}

	// Free inputs of the kept set: bits read by kept cells but not
	// driven inside it, first occurrence order.
	seen := map[int32]bool{}
	for _, id := range keptIDs {
		drv, ids := g.inDrv[id], g.inIDs[id]
		for j, b := range g.inBits[id] {
			if seen[ids[j]] {
				continue
			}
			if d := drv[j]; d >= 0 && kept[d] {
				continue
			}
			seen[ids[j]] = true
			res.Inputs = append(res.Inputs, b)
		}
	}
	return res
}
