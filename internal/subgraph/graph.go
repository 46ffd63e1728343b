package subgraph

import (
	"slices"
	"sync"

	"repro/internal/rtlil"
)

// Graph is a precomputed cell-adjacency view of a module index. Extract
// runs once per oracle query, tens of thousands of times per pass over
// one immutable Index, so Graph does every module-sized step once, in
// NewGraph: cells get dense ids (their position in the module's cell
// order), and each combinational cell carries its neighbor ids and its
// resolved input bits in flat CSR arrays. A table by bit id (Index.ID)
// gives the driving cell of each bit and the combinational cells that
// read it.
//
// A query then touches only its cone: the BFS and the Theorem II.1 walk
// read the neighbor lists, the candidate cells are ordered by sorting
// their ids, and the marks and the free-input set live in pooled
// scratch that each query clears entry by entry. Nothing per query is
// sized by the module.
//
// Graph-id order is the module's cell order at the snapshot, and it
// stays the live order for the cells that remain: RemoveCell keeps the
// order of the rest, and cells added later have no graph id. So the
// candidate list is the snapshot order minus the cells the mux walk
// removed since, which Module.HasCell tells in O(1). Removed cells stay
// in the BFS set, so the Theorem II.1 walk still passes through them.
//
// The scratch pool is package-level, and scratch holds no pointer: a
// sync.Pool reachable from the Graph would register each pass
// iteration's Graph with the runtime's pool list and keep it, and its
// Index, alive for two more GC cycles.
//
// A Graph is immutable after NewGraph and safe for concurrent Extract
// calls: satmux fans a pmux select scan's queries out to worker
// goroutines over one shared Graph.
type Graph struct {
	ix    *rtlil.Index
	cells []*rtlil.Cell
	comb  []bool // by graph id: not a sequential cell

	// drv is the graph id of the cell driving each bit id (-1: none);
	// readers of bit id i are rd[rdStart[i]:rdStart[i+1]], the
	// combinational cells reading it in cell order.
	drv     []int32
	rdStart []int32
	rd      []int32

	// fanin/fanout are the combinational neighbor ids of each
	// combinational cell (sequential cells keep empty lists: the BFS
	// neither enters nor crosses them); in are its mapped non-const
	// input bits in port order, with their ids and driving cells.
	fanin  csr[int32]
	fanout csr[int32]
	inBits csr[rtlil.SigBit]
	inIDs  []int32 // parallel to inBits.items
	inDrv  []int32 // parallel to inBits.items; -1: undriven
}

// csr holds one list per graph id in a flat array: the list of id i is
// items[start[i]:start[i+1]].
type csr[T any] struct {
	start []int32
	items []T
}

func (c *csr[T]) of(id int32) []T { return c.items[c.start[id]:c.start[id+1]] }

// NewGraph builds the adjacency view. The index must not change while
// the graph is in use.
func NewGraph(ix *rtlil.Index) *Graph {
	// Copy: Cells returns the live order slice, and mid-walk RemoveCell
	// shifts its backing array in place, which would corrupt the
	// id → cell mapping.
	cells := slices.Clone(ix.Module().Cells())
	nbits := ix.NumIDs()
	g := &Graph{
		ix:      ix,
		cells:   cells,
		comb:    make([]bool, len(cells)),
		drv:     make([]int32, nbits),
		rdStart: make([]int32, nbits+1),
	}
	for i := range g.drv {
		g.drv[i] = -1
	}
	// Drivers, last writer wins as in the Index (every cell type has one
	// output port); reader counts, every port an Index files a reader
	// under.
	for i, c := range cells {
		g.comb[i] = !rtlil.IsSequential(c.Type)
		for _, port := range rtlil.OutputPorts(c.Type) {
			for _, b := range c.Port(port) {
				if id := ix.ID(b); id >= 0 {
					g.drv[id] = int32(i)
				}
			}
		}
		if g.comb[i] {
			g.eachReadBit(c, func(id int32) { g.rdStart[id+1]++ })
		}
	}
	for i := 1; i <= nbits; i++ {
		g.rdStart[i] += g.rdStart[i-1]
	}
	// Fill with rdStart[id] as the cursor of id, then shift back.
	g.rd = make([]int32, g.rdStart[nbits])
	for i, c := range cells {
		if g.comb[i] {
			g.eachReadBit(c, func(id int32) {
				g.rd[g.rdStart[id]] = int32(i)
				g.rdStart[id]++
			})
		}
	}
	copy(g.rdStart[1:], g.rdStart[:nbits])
	g.rdStart[0] = 0

	// Neighbor lists in the reference walk's visit order: input ports
	// in cell-library order, then output ports; first occurrence wins.
	// mark[id] == stamp dedupes one list.
	mark := make([]int32, len(cells))
	g.fanin.start = make([]int32, len(cells)+1)
	g.fanout.start = make([]int32, len(cells)+1)
	g.inBits.start = make([]int32, len(cells)+1)
	for i, c := range cells {
		if g.comb[i] {
			stamp := int32(2*i + 1)
			for _, port := range rtlil.InputPorts(c.Type) {
				for _, b := range c.Port(port) {
					id := ix.ID(b)
					if id < 0 {
						continue // constant
					}
					did := g.drv[id]
					g.inBits.items = append(g.inBits.items, ix.MapBit(b))
					g.inIDs = append(g.inIDs, id)
					g.inDrv = append(g.inDrv, did)
					if did >= 0 && g.comb[did] && mark[did] != stamp {
						mark[did] = stamp
						g.fanin.items = append(g.fanin.items, did)
					}
				}
			}
			stamp++
			for _, port := range rtlil.OutputPorts(c.Type) {
				for _, b := range c.Port(port) {
					if id := ix.ID(b); id >= 0 {
						for _, rid := range g.Readers(id) {
							if mark[rid] != stamp {
								mark[rid] = stamp
								g.fanout.items = append(g.fanout.items, rid)
							}
						}
					}
				}
			}
		}
		g.fanin.start[i+1] = int32(len(g.fanin.items))
		g.fanout.start[i+1] = int32(len(g.fanout.items))
		g.inBits.start[i+1] = int32(len(g.inBits.items))
	}
	return g
}

// eachReadBit calls fn with the id of every non-constant bit on c's
// input-side ports: every connected port that is not an output, the
// ports an Index files readers under.
func (g *Graph) eachReadBit(c *rtlil.Cell, fn func(id int32)) {
	for port, sig := range c.Conn {
		if c.IsOutputPort(port) {
			continue
		}
		for _, b := range sig {
			if id := g.ix.ID(b); id >= 0 {
				fn(id)
			}
		}
	}
}

// Index returns the index the graph was built from.
func (g *Graph) Index() *rtlil.Index { return g.ix }

// NumCells returns the number of graph ids: the module's cell count at
// the snapshot.
func (g *Graph) NumCells() int { return len(g.cells) }

// Cell returns the cell with the graph id.
func (g *Graph) Cell(id int32) *rtlil.Cell { return g.cells[id] }

// Driver returns the graph id of the cell driving the bit with Index id
// bit, or -1 when no cell drives it.
func (g *Graph) Driver(bit int32) int32 { return g.drv[bit] }

// Readers returns the graph ids of the combinational cells reading the
// bit with Index id bit, in cell order; a cell reading it on several
// ports or offsets appears once per read. The slice is shared; do not
// mutate.
func (g *Graph) Readers(bit int32) []int32 { return g.rd[g.rdStart[bit]:g.rdStart[bit+1]] }

// driverOf returns the graph id of b's driving cell, or -1 for a
// constant, undriven or unindexed bit.
func (g *Graph) driverOf(b rtlil.SigBit) int32 {
	if id := g.ix.ID(b); id >= 0 {
		return g.drv[id]
	}
	return -1
}

// Mark bits of the per-cell scratch.
const (
	inSet   uint8 = 1 << iota // reached by the BFS
	visited                   // in the backward cone of the target or a known bit
	kept                      // in the result
	ordered                   // emitted to the topological order
)

// scratch is one query's reusable state. mark is indexed by graph id
// and seen by bit id; both grow to the largest graph that used them and
// return to the pool all zero.
type scratch struct {
	mark    []uint8
	seen    []bool
	members []int32 // BFS order; doubles as the queue
	depth   []int32 // parallel to members
	cand    []int32
	stack   []int32
	inputs  []int32 // positions in Graph.inBits.items; their ids are set in seen
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(cells, bits int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.mark) < cells {
		sc.mark = make([]uint8, cells)
	}
	if len(sc.seen) < bits {
		sc.seen = make([]bool, bits)
	}
	return sc
}

// putScratch clears the entries the query on g set and pools the
// scratch.
func (g *Graph) putScratch(sc *scratch) {
	for _, id := range sc.members {
		sc.mark[id] = 0
	}
	for _, j := range sc.inputs {
		sc.seen[g.inIDs[j]] = false
	}
	sc.members, sc.depth, sc.cand = sc.members[:0], sc.depth[:0], sc.cand[:0]
	sc.stack, sc.inputs = sc.stack[:0], sc.inputs[:0]
	scratchPool.Put(sc)
}

// Extract collects the sub-graph around target: the cells within
// opt.Depth of the drivers of the target and the known bits (at most
// opt.MaxCells of them), pruned to the backward cones of those bits
// (Theorem II.1) unless opt.DisableFilter is set.
func (g *Graph) Extract(target rtlil.SigBit, known []rtlil.SigBit, opt Options) *Result {
	o := opt.withDefaults()
	sc := getScratch(len(g.cells), len(g.drv))
	defer g.putScratch(sc)
	mark := sc.mark

	// Phase 1: undirected BFS from the drivers of the target and the
	// known bits up to depth k, capped at MaxCells. Every member enters
	// the queue once, so the member list is the queue.
	add := func(id, depth int32) {
		mark[id] |= inSet
		sc.members = append(sc.members, id)
		sc.depth = append(sc.depth, depth)
	}
	seed := func(b rtlil.SigBit) {
		if id := g.driverOf(b); id >= 0 && g.comb[id] && mark[id]&inSet == 0 {
			add(id, 0)
		}
	}
	seed(target)
	for _, k := range known {
		seed(k)
	}
	for head := 0; head < len(sc.members) && len(sc.members) < o.MaxCells; head++ {
		id, d := sc.members[head], sc.depth[head]
		if int(d) >= o.Depth {
			continue
		}
		for _, nbs := range [2][]int32{g.fanin.of(id), g.fanout.of(id)} {
			for _, nb := range nbs {
				if len(sc.members) >= o.MaxCells {
					break
				}
				if mark[nb]&inSet == 0 {
					add(nb, d+1)
				}
			}
		}
	}

	// Candidates: the BFS set without the cells the walk removed since
	// the snapshot. Only the kept ones need module cell order, so only
	// they are sorted.
	m := g.ix.Module()
	for _, id := range sc.members {
		if m.HasCell(g.cells[id]) {
			sc.cand = append(sc.cand, id)
		}
	}
	res := &Result{CandidateCells: len(sc.cand)}
	if !o.DisableFilter {
		// Theorem II.1: keep only the combined backward cones of the
		// target and the known bits within the BFS set.
		push := func(id int32) {
			if id >= 0 && mark[id]&(inSet|visited) == inSet {
				mark[id] |= visited
				sc.stack = append(sc.stack, id)
			}
		}
		push(g.driverOf(target))
		for _, k := range known {
			push(g.driverOf(k))
		}
		for len(sc.stack) > 0 {
			id := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			for _, nb := range g.fanin.of(id) {
				push(nb)
			}
		}
		sc.cand = slices.DeleteFunc(sc.cand, func(id int32) bool { return mark[id]&visited == 0 })
	}
	keptIDs := sc.cand
	slices.Sort(keptIDs)

	n := len(keptIDs)
	res.IDs = slices.Clone(keptIDs)
	cells := make([]*rtlil.Cell, 2*n)
	res.Cells, res.Order = cells[:n:n], cells[n:n]
	for i, id := range keptIDs {
		mark[id] |= kept
		res.Cells[i] = g.cells[id]
	}
	for _, id := range keptIDs {
		res.Order = g.topo(mark, id, res.Order)
	}

	// Free inputs of the kept set: bits read by kept cells but not
	// driven inside it, first occurrence order.
	for _, id := range keptIDs {
		for j := g.inBits.start[id]; j < g.inBits.start[id+1]; j++ {
			bid := g.inIDs[j]
			if sc.seen[bid] {
				continue
			}
			if d := g.inDrv[j]; d >= 0 && mark[d]&kept != 0 {
				continue
			}
			sc.seen[bid] = true
			sc.inputs = append(sc.inputs, j)
		}
	}
	if len(sc.inputs) > 0 {
		res.Inputs = make([]rtlil.SigBit, len(sc.inputs))
		for i, j := range sc.inputs {
			res.Inputs[i] = g.inBits.items[j]
		}
	}
	return res
}

// topo appends id's kept cone to order, drivers before readers: a DFS
// over the cell's input ports in cell-library order, first occurrence
// wins. It reads the live ports, not the snapshot's fanin lists: the
// mux walk replaces data-port bits with constants mid-pass, and the
// cone compile, the AIG mapping and the rule engine all read the live
// ports too.
func (g *Graph) topo(mark []uint8, id int32, order []*rtlil.Cell) []*rtlil.Cell {
	if mark[id]&ordered != 0 {
		return order
	}
	mark[id] |= ordered
	c := g.cells[id]
	for _, port := range rtlil.InputPorts(c.Type) {
		for _, b := range c.Port(port) {
			if d := g.driverOf(b); d >= 0 && mark[d]&kept != 0 {
				order = g.topo(mark, d, order)
			}
		}
	}
	return append(order, c)
}
