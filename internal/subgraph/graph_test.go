package subgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/rtlil"
)

// buildGraphModule grows a random mixed combinational/sequential module:
// multi-bit arithmetic, muxes, pmuxes, reduction gates and occasional
// flop barriers, so the adjacency build sees every port shape Extract
// walks.
func buildGraphModule(rng *rand.Rand, nOps int) *rtlil.Module {
	m := rtlil.NewModule("m")
	clk := m.AddInput("clk", 1).Bits()
	var sigs []rtlil.SigSpec
	for i := 0; i < 4; i++ {
		sigs = append(sigs, m.AddInput(fmt.Sprintf("in%d", i), 1+rng.Intn(4)).Bits())
	}
	pick := func() rtlil.SigSpec { return sigs[rng.Intn(len(sigs))] }
	for i := 0; i < nOps; i++ {
		a, b := pick(), pick()
		var y rtlil.SigSpec
		switch rng.Intn(8) {
		case 0:
			y = m.Not(a)
		case 1:
			y = m.And(a, b)
		case 2:
			y = m.AddOp(a, b)
		case 3:
			y = m.Mux(a, b.Resize(len(a), false), pick().Resize(1, false))
		case 4:
			n := 1 + rng.Intn(2)
			var branches []rtlil.SigSpec
			for j := 0; j < n; j++ {
				branches = append(branches, pick().Resize(len(a), false))
			}
			y = m.Pmux(a, branches, pick().Resize(n, false))
		case 5:
			y = m.ReduceOr(a)
		case 6:
			y = m.Eq(a, b.Resize(len(a), false))
		default:
			q := m.NewWire(len(a))
			m.AddDff(fmt.Sprintf("ff%d", i), clk, a, q.Bits())
			y = q.Bits()
		}
		sigs = append(sigs, y)
	}
	out := m.AddOutput("y", len(sigs[len(sigs)-1]))
	m.Connect(out.Bits(), sigs[len(sigs)-1])
	return m
}

// collectBits gathers every non-const mapped bit in the module, the pool
// targets and knowns are drawn from.
func collectBits(ix *rtlil.Index) []rtlil.SigBit {
	var bits []rtlil.SigBit
	seen := map[rtlil.SigBit]bool{}
	for _, c := range ix.Module().Cells() {
		for _, port := range rtlil.OutputPorts(c.Type) {
			for _, b := range ix.Map(c.Port(port)) {
				if !b.IsConst() && !seen[b] {
					seen[b] = true
					bits = append(bits, b)
				}
			}
		}
	}
	return bits
}

// diffResults compares a Graph.Extract result with the reference
// Extract's, and its Order with the reference TopoCells of its Cells.
func diffResults(t *testing.T, ix *rtlil.Index, trial int, want, got *Result) {
	t.Helper()
	if want.CandidateCells != got.CandidateCells {
		t.Fatalf("trial %d: candidates %d != %d", trial, got.CandidateCells, want.CandidateCells)
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("trial %d: kept %d cells, want %d", trial, len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		if want.Cells[i] != got.Cells[i] {
			t.Fatalf("trial %d: cell %d is %s, want %s", trial, i, got.Cells[i].Name, want.Cells[i].Name)
		}
	}
	if len(want.Inputs) != len(got.Inputs) {
		t.Fatalf("trial %d: %d inputs, want %d (%v vs %v)", trial, len(got.Inputs), len(want.Inputs), got.Inputs, want.Inputs)
	}
	for i := range want.Inputs {
		if want.Inputs[i] != got.Inputs[i] {
			t.Fatalf("trial %d: input %d is %v, want %v", trial, i, got.Inputs[i], want.Inputs[i])
		}
	}
	if wantOrder := TopoCells(ix, want.Cells); !slices.Equal(got.Order, wantOrder) {
		t.Fatalf("trial %d: order %v, want %v", trial, got.Order, wantOrder)
	}
	if len(got.IDs) != len(got.Cells) {
		t.Fatalf("trial %d: %d ids for %d cells", trial, len(got.IDs), len(got.Cells))
	}
}

// TestGraphExtractMatchesExtract pins the precomputed-adjacency fast
// path to the reference walk bit for bit — same kept cells in the same
// order, same free inputs, same candidate count — across random
// modules, targets, known sets and option corners (tight MaxCells caps,
// shallow depths, filter off). The oracle's netlist determinism
// contract rides on this equivalence.
func TestGraphExtractMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		m := buildGraphModule(rng, 4+rng.Intn(24))
		ix := rtlil.NewIndex(m)
		g := NewGraph(ix)
		bits := collectBits(ix)
		if len(bits) == 0 {
			continue
		}
		for q := 0; q < 8; q++ {
			target := bits[rng.Intn(len(bits))]
			var knowns []rtlil.SigBit
			for k := rng.Intn(4); k > 0; k-- {
				knowns = append(knowns, bits[rng.Intn(len(bits))])
			}
			opt := Options{
				Depth:         1 + rng.Intn(8),
				MaxCells:      1 + rng.Intn(12),
				DisableFilter: rng.Intn(3) == 0,
			}
			if rng.Intn(4) == 0 {
				opt.MaxCells = 300
			}
			want := Extract(ix, target, knowns, opt)
			got := g.Extract(target, knowns, opt)
			diffResults(t, ix, trial, want, got)
		}
	}
}

// TestGraphExtractTracksCellRemoval pins the staleness contract: the
// mux walk removes cells from the module while the oracle's frozen
// index is live, and a removed cell must vanish from the candidate set
// of both implementations identically.
func TestGraphExtractTracksCellRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		m := buildGraphModule(rng, 10+rng.Intn(20))
		ix := rtlil.NewIndex(m)
		g := NewGraph(ix)
		bits := collectBits(ix)
		if len(bits) == 0 {
			continue
		}
		// Remove a few random cells AFTER the graph build, as the walk
		// does mid-iteration.
		cells := m.Cells()
		for k := 0; k < 3 && len(cells) > 1; k++ {
			m.RemoveCell(cells[rng.Intn(len(cells))])
			cells = m.Cells()
		}
		for q := 0; q < 8; q++ {
			target := bits[rng.Intn(len(bits))]
			var knowns []rtlil.SigBit
			for k := rng.Intn(3); k > 0; k-- {
				knowns = append(knowns, bits[rng.Intn(len(bits))])
			}
			want := Extract(ix, target, knowns, Options{})
			got := g.Extract(target, knowns, Options{})
			diffResults(t, ix, trial, want, got)
		}
	}
}

// TestGraphExtractOrderReadsLivePorts: the walk also ties data-port
// bits to constants mid-iteration. Extraction reads the snapshot, so
// the kept cells, free inputs and candidate count stay what they were
// before the rewrite; Order reads the live ports, like the cone compile
// and the AIG mapping after it, and equals the reference TopoCells.
func TestGraphExtractOrderReadsLivePorts(t *testing.T) {
	// y = w & b with w = ~a, the AND added first. Once the AND's w input
	// is tied to 1, nothing orders the NOT before it any more: the live
	// order is module order, where the snapshot's fanin would still put
	// the NOT first.
	m := rtlil.NewModule("m")
	a := m.AddInput("a", 1).Bits()
	b := m.AddInput("b", 1).Bits()
	w := m.AddWire("w", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	and := m.AddBinary(rtlil.CellAnd, "and", w, b, y)
	not := m.AddUnary(rtlil.CellNot, "not", a, w)
	ix := rtlil.NewIndex(m)
	g := NewGraph(ix)
	if got := g.Extract(y[0], nil, Options{}).Order; !slices.Equal(got, []*rtlil.Cell{not, and}) {
		t.Fatalf("order before the rewrite %v, want [not and]", got)
	}
	and.SetPort("A", rtlil.SigSpec{rtlil.ConstBit(rtlil.S1)})
	got := g.Extract(y[0], nil, Options{})
	if !slices.Equal(got.Cells, []*rtlil.Cell{and, not}) || !slices.Equal(got.Order, []*rtlil.Cell{and, not}) {
		t.Fatalf("after the rewrite cells %v order %v, want [and not] for both", got.Cells, got.Order)
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		m := buildGraphModule(rng, 10+rng.Intn(20))
		ix := rtlil.NewIndex(m)
		g := NewGraph(ix)
		bits := collectBits(ix)
		if len(bits) == 0 {
			continue
		}
		type query struct {
			target rtlil.SigBit
			knowns []rtlil.SigBit
			before *Result
		}
		var queries []query
		for q := 0; q < 8; q++ {
			qu := query{target: bits[rng.Intn(len(bits))]}
			for k := rng.Intn(3); k > 0; k-- {
				qu.knowns = append(qu.knowns, bits[rng.Intn(len(bits))])
			}
			qu.before = g.Extract(qu.target, qu.knowns, Options{})
			queries = append(queries, qu)
		}
		cells := m.Cells()
		for k := 0; k < 6; k++ {
			c := cells[rng.Intn(len(cells))]
			if rtlil.IsSequential(c.Type) {
				continue
			}
			port := rtlil.InputPorts(c.Type)[rng.Intn(len(rtlil.InputPorts(c.Type)))]
			sig := c.Port(port).Copy()
			sig[rng.Intn(len(sig))] = rtlil.ConstBit(rtlil.BoolState(rng.Intn(2) == 1))
			c.SetPort(port, sig)
		}
		for _, q := range queries {
			got := g.Extract(q.target, q.knowns, Options{})
			if !slices.Equal(got.Cells, q.before.Cells) || !slices.Equal(got.Inputs, q.before.Inputs) ||
				got.CandidateCells != q.before.CandidateCells {
				t.Fatalf("trial %d: a port rewrite changed the extraction", trial)
			}
			if want := TopoCells(ix, got.Cells); !slices.Equal(got.Order, want) {
				t.Fatalf("trial %d: order %v, want %v", trial, got.Order, want)
			}
		}
	}
}

// TestGraphExtractConcurrent exercises shared-Graph extraction from
// many goroutines (the batch oracle's worker fan-out) under -race, and
// re-checks the results against the reference walk.
func TestGraphExtractConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := buildGraphModule(rng, 30)
	ix := rtlil.NewIndex(m)
	g := NewGraph(ix)
	bits := collectBits(ix)
	if len(bits) == 0 {
		t.Skip("no bits")
	}
	type query struct {
		target rtlil.SigBit
		knowns []rtlil.SigBit
	}
	queries := make([]query, 64)
	for i := range queries {
		queries[i].target = bits[rng.Intn(len(bits))]
		for k := rng.Intn(3); k > 0; k-- {
			queries[i].knowns = append(queries[i].knowns, bits[rng.Intn(len(bits))])
		}
	}
	results := make([]*Result, len(queries))
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(queries); i += 8 {
				results[i] = g.Extract(queries[i].target, queries[i].knowns, Options{})
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	for i, q := range queries {
		want := Extract(ix, q.target, q.knowns, Options{})
		diffResults(t, ix, i, want, results[i])
	}
}

// TestGraphExtractSharedScratch extracts from two Graphs of different
// sizes on 8 goroutines at once, so queries of both draw on and return
// to the one scratch pool, grown by the larger graph and reused by the
// smaller (run it under -race). Every result must match the reference.
func TestGraphExtractSharedScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type query struct {
		target rtlil.SigBit
		knowns []rtlil.SigBit
	}
	type side struct {
		ix      *rtlil.Index
		g       *Graph
		queries []query
		results []*Result
	}
	var sides []*side
	for _, n := range []int{12, 120} {
		ix := rtlil.NewIndex(buildGraphModule(rng, n))
		s := &side{ix: ix, g: NewGraph(ix)}
		bits := collectBits(ix)
		for i := 0; i < 96; i++ {
			q := query{target: bits[rng.Intn(len(bits))]}
			for k := rng.Intn(3); k > 0; k-- {
				q.knowns = append(q.knowns, bits[rng.Intn(len(bits))])
			}
			s.queries = append(s.queries, q)
		}
		s.results = make([]*Result, len(s.queries))
		sides = append(sides, s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 96; i += 8 {
				for _, s := range sides {
					s.results[i] = s.g.Extract(s.queries[i].target, s.queries[i].knowns, Options{})
				}
			}
		}(w)
	}
	wg.Wait()
	for _, s := range sides {
		for i, q := range s.queries {
			diffResults(t, s.ix, i, Extract(s.ix, q.target, q.knowns, Options{}), s.results[i])
		}
	}
}

// TestGraphTablesMatchIndex pins the graph's bit-id tables to the
// Index: Driver is the graph id of DriverCell, and Readers are the
// combinational cells of Readers, in order.
func TestGraphTablesMatchIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		ix := rtlil.NewIndex(buildGraphModule(rng, 4+rng.Intn(30)))
		g := NewGraph(ix)
		for _, w := range ix.Module().Wires() {
			for _, b := range w.Bits() {
				id := ix.ID(b)
				if id < 0 {
					continue
				}
				var drv *rtlil.Cell
				if d := g.Driver(id); d >= 0 {
					drv = g.Cell(d)
				}
				if drv != ix.DriverCell(b) {
					t.Fatalf("trial %d: driver of %v is %v, want %v", trial, b, drv, ix.DriverCell(b))
				}
				var want, got []*rtlil.Cell
				for _, r := range ix.Readers(b) {
					if !rtlil.IsSequential(r.Cell.Type) {
						want = append(want, r.Cell)
					}
				}
				for _, r := range g.Readers(id) {
					got = append(got, g.Cell(r))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: readers of %v are %v, want %v", trial, b, got, want)
				}
			}
		}
	}
}
