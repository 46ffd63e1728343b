package rtlil_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// refSigMap and refIndex are the map-keyed SigMap and Index the dense-id
// tables replaced, kept as the reference they must agree with. The one
// change: refIndex visits a cell's ports in name order where the
// original ranged over the Conn map, whose random order made the reader
// order within one cell unspecified.
type refSigMap struct {
	parent map[rtlil.SigBit]rtlil.SigBit
	rank   map[rtlil.SigBit]int
}

func newRefSigMap(m *rtlil.Module) *refSigMap {
	sm := &refSigMap{parent: map[rtlil.SigBit]rtlil.SigBit{}, rank: map[rtlil.SigBit]int{}}
	for i, w := range m.Wires() {
		for off := 0; off < w.Width; off++ {
			sm.rank[rtlil.SigBit{Wire: w, Offset: off}] = i
		}
	}
	for _, cn := range m.Conns {
		sm.Add(cn.LHS, cn.RHS)
	}
	return sm
}

func (sm *refSigMap) find(b rtlil.SigBit) rtlil.SigBit {
	p, ok := sm.parent[b]
	if !ok || p == b {
		return b
	}
	root := sm.find(p)
	sm.parent[b] = root
	return root
}

func (sm *refSigMap) better(a, b rtlil.SigBit) bool {
	if a.IsConst() != b.IsConst() {
		return a.IsConst()
	}
	if a.IsConst() {
		return true
	}
	ra, okA := sm.rank[a]
	rb, okB := sm.rank[b]
	if okA && okB && ra != rb {
		return ra < rb
	}
	if a.Wire.Name != b.Wire.Name {
		return a.Wire.Name < b.Wire.Name
	}
	return a.Offset < b.Offset
}

func (sm *refSigMap) Add(a, b rtlil.SigSpec) {
	for i := range a {
		ra, rb := sm.find(a[i]), sm.find(b[i])
		if ra == rb {
			continue
		}
		if sm.better(rb, ra) {
			sm.parent[ra] = rb
		} else {
			sm.parent[rb] = ra
		}
	}
}

func (sm *refSigMap) Map(s rtlil.SigSpec) rtlil.SigSpec {
	out := make(rtlil.SigSpec, len(s))
	for i, b := range s {
		out[i] = sm.find(b)
	}
	return out
}

type refIndex struct {
	sigmap  *refSigMap
	driver  map[rtlil.SigBit]rtlil.PortRef
	readers map[rtlil.SigBit][]rtlil.PortRef
	outBits map[rtlil.SigBit]bool
	inBits  map[rtlil.SigBit]bool
}

func newRefIndex(m *rtlil.Module) *refIndex {
	ix := &refIndex{
		sigmap:  newRefSigMap(m),
		driver:  map[rtlil.SigBit]rtlil.PortRef{},
		readers: map[rtlil.SigBit][]rtlil.PortRef{},
		outBits: map[rtlil.SigBit]bool{},
		inBits:  map[rtlil.SigBit]bool{},
	}
	for _, c := range m.Cells() {
		ports := make([]string, 0, len(c.Conn))
		for port := range c.Conn {
			ports = append(ports, port)
		}
		sort.Strings(ports)
		for _, port := range ports {
			mapped := ix.sigmap.Map(c.Conn[port])
			for off, b := range mapped {
				if b.IsConst() {
					continue
				}
				ref := rtlil.PortRef{Cell: c, Port: port, Offset: off}
				if c.IsOutputPort(port) {
					ix.driver[b] = ref
				} else {
					ix.readers[b] = append(ix.readers[b], ref)
				}
			}
		}
	}
	for _, w := range m.Wires() {
		for _, b := range ix.sigmap.Map(w.Bits()) {
			if b.IsConst() {
				continue
			}
			if w.PortOutput {
				ix.outBits[b] = true
			}
			if w.PortInput {
				ix.inBits[b] = true
			}
		}
	}
	return ix
}

// probeBits lists every bit the module mentions and the four
// constants, each once.
func probeBits(m *rtlil.Module) []rtlil.SigBit {
	seen := map[rtlil.SigBit]bool{}
	var out []rtlil.SigBit
	add := func(s rtlil.SigSpec) {
		for _, b := range s {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	add(rtlil.ConstBits(rtlil.S0, rtlil.S1, rtlil.Sx, rtlil.Sz))
	for _, w := range m.Wires() {
		add(w.Bits())
	}
	for _, c := range m.Cells() {
		for _, sig := range c.Conn {
			add(sig)
		}
	}
	for _, cn := range m.Conns {
		add(cn.LHS)
		add(cn.RHS)
	}
	return out
}

// checkIndexAgainstRef compares every lookup of a fresh Index with the
// map reference on every bit the module mentions and on the outside
// bits, and checks that ID keys exactly the canonical non-constant bits
// the module mentions.
func checkIndexAgainstRef(t *testing.T, m *rtlil.Module, outside ...rtlil.SigBit) {
	t.Helper()
	ix := rtlil.NewIndex(m)
	ref := newRefIndex(m)
	byID := map[int32]rtlil.SigBit{}
	fails := 0
	fail := func(format string, args ...any) {
		t.Helper()
		if fails++; fails <= 10 {
			t.Errorf("%s: "+format, append([]any{m.Name}, args...)...)
		}
	}
	inside := probeBits(m)
	for i, b := range append(inside, outside...) {
		mb := ref.sigmap.find(b)
		if got := ix.MapBit(b); got != mb {
			fail("MapBit(%v) = %v, want %v", b, got, mb)
		}
		gd, gok := ix.Driver(b)
		rd, rok := ref.driver[mb]
		if gok != rok || gd != rd {
			fail("Driver(%v) = %v,%v, want %v,%v", b, gd, gok, rd, rok)
		}
		if got, want := ix.Readers(b), ref.readers[mb]; !reflect.DeepEqual(got, want) {
			fail("Readers(%v) = %v, want %v", b, got, want)
		}
		want := len(ref.readers[mb])
		if ref.outBits[mb] {
			want++
		}
		if got := ix.FanoutCount(b); got != want {
			fail("FanoutCount(%v) = %d, want %d", b, got, want)
		}
		if got := ix.IsInputBit(b); got != ref.inBits[mb] {
			fail("IsInputBit(%v) = %v", b, got)
		}
		if got := ix.IsOutputBit(b); got != ref.outBits[mb] {
			fail("IsOutputBit(%v) = %v", b, got)
		}
		id := ix.ID(b)
		switch {
		case mb.IsConst() || i >= len(inside):
			if id != -1 {
				fail("ID(%v) = %d, want -1 (maps to %v)", b, id, mb)
			}
		case id < 0:
			fail("ID(%v) = %d for a bit the module mentions", b, id)
		default:
			if prev, ok := byID[id]; ok && prev != mb {
				fail("ID %d keys both %v and %v", id, prev, mb)
			}
			byID[id] = mb
		}
	}
}

func TestIndexMatchesMapReferenceOnRecipes(t *testing.T) {
	recipes := append(genbench.Recipes(), genbench.SeqRecipes()...)
	recipes = append(recipes, genbench.DatapathRecipes()...)
	recipes = append(recipes, genbench.IndustrialRecipe(0))
	for _, r := range recipes {
		m := genbench.Generate(r, 0.05)
		checkIndexAgainstRef(t, m)
		// The baseline passes leave alias connections and removed
		// cells behind: check the rewritten module too.
		passes := []opt.Pass{opt.ExprPass{}, opt.MuxtreePass{}, opt.ReducePass{}, opt.CleanPass{}}
		if _, err := opt.RunScript(opt.Background(), m, passes...); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		checkIndexAgainstRef(t, m)
	}
}

// randomAliasModule builds a module with alias chains, constant-driven
// and constant-constant connections, cells of several types, a removed
// wire that a connection still references and a cell reading another
// module's wire. It returns the module and a bit the module never
// mentions.
func randomAliasModule(rng *rand.Rand, i int) (*rtlil.Module, rtlil.SigBit) {
	m := rtlil.NewModule(fmt.Sprintf("rand%d", i))
	other := rtlil.NewModule("other")
	foreign := other.AddWire("f", 2)
	stray := other.AddWire("stray", 1)
	var wires []*rtlil.Wire
	for j := 0; j < 3+rng.Intn(3); j++ {
		wires = append(wires, m.AddInput(fmt.Sprintf("in%d", j), 1+rng.Intn(3)))
	}
	for j := 0; j < 6+rng.Intn(10); j++ {
		// Names out of creation order, so rank and name order differ.
		wires = append(wires, m.AddWire(fmt.Sprintf("w%02d", rng.Intn(100)+100*j), 1+rng.Intn(4)))
	}
	for j := 0; j < 2; j++ {
		wires = append(wires, m.AddOutput(fmt.Sprintf("out%d", j), 1+rng.Intn(3)))
	}
	pick := func() rtlil.SigBit {
		w := wires[rng.Intn(len(wires))]
		return w.Bit(rng.Intn(w.Width))
	}
	pickSig := func(n int) rtlil.SigSpec {
		s := make(rtlil.SigSpec, n)
		for k := range s {
			switch rng.Intn(8) {
			case 0:
				s[k] = rtlil.ConstBit(rtlil.State(rng.Intn(4)))
			default:
				s[k] = pick()
			}
		}
		return s
	}
	for j := 0; j < 4+rng.Intn(8); j++ {
		n := 1 + rng.Intn(3)
		switch rng.Intn(4) {
		case 0:
			m.AddUnary(rtlil.CellNot, "", pickSig(n), pickSig(n))
		case 1:
			m.AddBinary(rtlil.CellAnd, "", pickSig(n), pickSig(n), pickSig(n))
		case 2:
			m.AddBinary(rtlil.CellXor, "", pickSig(n), pickSig(n), pickSig(n))
		default:
			m.AddMux("", pickSig(n), pickSig(n), pickSig(1), pickSig(n))
		}
	}
	// Alias chains in both directions.
	for j := 0; j < 3+rng.Intn(6); j++ {
		chain := []rtlil.SigBit{pick(), pick(), pick()}
		for k := 1; k < len(chain); k++ {
			if rng.Intn(2) == 0 {
				m.Connect(rtlil.SigSpec{chain[k]}, rtlil.SigSpec{chain[k-1]})
			} else {
				m.Connect(rtlil.SigSpec{chain[k-1]}, rtlil.SigSpec{chain[k]})
			}
		}
	}
	m.Connect(rtlil.SigSpec{pick()}, rtlil.Const(uint64(rng.Intn(2)), 1))
	m.Connect(rtlil.ConstBits(rtlil.S0, rtlil.Sx), rtlil.ConstBits(rtlil.S1, rtlil.Sz))
	// A removed wire that a connection still references, and another
	// module's wire read by a cell and aliased.
	gone := m.AddWire("gone", 2)
	m.Connect(gone.Bits(), rtlil.SigSpec{pick(), pick()})
	m.RemoveWire(gone)
	m.AddUnary(rtlil.CellNot, "", foreign.Bits(), rtlil.SigSpec{pick(), pick()})
	m.Connect(rtlil.SigSpec{foreign.Bit(1)}, rtlil.SigSpec{pick()})
	return m, stray.Bit(0)
}

func TestIndexMatchesMapReferenceOnRandomModules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		m, stray := randomAliasModule(rng, i)
		checkIndexAgainstRef(t, m, stray)
	}
}

// TestSigMapMatchesMapReferenceWithLateWires: bits of wires created
// after construction get ids on their first Add (opt_reduce merges cell
// outputs that way) and tie-break by name, then offset, like unranked
// bits did in the map.
func TestSigMapMatchesMapReferenceWithLateWires(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		m, stray := randomAliasModule(rng, i)
		sm, ref := rtlil.NewSigMap(m), newRefSigMap(m)
		var late []*rtlil.Wire
		for j := 0; j < 3; j++ {
			late = append(late, m.AddWire(fmt.Sprintf("late%d_%d", rng.Intn(3), j), 2))
		}
		probes := append(probeBits(m), stray)
		for j := 0; j < 8; j++ {
			a := rtlil.SigSpec{probes[rng.Intn(len(probes))], late[rng.Intn(len(late))].Bit(rng.Intn(2))}
			b := rtlil.SigSpec{late[rng.Intn(len(late))].Bit(rng.Intn(2)), probes[rng.Intn(len(probes))]}
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			sm.Add(a, b)
			ref.Add(a, b)
		}
		for _, b := range probes {
			if got, want := sm.Bit(b), ref.find(b); got != want {
				t.Fatalf("%s: Bit(%v) = %v, want %v", m.Name, b, got, want)
			}
		}
		sm.Freeze()
		for _, b := range probes {
			if got, want := sm.Bit(b), ref.find(b); got != want {
				t.Fatalf("%s: frozen Bit(%v) = %v, want %v", m.Name, b, got, want)
			}
		}
	}
}

// TestIndexConcurrentLookups runs every lookup of one frozen Index from
// several goroutines at once; under -race it proves the lookups are pure
// reads.
func TestIndexConcurrentLookups(t *testing.T) {
	m := genbench.Generate(genbench.Recipes()[0], 0.05)
	ix := rtlil.NewIndex(m)
	bits := probeBits(m)
	type answer struct {
		mapped  rtlil.SigBit
		driver  *rtlil.Cell
		readers int
		fanout  int
		id      int32
		in, out bool
	}
	lookup := func(b rtlil.SigBit) answer {
		return answer{ix.MapBit(b), ix.DriverCell(b), len(ix.Readers(b)),
			ix.FanoutCount(b), ix.ID(b), ix.IsInputBit(b), ix.IsOutputBit(b)}
	}
	want := make([]answer, len(bits))
	for i, b := range bits {
		want[i] = lookup(b)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range bits {
				i := (k*7 + g*len(bits)/4) % len(bits)
				if got := lookup(bits[i]); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d: lookup(%v) = %+v, want %+v", g, bits[i], got, want[i])
					return
				}
				ix.Map(rtlil.SigSpec{bits[i]})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func BenchmarkNewIndex(b *testing.B) {
	m := genbench.Generate(genbench.Recipes()[0], 0.25) // top_cache_axi
	b.ReportAllocs()
	for b.Loop() {
		rtlil.NewIndex(m)
	}
}
