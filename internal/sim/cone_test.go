package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rtlil"
)

// buildConeModule extends buildRandomModule's cell mix with the shapes
// where the lane and four-state semantics part ways or wide operands
// matter: $div (x on a zero divisor), free-select $pmux (x when several
// selects are active), variable shifts, a shift by a 65-bit amount
// whose top bit is free, and a 70-bit product that carries past bit 63.
func buildConeModule(rng *rand.Rand, nOps int) *rtlil.Module {
	m := rtlil.NewModule("cone")
	var sigs []rtlil.SigSpec
	for i := 0; i < 4; i++ {
		sigs = append(sigs, m.AddInput(inName(i), 1+rng.Intn(6)).Bits())
	}
	pick := func() rtlil.SigSpec { return sigs[rng.Intn(len(sigs))] }
	cellN := 0
	newY := func(w int) rtlil.SigSpec {
		cellN++
		return m.NewWire(w).Bits()
	}
	for i := 0; i < nOps; i++ {
		var y rtlil.SigSpec
		switch rng.Intn(10) {
		case 0:
			y = m.Not(pick())
		case 1:
			y = m.And(pick(), pick())
		case 2:
			y = m.AddOp(pick(), pick())
		case 3:
			y = m.MulOp(pick(), pick())
		case 4:
			a, b := pick(), pick()
			y = newY(len(a))
			m.AddBinary(rtlil.CellDiv, fmt.Sprintf("div%d", cellN), a, b, y)
		case 5:
			// Free (possibly multi-hot) selects: four-state gives all-x
			// on overlap, the lanes let the highest select win.
			a := pick()
			b := []rtlil.SigSpec{pick().Resize(len(a), false), pick().Resize(len(a), false)}
			s := rtlil.Concat(pick().Extract(0, 1), pick().Extract(0, 1))
			y = m.Pmux(a, b, s)
		case 6:
			y = m.Shl(pick(), pick().Resize(3, false))
		case 7:
			y = m.Shr(pick(), pick().Resize(3, false))
		case 8:
			// A set amount bit at or above 64 shifts everything out.
			y = m.Shl(pick(), rtlil.Concat(pick().Resize(64, false), pick().Extract(0, 1)))
		case 9:
			// A 64-bit operand whose top six bits come from a signal
			// (sign-extended when narrower), times a 6-bit operand: the
			// product carries past bit 63.
			a := rtlil.Concat(pick().Resize(58, false), pick().Resize(6, true))
			y = newY(70)
			m.AddBinary(rtlil.CellMul, fmt.Sprintf("mul%d", cellN), a, pick().Resize(6, false), y)
		}
		sigs = append(sigs, y)
	}
	out := m.AddOutput("out", len(sigs[len(sigs)-1]))
	m.Connect(out.Bits(), sigs[len(sigs)-1])
	return m
}

// coneFreeSlots fills vals with rng lane vectors for every slot not
// driven by a cone cell and returns the free-bit map for the references.
func coneFreeSlots(cone *Cone, ix *rtlil.Index, order []*rtlil.Cell, rng *rand.Rand, vals []uint64) map[rtlil.SigBit]uint64 {
	driven := map[rtlil.SigBit]bool{}
	for _, c := range order {
		for _, b := range ix.Map(c.Port(outputPort(c.Type))) {
			driven[b] = true
		}
	}
	free := map[rtlil.SigBit]uint64{}
	for slot, b := range cone.Bits() {
		if driven[b] {
			continue
		}
		v := rng.Uint64()
		vals[slot] = v
		free[b] = v
	}
	return free
}

// diffConeFourState evaluates the module's cone on random lanes and
// checks four of them against Simulator: every bit the four-state result
// defines must equal the lane's bit. An x bit may take any value; such
// bits come from two active $pmux selects, a zero divisor, or multiply
// and divide operands wider than 64 bits. It returns how many defined
// bits it compared.
func diffConeFourState(t *testing.T, m *rtlil.Module, rng *rand.Rand) int {
	t.Helper()
	ix := rtlil.NewIndex(m)
	order, err := rtlil.TopoSort(m)
	if err != nil {
		t.Fatalf("topo: %v", err)
	}
	cone, err := NewCone(ix, order)
	if err != nil {
		t.Fatalf("cone: %v", err)
	}
	s4, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, cone.NumSlots())
	free := coneFreeSlots(cone, ix, order, rng, vals)
	cone.Eval(vals)

	compared := 0
	for _, lane := range []uint{0, 7, 33, 63} {
		in := map[rtlil.SigBit]rtlil.State{}
		for b, v := range free {
			in[b] = rtlil.BoolState((v>>lane)&1 == 1)
		}
		ref, err := s4.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for slot, b := range cone.Bits() {
			want := s4.EvalSig(ref, rtlil.SigSpec{b})[0]
			if want != rtlil.S0 && want != rtlil.S1 {
				continue
			}
			if got := rtlil.BoolState((vals[slot]>>lane)&1 == 1); got != want {
				t.Fatalf("lane %d slot %d (%v): cone=%s four-state=%s", lane, slot, b, got, want)
			}
			compared++
		}
	}
	return compared
}

// FuzzSimDifferential cross-checks the compiled cone evaluator against
// the four-state Simulator on random combinational modules covering
// every combinational cell type, wherever the four-state result is
// defined.
func FuzzSimDifferential(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(42), uint8(14))
	f.Add(int64(977), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nOps uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := buildConeModule(rng, 2+int(nOps)%16)
		if err := m.Validate(); err != nil {
			t.Fatalf("invalid module: %v", err)
		}
		diffConeFourState(t, m, rng)
	})
}

func TestConeDifferentialSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	compared := 0
	for trial := 0; trial < 40; trial++ {
		m := buildConeModule(rng, 2+rng.Intn(14))
		compared += diffConeFourState(t, m, rng)
	}
	if compared == 0 {
		t.Fatal("four-state reference defined no bit to compare")
	}
}

func TestConeRejectsSequential(t *testing.T) {
	m := rtlil.NewModule("t")
	clk := m.AddInput("clk", 1).Bits()
	d := m.AddInput("d", 1).Bits()
	q := m.NewWire(1)
	m.AddDff("ff", clk, d, q.Bits())
	order, err := rtlil.TopoSort(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCone(rtlil.NewIndex(m), order); err == nil {
		t.Fatal("cone accepted a sequential cell")
	}
}

// TestConeConstLanes: constant port bits are prefilled in the plan
// buffers, not read from slots.
func TestConeConstLanes(t *testing.T) {
	m := rtlil.NewModule("t")
	a := m.AddInput("a", 1).Bits()
	y := m.AddOutput("y", 2)
	one := rtlil.Const(1, 1)
	m.AddBinary(rtlil.CellAnd, "g", rtlil.Concat(a, one), rtlil.Const(3, 2), y.Bits())
	order, err := rtlil.TopoSort(m)
	if err != nil {
		t.Fatal(err)
	}
	ix := rtlil.NewIndex(m)
	cone, err := NewCone(ix, order)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, cone.NumSlots())
	aSlot, ok := cone.Slot(a[0])
	if !ok {
		t.Fatal("input bit has no slot")
	}
	vals[aSlot] = 0xF0F0F0F0F0F0F0F0
	cone.Eval(vals)
	y0, _ := cone.Slot(ix.MapBit(y.Bit(0)))
	y1, _ := cone.Slot(ix.MapBit(y.Bit(1)))
	if vals[y0] != 0xF0F0F0F0F0F0F0F0 {
		t.Errorf("y[0] = %x", vals[y0])
	}
	if vals[y1] != ^uint64(0) {
		t.Errorf("y[1] = %x, want all-ones", vals[y1])
	}
}

// TestConeEvalReusableAcrossRounds: a second Eval with different inputs
// must not see stale state from the first (plan buffers are reused).
func TestConeEvalReusableAcrossRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := buildConeModule(rng, 10)
	ix := rtlil.NewIndex(m)
	order, err := rtlil.TopoSort(m)
	if err != nil {
		t.Fatal(err)
	}
	cone, err := NewCone(ix, order)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 with one input set, round 2 with another, then re-run
	// round 2's inputs on a fresh cone: results must match.
	vals := make([]uint64, cone.NumSlots())
	coneFreeSlots(cone, ix, order, rng, vals)
	cone.Eval(vals)

	vals2 := make([]uint64, cone.NumSlots())
	free2 := coneFreeSlots(cone, ix, order, rng, vals2)
	reused := append([]uint64(nil), vals2...)
	cone.Eval(reused)

	fresh, err := NewCone(ix, order)
	if err != nil {
		t.Fatal(err)
	}
	fvals := make([]uint64, fresh.NumSlots())
	for b, v := range free2 {
		slot, ok := fresh.Slot(b)
		if !ok {
			t.Fatalf("bit %v lost its slot", b)
		}
		fvals[slot] = v
	}
	fresh.Eval(fvals)
	for slot := range fvals {
		b := cone.Bits()[slot]
		fslot, _ := fresh.Slot(b)
		if reused[slot] != fvals[fslot] {
			t.Fatalf("slot %d (%v): reused cone %x, fresh cone %x", slot, b, reused[slot], fvals[fslot])
		}
	}
}
