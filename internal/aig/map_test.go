package aig

import (
	"math/rand"
	"testing"

	"repro/internal/rtlil"
	"repro/internal/sim"
)

// buildRandomModule mirrors the sim package's generator: every mappable
// cell type, random widths.
func buildRandomModule(rng *rand.Rand, nOps int) *rtlil.Module {
	m := rtlil.NewModule("rand")
	var sigs []rtlil.SigSpec
	for i := 0; i < 4; i++ {
		sigs = append(sigs, m.AddInput(string(rune('a'+i)), 1+rng.Intn(5)).Bits())
	}
	pick := func() rtlil.SigSpec { return sigs[rng.Intn(len(sigs))] }
	for i := 0; i < nOps; i++ {
		var y rtlil.SigSpec
		switch rng.Intn(16) {
		case 0:
			y = m.Not(pick())
		case 1:
			y = m.And(pick(), pick())
		case 2:
			y = m.Or(pick(), pick())
		case 3:
			y = m.Xor(pick(), pick())
		case 4:
			y = m.AddOp(pick(), pick())
		case 5:
			y = m.SubOp(pick(), pick())
		case 6:
			y = m.Eq(pick(), pick())
		case 7:
			y = m.Lt(pick(), pick())
		case 8:
			y = m.ReduceOr(pick())
		case 9:
			y = m.Mux(pick(), pick(), pick().Extract(0, 1))
		case 10:
			y = m.MulOp(pick(), pick())
		case 11:
			y = m.Shl(pick(), pick().Resize(2, false))
		case 12:
			y = m.Shr(pick(), pick().Resize(2, false))
		case 13:
			y = m.Le(pick(), pick())
		case 14:
			y = m.Neg(pick())
		case 15:
			a := pick()
			b := []rtlil.SigSpec{pick().Resize(len(a), false), pick().Resize(len(a), false)}
			s := rtlil.Concat(pick().Extract(0, 1), pick().Extract(0, 1))
			y = m.Pmux(a, b, s)
		}
		sigs = append(sigs, y)
	}
	out := m.AddOutput("out", len(sigs[len(sigs)-1]))
	m.Connect(out.Bits(), sigs[len(sigs)-1])
	return m
}

// TestMappingMatchesParallelSim cross-checks the AIG mapping against
// sim.Parallel on random circuits (free, possibly multi-hot pmux selects
// included) and random inputs. Parallel is one sim.Cone, so this pins the
// lane formulas of every 64-lane simulation to the AIG lowering: it is
// what makes a SAT-mux pre-filter witness a model of the cone's CNF.
func TestMappingMatchesParallelSim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		m := buildRandomModule(rng, 10)
		mp, err := FromModule(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ps, err := sim.NewParallel(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lanes := sim.RandomInputs(m, rng)
		psOut := ps.Run(lanes)
		for lane := uint(0); lane < 64; lane += 17 {
			in := map[Lit]bool{}
			for _, b := range mp.Inputs {
				in[mp.bits[b]] = (lanes[b]>>lane)&1 == 1
			}
			got := mp.G.Eval(in, mp.OutputLits)
			for i, b := range mp.Outputs {
				want := (ps.Sig(psOut, rtlil.SigSpec{b})[0]>>lane)&1 == 1
				if got[i] != want {
					t.Fatalf("trial %d lane %d output %d (%v): aig=%v sim=%v",
						trial, lane, i, b, got[i], want)
				}
			}
		}
	}
}

func TestMappingDffCut(t *testing.T) {
	m := rtlil.NewModule("seq")
	clk := m.AddInput("clk", 1).Bits()
	d := m.AddInput("d", 2).Bits()
	q := m.NewWire(2)
	m.AddDff("ff", clk, m.Not(d), q.Bits())
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), q.Bits())
	mp, err := FromModule(m)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs: clk(1) + d(2) + q(2) = 5; outputs: y(2) + D(2) = 4.
	if len(mp.Inputs) != 5 {
		t.Errorf("inputs = %d, want 5", len(mp.Inputs))
	}
	if len(mp.Outputs) != 4 {
		t.Errorf("outputs = %d, want 4", len(mp.Outputs))
	}
}

func TestAreaCountsOnlyReachable(t *testing.T) {
	m := rtlil.NewModule("m")
	a := m.AddInput("a", 8).Bits()
	b := m.AddInput("b", 8).Bits()
	y := m.AddOutput("y", 8)
	m.AddBinary(rtlil.CellAnd, "used", a, b, y.Bits())
	// Dangling logic: drives nothing observable.
	m.AddOp(a, b)
	area, err := Area(m)
	if err != nil {
		t.Fatal(err)
	}
	if area != 8 {
		t.Errorf("area = %d, want 8 (one AND per bit, dangling adder excluded)", area)
	}
}

func TestAreaMuxCost(t *testing.T) {
	// A 1-bit mux costs 3 AND nodes.
	m := rtlil.NewModule("m")
	a := m.AddInput("a", 1).Bits()
	b := m.AddInput("b", 1).Bits()
	s := m.AddInput("s", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	m.AddMux("mx", a, b, s, y)
	area, err := Area(m)
	if err != nil {
		t.Fatal(err)
	}
	if area != 3 {
		t.Errorf("mux area = %d, want 3", area)
	}
}

func TestAreaConstMux(t *testing.T) {
	// Mux with identical branches folds away entirely in the AIG.
	m := rtlil.NewModule("m")
	a := m.AddInput("a", 4).Bits()
	s := m.AddInput("s", 1).Bits()
	y := m.AddOutput("y", 4).Bits()
	m.AddMux("mx", a, a, s, y)
	area, err := Area(m)
	if err != nil {
		t.Fatal(err)
	}
	if area != 0 {
		t.Errorf("identical-branch mux area = %d, want 0", area)
	}
}
