package egraph

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/rtlil"
)

// runPass executes opt_egraph on a clone of m and checks the result
// against the original with the cec miter. It returns the clone, the
// result and the AIG areas before/after.
func runPass(t *testing.T, m *rtlil.Module, opts Options) (*rtlil.Module, int, int) {
	t.Helper()
	orig := m.Clone()
	got := m.Clone()
	p := &Pass{Opts: opts}
	res, err := p.Run(nil, got)
	if err != nil {
		t.Fatalf("opt_egraph: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("invalid module after opt_egraph: %v", err)
	}
	if err := cec.Check(orig, got, nil); err != nil {
		t.Fatalf("opt_egraph broke equivalence (changed=%v): %v", res.Changed, err)
	}
	before, err := aig.Area(orig)
	if err != nil {
		t.Fatalf("area before: %v", err)
	}
	after, err := aig.Area(got)
	if err != nil {
		t.Fatalf("area after: %v", err)
	}
	return got, before, after
}

// newDUT builds a module with three 5-bit inputs. The width matters:
// the naive CDCL solver proves 5-bit multiplier miters in ~100ms but
// falls off an exponential cliff past 6 bits, and runPass proves every
// rewrite twice (inside the pass, then whole-module).
func newDUT() (*rtlil.Module, [3]rtlil.SigSpec) {
	m := rtlil.NewModule("dut")
	a := m.AddInput("a", 5).Bits()
	b := m.AddInput("b", 5).Bits()
	c := m.AddInput("c", 5).Bits()
	return m, [3]rtlil.SigSpec{a, b, c}
}

func out(m *rtlil.Module, name string, s rtlil.SigSpec) {
	m.Connect(m.AddOutput(name, len(s)).Bits(), s)
}

// liveCells counts the cells reachable from the module outputs, by
// type. The pass leaves replaced cells dangling on dead wires (a later
// opt_clean sweeps them), so reachability — not the raw cell list — is
// what shows whether a rewrite shared hardware.
func liveCells(m *rtlil.Module) map[rtlil.CellType]int {
	ix := rtlil.NewIndex(m)
	seen := map[*rtlil.Cell]bool{}
	var visit func(sig rtlil.SigSpec)
	visit = func(sig rtlil.SigSpec) {
		for _, bit := range ix.Map(sig) {
			c := ix.DriverCell(bit)
			if c == nil || seen[c] {
				continue
			}
			seen[c] = true
			for port, s := range c.Conn {
				if port != "Y" {
					visit(s)
				}
			}
		}
	}
	for _, w := range m.Outputs() {
		visit(w.Bits())
	}
	count := map[rtlil.CellType]int{}
	for c := range seen {
		count[c.Type]++
	}
	return count
}

func TestPassFactorsSharedMultiplier(t *testing.T) {
	m, in := newDUT()
	out(m, "y0", m.AddOp(m.MulOp(in[0], in[1]), m.MulOp(in[0], in[2])))
	got, before, after := runPass(t, m, Options{})
	if after >= before {
		t.Errorf("area %d -> %d: factoring a*b+a*c did not shrink the netlist", before, after)
	}
	res, err := (&Pass{}).Run(nil, got.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed {
		t.Error("second opt_egraph run changed an already-optimized module (fixpoint churn)")
	}
}

func TestPassCancelsSubSelf(t *testing.T) {
	m, in := newDUT()
	// Two structurally identical adders hash-cons into one class, so the
	// subtraction sees identical operands and collapses to zero.
	out(m, "y0", m.SubOp(m.AddOp(in[0], in[1]), m.AddOp(in[0], in[1])))
	_, before, after := runPass(t, m, Options{})
	if after != 0 {
		t.Errorf("area %d -> %d: (a+b)-(a+b) should fold to constant 0", before, after)
	}
}

func TestPassSharesCanonicalizedComparators(t *testing.T) {
	m, in := newDUT()
	out(m, "y0", m.Gt(in[0], in[1]))
	out(m, "y1", m.Lt(in[1], in[0]))
	// AIG strash already merges the two mirror comparators, so aig.Area
	// cannot show the gain; the win is structural sharing in the
	// netlist, which opt_clean then harvests.
	got, before, after := runPass(t, m, Options{})
	if after > before {
		t.Errorf("area %d -> %d: comparator canonicalization regressed", before, after)
	}
	live := 0
	for ty, n := range liveCells(got) {
		if rtlil.IsCompare(ty) {
			live += n
		}
	}
	if live != 1 {
		t.Errorf("%d live comparator cells after rewrite, want 1 shared", live)
	}
}

func TestPassSharesMulAndShlForms(t *testing.T) {
	m, in := newDUT()
	ab := m.MulOp(in[0], in[1])
	out(m, "y0", m.MulOp(ab, rtlil.Const(4, 5)))
	out(m, "y1", m.Shl(m.MulOp(in[0], in[1]), rtlil.Const(2, 2)))
	got, before, after := runPass(t, m, Options{})
	if after > before {
		t.Errorf("area %d -> %d: mul/shl exchange regressed", before, after)
	}
	// Both outputs must share one a*b multiplier after the rewrite; the
	// duplicated multiplier and one of the mul-by-4/shl-by-2 forms go
	// dead. (aig.Area cannot see this: strash merges the duplicates.)
	if n := liveCells(got)[rtlil.CellMul]; n > 2 {
		t.Errorf("%d live multipliers after rewrite, want the shared a*b plus at most the by-4 form", n)
	}
	if res, err := (&Pass{}).Run(nil, got.Clone()); err != nil {
		t.Fatal(err)
	} else if res.Changed {
		t.Error("second run changed the module again (fixpoint churn)")
	}
}

func TestPassDivNoop(t *testing.T) {
	// No runPass here: $div has no AIG lowering, so neither aig.Area nor
	// the cec SAT phase can process the module. The pass itself must
	// still ingest the cell and terminate as a verified no-op.
	m, in := newDUT()
	y := m.NewWireHint("q", 5).Bits()
	m.AddBinary(rtlil.CellDiv, "", in[0], in[1], y)
	out(m, "y0", y)
	before := rtlil.CanonicalHash(m)
	res, err := (&Pass{}).Run(nil, m)
	if err != nil {
		t.Fatalf("opt_egraph on a $div design errored: %v", err)
	}
	if res.Changed {
		t.Error("opt_egraph rewrote a lone $div")
	}
	if res.Details["egraph_cells"] != 1 {
		t.Errorf("egraph_cells = %d, want 1 ($div must be ingested, not skipped)", res.Details["egraph_cells"])
	}
	if rtlil.CanonicalHash(m) != before {
		t.Error("module mutated by a no-op run")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid module: %v", err)
	}
}

// TestPassDivCSERejectedByVerify: two identical $div cells share an
// e-class, so extraction plans a CSE — but $div has no AIG lowering,
// the equivalence proof cannot be built, and the whole extraction must
// be rejected, leaving the module untouched.
func TestPassDivCSERejectedByVerify(t *testing.T) {
	m, in := newDUT()
	y0 := m.NewWireHint("q", 5).Bits()
	y1 := m.NewWireHint("q", 5).Bits()
	m.AddBinary(rtlil.CellDiv, "", in[0], in[1], y0)
	m.AddBinary(rtlil.CellDiv, "", in[0], in[1], y1)
	out(m, "y0", y0)
	out(m, "y1", y1)
	before := rtlil.CanonicalHash(m)
	res, err := (&Pass{}).Run(nil, m)
	if err != nil {
		t.Fatalf("opt_egraph: %v", err)
	}
	if res.Changed {
		t.Error("unverifiable $div CSE was applied")
	}
	if res.Details["egraph_verify_rejected"] == 0 {
		t.Error("egraph_verify_rejected counter not bumped")
	}
	if rtlil.CanonicalHash(m) != before {
		t.Error("module mutated despite rejected extraction")
	}
}

func TestPassDeterministic(t *testing.T) {
	m, in := newDUT()
	out(m, "y0", m.AddOp(m.MulOp(in[0], in[1]), m.MulOp(in[0], in[2])))
	out(m, "y1", m.Gt(in[1], in[2]))
	out(m, "y2", m.Lt(in[2], in[1]))
	var hashes []string
	for i := 0; i < 3; i++ {
		got := m.Clone()
		if _, err := (&Pass{}).Run(nil, got); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, rtlil.CanonicalHash(got))
	}
	if hashes[0] != hashes[1] || hashes[1] != hashes[2] {
		t.Errorf("opt_egraph not deterministic across runs: %v", hashes)
	}
}

// TestPassMixedWidths exercises the resize modeling: operands narrower
// and wider than the result, plus a sliced read of a region cell's
// output (which pins the producer as an exposed root).
func TestPassMixedWidths(t *testing.T) {
	m := rtlil.NewModule("dut")
	a := m.AddInput("a", 3).Bits()
	b := m.AddInput("b", 4).Bits()
	c := m.AddInput("c", 5).Bits()
	sum := m.AddOp(a, b)    // width 4
	prod := m.MulOp(sum, c) // width 5
	out(m, "y0", prod)
	out(m, "y1", sum.Extract(1, 3)) // slice exposure
	out(m, "y2", m.SubOp(prod, prod))
	_, before, after := runPass(t, m, Options{})
	if after > before {
		t.Errorf("area %d -> %d: mixed-width rewrite regressed", before, after)
	}
}
