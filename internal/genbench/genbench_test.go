package genbench

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/cec"
	_ "repro/internal/core" // registers the named flows
	"repro/internal/opt"
	"repro/internal/rtlil"
)

func TestAllRecipesGenerateValidModules(t *testing.T) {
	for _, r := range Recipes() {
		m := Generate(r, 0.05)
		if err := m.Validate(); err != nil {
			t.Errorf("%s: invalid module: %v", r.Name, err)
		}
		if m.NumCells() == 0 {
			t.Errorf("%s: empty module", r.Name)
		}
		if _, err := rtlil.TopoSort(m); err != nil {
			t.Errorf("%s: %v", r.Name, err)
		}
	}
	m := Generate(IndustrialRecipe(0), 0.02)
	if err := m.Validate(); err != nil {
		t.Errorf("industrial: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	r := Recipes()[0]
	a := Generate(r, 0.1)
	b := Generate(r, 0.1)
	sa, sb := rtlil.CollectStats(a), rtlil.CollectStats(b)
	if sa.NumCells != sb.NumCells || sa.NumWires != sb.NumWires {
		t.Errorf("same seed produced different shapes: %+v vs %+v", sa, sb)
	}
	r2 := r
	r2.Seed++
	c := Generate(r2, 0.1)
	if rtlil.CollectStats(c).NumCells == sa.NumCells {
		t.Log("different seed produced same cell count (possible but unusual)")
	}
}

func TestScaleGrowsModule(t *testing.T) {
	r := Recipes()[0]
	small := rtlil.CollectStats(Generate(r, 0.05)).NumCells
	big := rtlil.CollectStats(Generate(r, 0.2)).NumCells
	if big <= small {
		t.Errorf("scale 0.2 (%d cells) not larger than 0.05 (%d cells)", big, small)
	}
}

// namedFlow returns a registered named flow (the core import registers
// them).
func namedFlow(t *testing.T, name string) *opt.Flow {
	t.Helper()
	f, err := opt.NamedFlow(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOptimizationPreservesEquivalence runs the full pipeline on small
// instances of several recipes and equivalence-checks the result — the
// guarantee the paper reports for all its results.
func TestOptimizationPreservesEquivalence(t *testing.T) {
	recipes := Recipes()
	picks := []int{0, 2, 9} // rebuild-heavy, SAT-heavy, mixed
	for _, i := range picks {
		r := recipes[i]
		m := Generate(r, 0.03)
		orig := m.Clone()
		if _, err := namedFlow(t, "full").Run(nil, m); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if err := cec.Check(orig, m, nil); err != nil {
			t.Errorf("%s: full pipeline broke equivalence: %v", r.Name, err)
		}
	}
}

// TestBlockClassBehaviour verifies each block class interacts with the
// pipelines as designed (the property the whole calibration rests on).
func TestBlockClassBehaviour(t *testing.T) {
	base := Recipe{
		Name: "probe", Seed: 5,
		CaseSelBits: [2]int{3, 4}, DataWidth: 6,
		PmuxFraction: 0.5, SparseTerminals: true,
	}
	area := func(m *rtlil.Module, flow string) int {
		w := m.Clone()
		if _, err := namedFlow(t, flow).Run(nil, w); err != nil {
			t.Fatal(err)
		}
		a, err := aig.Area(w)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	t.Run("redundant_blocks_removed_by_baseline", func(t *testing.T) {
		r := base
		r.RedundantBlocks = 20
		m := Generate(r, 1)
		orig, err := aig.Area(m)
		if err != nil {
			t.Fatal(err)
		}
		y := area(m, "yosys")
		if y*2 > orig {
			t.Errorf("baseline removed too little: %d -> %d", orig, y)
		}
	})

	t.Run("dep_blocks_need_sat", func(t *testing.T) {
		r := base
		r.DepBlocks = 20
		m := Generate(r, 1)
		y := area(m, "yosys")
		s := area(m, "sat")
		if s >= y {
			t.Errorf("SAT pipeline (%d) did not beat baseline (%d)", s, y)
		}
		reb := area(m, "rebuild")
		if reb < y*97/100 {
			t.Errorf("rebuild pipeline (%d) unexpectedly fired on dep blocks (baseline %d)", reb, y)
		}
	})

	t.Run("case_blocks_need_rebuild", func(t *testing.T) {
		r := base
		r.CaseBlocks = 20
		m := Generate(r, 1)
		y := area(m, "yosys")
		reb := area(m, "rebuild")
		if reb >= y {
			t.Errorf("rebuild pipeline (%d) did not beat baseline (%d)", reb, y)
		}
	})

	t.Run("plain_blocks_resist_everything", func(t *testing.T) {
		r := base
		r.PlainBlocks = 20
		m := Generate(r, 1)
		orig, err := aig.Area(m)
		if err != nil {
			t.Fatal(err)
		}
		f := area(m, "full")
		if f < orig*9/10 {
			t.Errorf("full pipeline removed >10%% of plain logic: %d -> %d", orig, f)
		}
	})
}
