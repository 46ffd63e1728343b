package smartly

import (
	"fmt"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/genbench"
	"repro/internal/rtlil"
	"repro/internal/verilog"
)

// Re-exported IR types: the facade's netlist vocabulary.
type (
	// Design is a collection of modules.
	Design = rtlil.Design
	// Module is a netlist of cells, wires and connections.
	Module = rtlil.Module
	// Cell is a word-level logic operator instance.
	Cell = rtlil.Cell
	// Wire is a named multi-bit net.
	Wire = rtlil.Wire
	// SigSpec is an LSB-first signal.
	SigSpec = rtlil.SigSpec
	// SigBit is one bit of a signal.
	SigBit = rtlil.SigBit
)

// NewDesign returns an empty design.
func NewDesign() *Design { return rtlil.NewDesign() }

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module { return rtlil.NewModule(name) }

// Const returns a width-bit constant signal.
func Const(value uint64, width int) SigSpec { return rtlil.Const(value, width) }

// ParseVerilog parses and elaborates Verilog source (the synthesizable
// subset: modules, assign, always @(*) / @(posedge), if/else,
// case/casez) into a netlist design.
func ParseVerilog(src string) (*Design, error) {
	f, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	return verilog.Elaborate(f)
}

// Hash returns the canonical content hash of the module (hex SHA-256).
// The hash identifies the logical netlist, not one serialization of it:
// modules that differ only in wire/cell insertion order, JSON key order
// or connection statement order hash identically, while any semantic
// change (names, widths, ports, cell types, parameters, connectivity)
// changes the hash. The serving layer keys its result cache by this
// hash; see internal/cache.
func Hash(m *Module) string { return rtlil.CanonicalHash(m) }

// HashDesign returns the canonical content hash of the whole design
// (module hashes combined in sorted name order).
func HashDesign(d *Design) string { return rtlil.CanonicalHashDesign(d) }

// Area maps the module to an And-Inverter Graph and returns the number
// of AND nodes reachable from its outputs — the paper's area metric
// (flip-flops excluded).
func Area(m *Module) (int, error) { return aig.Area(m) }

// CheckEquivalence proves two modules equivalent. Combinational
// modules use the SAT miter directly; when either side holds registers
// it proves sequential equivalence from the zero-reset state by
// k-induction (so register sweeps — removals, merges — verify instead
// of tripping an interface mismatch on the cut flip-flops). It returns
// nil when equivalent and a counterexample error when not.
func CheckEquivalence(a, b *Module) error {
	if a.StateBits() > 0 || b.StateBits() > 0 {
		return cec.CheckSequential(a, b, nil)
	}
	return cec.Check(a, b, nil)
}

// BenchmarkNames lists the public benchmark cases reproduced from the
// paper's Table II.
func BenchmarkNames() []string {
	var out []string
	for _, r := range genbench.Recipes() {
		out = append(out, r.Name)
	}
	return out
}

// GenerateBenchmark builds the named public benchmark substitute at the
// given scale (1.0 = calibrated size). It returns an error for unknown
// names; see BenchmarkNames.
func GenerateBenchmark(name string, scale float64) (*Module, error) {
	for _, r := range genbench.Recipes() {
		if r.Name == name {
			return genbench.Generate(r, scale), nil
		}
	}
	return nil, fmt.Errorf("smartly: unknown benchmark %q", name)
}

// GenerateIndustrial builds one industrial-style test point at the
// given scale (paper §IV-B).
func GenerateIndustrial(point int, scale float64) *Module {
	return genbench.Generate(genbench.IndustrialRecipe(point), scale)
}
