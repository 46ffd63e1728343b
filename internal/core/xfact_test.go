package core

import (
	"testing"

	"repro/internal/opt"
	"repro/internal/rtlil"
	"repro/internal/verilog"
)

// staleXSource selects two muxes by the constant x. The walk enters
// o1's B child, the mux driving c1, under the fact x=1; o2's mux sits in
// another tree, so that fact must be gone when the walk reaches it. The
// AIG mapping and cec read x as 0: collapsing o2's mux to b2 changes o2.
const staleXSource = `
module stalex(input a, input c, input d, input y, input a2, input b2, output o1, output o2);
  wire c1;
  assign c1 = y ? d : c;
  assign o1 = 1'bx ? c1 : a;
  assign o2 = 1'bx ? b2 : a2;
endmodule
`

// staleXModule elaborates staleXSource.
func staleXModule(t *testing.T) *rtlil.Module {
	t.Helper()
	f, err := verilog.Parse(staleXSource)
	if err != nil {
		t.Fatal(err)
	}
	m, err := verilog.ElaborateModule(f.Modules[0])
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSatMuxXFactScoped: a path fact on the constant x bit ends with the
// subtree that pushed it, so no oracle query in another tree sees it.
func TestSatMuxXFactScoped(t *testing.T) {
	m := staleXModule(t)
	orig := m.Clone()
	if _, err := (&SatMuxPass{}).Run(opt.Background(), m); err != nil {
		t.Fatal(err)
	}
	ix := rtlil.NewIndex(m)
	if d := ix.DriverCell(m.Wire("o2").Bit(0)); d == nil || d.Type != rtlil.CellMux {
		t.Error("o2's mux collapsed under a fact from o1's tree")
	}
	checkEquiv(t, orig, m)
}
