package verilog

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rtlil"
	"repro/internal/sim"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("module m; // comment\n wire [3:0] a; assign a = 4'b1x0z; endmodule")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if kinds[0] != TokKeyword || texts[0] != "module" {
		t.Errorf("first token: %v %q", kinds[0], texts[0])
	}
	found := false
	for _, s := range texts {
		if s == "4'b1x0z" {
			found = true
		}
	}
	if !found {
		t.Error("sized literal not lexed as one token")
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("/* multi \n line */ wire // eol\n x;")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // wire, x, ;, EOF
		t.Errorf("tokens = %d, want 4: %v", len(toks), toks)
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Error("unterminated comment accepted")
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, _ := Lex("a\nb\n  c")
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[2].Line != 3 || toks[2].Col != 3 {
		t.Errorf("positions wrong: %v", toks[:3])
	}
}

// escapedIdentModule and nonASCIIModule are two modules outside the
// subset: an escaped identifier and a UTF-8 letter in a name. Lex used
// to accept their first byte as an identifier start but not as an
// identifier part, and appended empty tokens without end.
const (
	escapedIdentModule = "module m(input a, input b, output y);\n" +
		"  // the escaped name below is not part of the subset\n" +
		"  wire \\w[3] ;\n" +
		"  assign \\w[3]  = a & b;\n" +
		"  assign y = \\w[3] ;\n" +
		"endmodule\n"
	nonASCIIModule = "module m(input a, output y);\n  wire caf\u00e9;\n  assign y = a;\nendmodule\n"
)

// TestLexRejectsEscapedAndNonASCII: both modules are errors that name
// the offending byte's line and column, from Lex and from Parse.
func TestLexRejectsEscapedAndNonASCII(t *testing.T) {
	for _, tc := range []struct {
		src, want string
	}{
		{escapedIdentModule, "verilog:3:8: escaped identifiers"},
		{nonASCIIModule, "verilog:2:11: non-ASCII byte 0xc3"},
		{"\\", "verilog:1:1: escaped"},
		{"\xe9", "verilog:1:1: non-ASCII byte 0xe9"},
	} {
		if _, err := Lex(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Lex(%q) error %v, want one containing %q", tc.src, err, tc.want)
		}
		if _, err := Parse(tc.src); err == nil {
			t.Errorf("Parse(%q) accepted", tc.src)
		}
	}
	// Inside comments and strings any byte is fine.
	if _, err := Lex("// caf\u00e9 \\x\n/* \\ \u00e9 */ \"\u00e9\" x"); err != nil {
		t.Errorf("non-ASCII in a comment or string: %v", err)
	}
}

// TestWidthLimit: ranges, sized literals, replications and
// concatenations up to 4096 bits elaborate; one bit more is an error.
func TestWidthLimit(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{"wire [4095:0] w; assign y = w[0];", true},
		{"wire [4096:0] w; assign y = w[0];", false},
		{"wire [9223372036854775807:-9223372036854775808] w; assign y = w[0];", false},
		{"assign y = 4096'h1 == 4096'h1;", true},
		{"assign y = 4097'h1 == 4097'h1;", false},
		{"assign y = 99999999999999999999'h1 == 1;", false},
		{"assign y = {4096{a}} == 0;", true},
		{"assign y = {2{{2049{a}}}} == 0;", false},
		{"wire [2047:0] w; assign y = {w, w} == 0;", true},
		{"wire [2047:0] w; assign y = {w, w, a} == 0;", false},
	} {
		src := "module m(input a, output y); " + tc.body + " endmodule"
		f, err := Parse(src)
		if err == nil {
			_, err = Elaborate(f)
		}
		if (err == nil) != tc.ok {
			t.Errorf("%q: error %v, want ok=%v", tc.body, err, tc.ok)
		}
	}
}

func elab(t *testing.T, src string) *rtlil.Module {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(f)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Top()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// evalModule evaluates the module's outputs for the given input values.
func evalModule(t *testing.T, m *rtlil.Module, inputs map[string]uint64) map[string]uint64 {
	t.Helper()
	s, err := sim.NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	in := map[rtlil.SigBit]rtlil.State{}
	for name, val := range inputs {
		w := m.Wire(name)
		if w == nil {
			t.Fatalf("no wire %s", name)
		}
		for i := 0; i < w.Width; i++ {
			in[w.Bit(i)] = rtlil.BoolState((val>>uint(i))&1 == 1)
		}
	}
	vals, err := s.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for _, w := range m.Outputs() {
		states := s.EvalSig(vals, w.Bits())
		var v uint64
		for i, st := range states {
			if st == rtlil.Sx || st == rtlil.Sz {
				t.Fatalf("output %s bit %d undefined", w.Name, i)
			}
			if st == rtlil.S1 {
				v |= 1 << uint(i)
			}
		}
		out[w.Name] = v
	}
	return out
}

func TestSimpleAssign(t *testing.T) {
	m := elab(t, `
module top(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = (a & b) | ~a;
endmodule`)
	for _, c := range []struct{ a, b, want uint64 }{
		{0b1100, 0b1010, (0b1100 & 0b1010) | (^uint64(0b1100) & 0xf)},
		{0, 0xf, 0xf},
	} {
		got := evalModule(t, m, map[string]uint64{"a": c.a, "b": c.b})
		if got["y"] != c.want {
			t.Errorf("a=%b b=%b: y=%b want %b", c.a, c.b, got["y"], c.want)
		}
	}
}

func TestOperators(t *testing.T) {
	m := elab(t, `
module top(input [7:0] a, input [7:0] b, output [7:0] sum,
           output [7:0] diff, output lt, output eq, output [7:0] sh,
           output red, output [7:0] mux);
  assign sum = a + b;
  assign diff = a - b;
  assign lt = a < b;
  assign eq = a == b;
  assign sh = a << b[1:0];
  assign red = |a & ^b;
  assign mux = (a > b) ? a : b;
endmodule`)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		a, b := rng.Uint64()&0xff, rng.Uint64()&0xff
		got := evalModule(t, m, map[string]uint64{"a": a, "b": b})
		check := func(name string, want uint64) {
			if got[name] != want {
				t.Errorf("a=%#x b=%#x: %s=%#x want %#x", a, b, name, got[name], want)
			}
		}
		check("sum", (a+b)&0xff)
		check("diff", (a-b)&0xff)
		check("lt", b2u(a < b))
		check("eq", b2u(a == b))
		check("sh", (a<<(b&3))&0xff)
		red := uint64(0)
		if a != 0 {
			red = 1
		}
		check("red", red&parity(b))
		mx := b
		if a > b {
			mx = a
		}
		check("mux", mx)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func parity(v uint64) uint64 {
	var p uint64
	for ; v != 0; v >>= 1 {
		p ^= v & 1
	}
	return p
}

func TestConcatSliceRepeat(t *testing.T) {
	m := elab(t, `
module top(input [7:0] a, output [7:0] y, output [5:0] z, output [3:0] r);
  assign y = {a[3:0], a[7:4]};
  assign z = {a[0], a[1], {2{a[2]}}, 2'b10};
  assign r = {4{a[7]}};
endmodule`)
	got := evalModule(t, m, map[string]uint64{"a": 0b10110100})
	if got["y"] != 0b01001011 {
		t.Errorf("y = %08b, want 01001011", got["y"])
	}
	// z = {a[0]=0, a[1]=0, a[2]=1, a[2]=1, 1, 0} = 001110
	if got["z"] != 0b001110 {
		t.Errorf("z = %06b, want 001110", got["z"])
	}
	if got["r"] != 0b1111 {
		t.Errorf("r = %04b, want 1111", got["r"])
	}
}

func TestNonZeroLSBRange(t *testing.T) {
	m := elab(t, `
module top(input [11:4] a, output [3:0] y, output b);
  assign y = a[7:4];
  assign b = a[11];
endmodule`)
	got := evalModule(t, m, map[string]uint64{"a": 0b10010110})
	if got["y"] != 0b0110 {
		t.Errorf("y = %04b, want 0110", got["y"])
	}
	if got["b"] != 1 {
		t.Errorf("b = %d, want 1", got["b"])
	}
}

func TestParameters(t *testing.T) {
	m := elab(t, `
module top #(parameter W = 8, parameter HALF = W/2) (input [W-1:0] a, output [HALF-1:0] y);
  assign y = a[HALF-1:0];
endmodule`)
	if m.Wire("a").Width != 8 || m.Wire("y").Width != 4 {
		t.Errorf("widths a=%d y=%d", m.Wire("a").Width, m.Wire("y").Width)
	}
}

func TestCombAlwaysIfElse(t *testing.T) {
	m := elab(t, `
module top(input [3:0] a, input [3:0] b, input s, output reg [3:0] y);
  always @(*) begin
    if (s)
      y = a;
    else
      y = b;
  end
endmodule`)
	if got := evalModule(t, m, map[string]uint64{"a": 5, "b": 9, "s": 1}); got["y"] != 5 {
		t.Errorf("s=1: y=%d", got["y"])
	}
	if got := evalModule(t, m, map[string]uint64{"a": 5, "b": 9, "s": 0}); got["y"] != 9 {
		t.Errorf("s=0: y=%d", got["y"])
	}
	// The lowering must produce a mux.
	muxes := 0
	for _, c := range m.Cells() {
		if c.Type == rtlil.CellMux {
			muxes++
		}
	}
	if muxes != 1 {
		t.Errorf("muxes = %d, want 1", muxes)
	}
}

func TestCombAlwaysDefaultThenIf(t *testing.T) {
	m := elab(t, `
module top(input [3:0] a, input s, output reg [3:0] y);
  always @(*) begin
    y = 4'd0;
    if (s) y = a;
  end
endmodule`)
	if got := evalModule(t, m, map[string]uint64{"a": 7, "s": 0}); got["y"] != 0 {
		t.Errorf("y=%d, want 0", got["y"])
	}
	if got := evalModule(t, m, map[string]uint64{"a": 7, "s": 1}); got["y"] != 7 {
		t.Errorf("y=%d, want 7", got["y"])
	}
}

func TestLatchRejected(t *testing.T) {
	src := `
module top(input [3:0] a, input s, output reg [3:0] y);
  always @(*) begin
    if (s) y = a;
  end
endmodule`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Elaborate(f); err == nil || !strings.Contains(err.Error(), "latch") {
		t.Errorf("latch not rejected: %v", err)
	}
}

// TestListing1 elaborates the paper's Listing 1 case statement and
// verifies pmux lowering plus functional behaviour.
func TestListing1(t *testing.T) {
	m := elab(t, `
module top(input [1:0] s, input [3:0] p0, input [3:0] p1,
           input [3:0] p2, input [3:0] p3, output reg [3:0] y);
  always @(*) begin
    case (s)
      2'b00: y = p0;
      2'b01: y = p1;
      2'b10: y = p2;
      default: y = p3;
    endcase
  end
endmodule`)
	pm := 0
	eqs := 0
	for _, c := range m.Cells() {
		switch c.Type {
		case rtlil.CellPmux:
			pm++
		case rtlil.CellEq:
			eqs++
		}
	}
	if pm != 1 || eqs != 3 {
		t.Errorf("cells: %d pmux (want 1), %d eq (want 3)", pm, eqs)
	}
	in := map[string]uint64{"p0": 1, "p1": 2, "p2": 3, "p3": 4}
	for s, want := range map[uint64]uint64{0: 1, 1: 2, 2: 3, 3: 4} {
		in["s"] = s
		if got := evalModule(t, m, in); got["y"] != want {
			t.Errorf("s=%d: y=%d want %d", s, got["y"], want)
		}
	}
}

// TestListing2 elaborates the paper's Listing 2 casez statement.
func TestListing2(t *testing.T) {
	m := elab(t, `
module top(input [2:0] s, input [1:0] p0, input [1:0] p1,
           input [1:0] p2, input [1:0] p3, output reg [1:0] y);
  always @(*) begin
    casez (s)
      3'b1zz: y = p0;
      3'b01z: y = p1;
      3'b001: y = p2;
      default: y = p3;
    endcase
  end
endmodule`)
	in := map[string]uint64{"p0": 0, "p1": 1, "p2": 2, "p3": 3}
	for s := uint64(0); s < 8; s++ {
		in["s"] = s
		var want uint64
		switch {
		case s >= 4:
			want = 0
		case s >= 2:
			want = 1
		case s == 1:
			want = 2
		default:
			want = 3
		}
		if got := evalModule(t, m, in); got["y"] != want {
			t.Errorf("s=%03b: y=%d want %d", s, got["y"], want)
		}
	}
}

func TestCasePriorityOverlap(t *testing.T) {
	// Overlapping casez patterns: first match must win.
	m := elab(t, `
module top(input [1:0] s, output reg [3:0] y);
  always @(*) begin
    casez (s)
      2'b1z: y = 4'd1;
      2'bz1: y = 4'd2;
      default: y = 4'd3;
    endcase
  end
endmodule`)
	for s, want := range map[uint64]uint64{0b10: 1, 0b11: 1, 0b01: 2, 0b00: 3} {
		if got := evalModule(t, m, map[string]uint64{"s": s}); got["y"] != want {
			t.Errorf("s=%02b: y=%d want %d", s, got["y"], want)
		}
	}
}

func TestSequentialAlways(t *testing.T) {
	m := elab(t, `
module top(input clk, input en, input [3:0] d, output reg [3:0] q);
  always @(posedge clk) begin
    if (en) q <= d;
  end
endmodule`)
	var ff *rtlil.Cell
	for _, c := range m.Cells() {
		if c.Type == rtlil.CellDff {
			ff = c
		}
	}
	if ff == nil {
		t.Fatal("no dff")
	}
	// The hold path must mux Q back into D.
	s, err := sim.NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	qw := m.Wire("q")
	in := map[rtlil.SigBit]rtlil.State{}
	set := func(name string, val uint64) {
		w := m.Wire(name)
		for i := 0; i < w.Width; i++ {
			in[w.Bit(i)] = rtlil.BoolState((val>>uint(i))&1 == 1)
		}
	}
	set("en", 0)
	set("d", 5)
	set("q", 9)
	vals, err := s.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	d := s.EvalSig(vals, ff.Port("D"))
	var dv uint64
	for i, st := range d {
		if st == rtlil.S1 {
			dv |= 1 << uint(i)
		}
	}
	if dv != 9 {
		t.Errorf("hold: D=%d, want held q=9", dv)
	}
	set("en", 1)
	vals, _ = s.Eval(in)
	d = s.EvalSig(vals, ff.Port("D"))
	dv = 0
	for i, st := range d {
		if st == rtlil.S1 {
			dv |= 1 << uint(i)
		}
	}
	if dv != 5 {
		t.Errorf("load: D=%d, want 5", dv)
	}
	_ = qw
}

func TestPartialBitAssign(t *testing.T) {
	m := elab(t, `
module top(input [3:0] a, input s, output reg [3:0] y);
  always @(*) begin
    y = 4'b0000;
    y[1:0] = a[3:2];
    if (s) y[3] = 1'b1;
  end
endmodule`)
	if got := evalModule(t, m, map[string]uint64{"a": 0b1100, "s": 0}); got["y"] != 0b0011 {
		t.Errorf("y=%04b, want 0011", got["y"])
	}
	if got := evalModule(t, m, map[string]uint64{"a": 0b1100, "s": 1}); got["y"] != 0b1011 {
		t.Errorf("y=%04b, want 1011", got["y"])
	}
}

func TestVariableIndex(t *testing.T) {
	m := elab(t, `
module top(input [7:0] a, input [2:0] i, output y);
  assign y = a[i];
endmodule`)
	for i := uint64(0); i < 8; i++ {
		a := uint64(0b10110010)
		got := evalModule(t, m, map[string]uint64{"a": a, "i": i})
		if got["y"] != (a>>i)&1 {
			t.Errorf("i=%d: y=%d want %d", i, got["y"], (a>>i)&1)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"wire x;",                     // no module
		"module m(; endmodule",        // bad port list
		"module m(); wire; endmodule", // missing name
		"module m(); assign ; endmodule",
		"module m(); always @(*) z; endmodule",
		"module m(); case endmodule",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted: %q", src)
		}
	}
}

func TestElabErrors(t *testing.T) {
	for _, src := range []string{
		`module m(input a, output y); assign y = b; endmodule`,          // undeclared
		`module m(input a, output y); assign y = a[5]; endmodule`,       // out of range
		`module m(p); wire p; assign p = 1'b0; endmodule`,               // port without direction
		`module m(input [0:3] a, output y); assign y = a[0]; endmodule`, // descending range
	} {
		f, err := Parse(src)
		if err != nil {
			continue // parse error also acceptable
		}
		if _, err := Elaborate(f); err == nil {
			t.Errorf("elaborated: %q", src)
		}
	}
}

func TestClassicPortStyle(t *testing.T) {
	m := elab(t, `
module top(a, b, y);
  input [1:0] a;
  input [1:0] b;
  output [1:0] y;
  assign y = a ^ b;
endmodule`)
	if len(m.Inputs()) != 2 || len(m.Outputs()) != 1 {
		t.Errorf("ports: %d in %d out", len(m.Inputs()), len(m.Outputs()))
	}
	if got := evalModule(t, m, map[string]uint64{"a": 2, "b": 3}); got["y"] != 1 {
		t.Errorf("y=%d", got["y"])
	}
}
