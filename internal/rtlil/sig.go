package rtlil

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// State is a four-state logic value as used in Verilog simulation semantics.
type State uint8

// The four logic states. Sz (high impedance) is treated as Sx (unknown) by
// all combinational evaluation in this repository.
const (
	S0 State = iota // logic zero
	S1              // logic one
	Sx              // unknown
	Sz              // high impedance
)

// String returns the single-character Verilog spelling of the state.
func (s State) String() string {
	switch s {
	case S0:
		return "0"
	case S1:
		return "1"
	case Sx:
		return "x"
	case Sz:
		return "z"
	}
	return "?"
}

// Bool reports the two-valued interpretation of the state. known is false
// for Sx and Sz.
func (s State) Bool() (value, known bool) {
	switch s {
	case S0:
		return false, true
	case S1:
		return true, true
	}
	return false, false
}

// BoolState converts a Go bool to S0/S1.
func BoolState(v bool) State {
	if v {
		return S1
	}
	return S0
}

// SigBit is a single bit of a signal: either bit Offset of Wire, or, when
// Wire is nil, the constant Const. SigBit values are comparable and are
// used directly as map keys throughout the code base.
type SigBit struct {
	Wire   *Wire
	Offset int
	Const  State
}

// ConstBit returns a constant SigBit holding s.
func ConstBit(s State) SigBit { return SigBit{Const: s} }

// IsConst reports whether the bit is a constant (not backed by a wire).
func (b SigBit) IsConst() bool { return b.Wire == nil }

// String renders the bit as "wire[off]" or the constant state.
func (b SigBit) String() string {
	if b.Wire == nil {
		return b.Const.String()
	}
	if b.Wire.Width == 1 && b.Offset == 0 {
		return b.Wire.Name
	}
	return fmt.Sprintf("%s[%d]", b.Wire.Name, b.Offset)
}

// SigSpec is a signal: an ordered, LSB-first slice of bits. Index 0 is the
// least significant bit, matching Yosys conventions.
type SigSpec []SigBit

// Const returns a width-bit constant SigSpec holding the unsigned value.
// Bits beyond 64 are zero.
func Const(value uint64, width int) SigSpec {
	s := make(SigSpec, width)
	for i := 0; i < width; i++ {
		if i < 64 && (value>>uint(i))&1 == 1 {
			s[i] = ConstBit(S1)
		} else {
			s[i] = ConstBit(S0)
		}
	}
	return s
}

// ConstBits builds a constant SigSpec from explicit states, given LSB first.
func ConstBits(states ...State) SigSpec {
	s := make(SigSpec, len(states))
	for i, st := range states {
		s[i] = ConstBit(st)
	}
	return s
}

// ParseConst parses a Verilog-style sized literal such as "3'b1zz",
// "8'hff", "4'd9" or a plain decimal "42" (32 bits). The returned SigSpec
// is LSB first.
func ParseConst(lit string) (SigSpec, error) {
	lit = strings.ReplaceAll(lit, "_", "")
	tick := strings.IndexByte(lit, '\'')
	if tick < 0 {
		v, err := strconv.ParseUint(lit, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("rtlil: bad constant %q: %w", lit, err)
		}
		return Const(v, 32), nil
	}
	width := 32
	if tick > 0 {
		w, err := strconv.Atoi(lit[:tick])
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("rtlil: bad constant width in %q", lit)
		}
		width = w
	}
	if tick+1 >= len(lit) {
		return nil, fmt.Errorf("rtlil: truncated constant %q", lit)
	}
	base := lit[tick+1]
	digits := lit[tick+2:]
	if digits == "" {
		return nil, fmt.Errorf("rtlil: constant %q has no digits", lit)
	}
	var bits []State // MSB first while building
	push := func(val, n int, isX, isZ bool) {
		for i := n - 1; i >= 0; i-- {
			switch {
			case isX:
				bits = append(bits, Sx)
			case isZ:
				bits = append(bits, Sz)
			case (val>>uint(i))&1 == 1:
				bits = append(bits, S1)
			default:
				bits = append(bits, S0)
			}
		}
	}
	switch base {
	case 'b', 'B':
		for _, c := range digits {
			switch c {
			case '0':
				push(0, 1, false, false)
			case '1':
				push(1, 1, false, false)
			case 'x', 'X':
				push(0, 1, true, false)
			case 'z', 'Z', '?':
				push(0, 1, false, true)
			default:
				return nil, fmt.Errorf("rtlil: bad binary digit %q in %q", c, lit)
			}
		}
	case 'h', 'H':
		for _, c := range digits {
			switch {
			case c >= '0' && c <= '9':
				push(int(c-'0'), 4, false, false)
			case c >= 'a' && c <= 'f':
				push(int(c-'a')+10, 4, false, false)
			case c >= 'A' && c <= 'F':
				push(int(c-'A')+10, 4, false, false)
			case c == 'x' || c == 'X':
				push(0, 4, true, false)
			case c == 'z' || c == 'Z' || c == '?':
				push(0, 4, false, true)
			default:
				return nil, fmt.Errorf("rtlil: bad hex digit %q in %q", c, lit)
			}
		}
	case 'o', 'O':
		for _, c := range digits {
			switch {
			case c >= '0' && c <= '7':
				push(int(c-'0'), 3, false, false)
			case c == 'x' || c == 'X':
				push(0, 3, true, false)
			case c == 'z' || c == 'Z' || c == '?':
				push(0, 3, false, true)
			default:
				return nil, fmt.Errorf("rtlil: bad octal digit %q in %q", c, lit)
			}
		}
	case 'd', 'D':
		v, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("rtlil: bad decimal constant %q: %w", lit, err)
		}
		return Const(v, width), nil
	default:
		return nil, fmt.Errorf("rtlil: unknown base %q in %q", base, lit)
	}
	// bits is MSB first; reverse into LSB-first and size to width.
	s := make(SigSpec, len(bits))
	for i, st := range bits {
		s[len(bits)-1-i] = st.asBit()
	}
	return s.Resize(width, false), nil
}

func (s State) asBit() SigBit { return ConstBit(s) }

// Width returns the number of bits in the signal.
func (s SigSpec) Width() int { return len(s) }

// Extract returns the sub-signal of length n starting at bit offset off.
func (s SigSpec) Extract(off, n int) SigSpec {
	if off < 0 || n < 0 || off+n > len(s) {
		panic(fmt.Sprintf("rtlil: Extract(%d, %d) out of range for width %d", off, n, len(s)))
	}
	return s[off : off+n : off+n]
}

// Concat concatenates parts LSB-first: parts[0] supplies the least
// significant bits of the result.
func Concat(parts ...SigSpec) SigSpec {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make(SigSpec, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Repeat returns the signal repeated n times (LSB-first replication).
func (s SigSpec) Repeat(n int) SigSpec {
	out := make(SigSpec, 0, n*len(s))
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return out
}

// IsFullyConst reports whether every bit of the signal is a constant.
func (s SigSpec) IsFullyConst() bool {
	for _, b := range s {
		if !b.IsConst() {
			return false
		}
	}
	return true
}

// IsFullyDefined reports whether every bit is a constant S0 or S1.
func (s SigSpec) IsFullyDefined() bool {
	for _, b := range s {
		if !b.IsConst() || (b.Const != S0 && b.Const != S1) {
			return false
		}
	}
	return true
}

// HasConst reports whether any bit of the signal is a constant.
func (s SigSpec) HasConst() bool {
	for _, b := range s {
		if b.IsConst() {
			return true
		}
	}
	return false
}

// AsUint64 interprets a fully-defined constant signal as an unsigned
// integer. ok is false if the signal is not fully defined or wider than 64
// bits with high bits set.
func (s SigSpec) AsUint64() (v uint64, ok bool) {
	if !s.IsFullyDefined() {
		return 0, false
	}
	for i, b := range s {
		if b.Const == S1 {
			if i >= 64 {
				return 0, false
			}
			v |= 1 << uint(i)
		}
	}
	return v, true
}

// Resize zero- or sign-extends (or truncates) the signal to width bits.
func (s SigSpec) Resize(width int, signed bool) SigSpec {
	if len(s) == width {
		return s
	}
	if len(s) > width {
		return s.Extract(0, width)
	}
	out := make(SigSpec, width)
	copy(out, s)
	pad := ConstBit(S0)
	if signed && len(s) > 0 {
		pad = s[len(s)-1]
	}
	for i := len(s); i < width; i++ {
		out[i] = pad
	}
	return out
}

// Equal reports whether two signals are bit-for-bit identical.
func (s SigSpec) Equal(t SigSpec) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Copy returns a fresh slice with the same bits.
func (s SigSpec) Copy() SigSpec {
	out := make(SigSpec, len(s))
	copy(out, s)
	return out
}

// String renders the signal. Constant runs are grouped into Verilog-style
// literals; wire runs are grouped into part selects; mixed signals are
// rendered as a concatenation (MSB first, as in Verilog).
func (s SigSpec) String() string {
	if len(s) == 0 {
		return "{}"
	}
	if s.IsFullyConst() {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d'b", len(s))
		for i := len(s) - 1; i >= 0; i-- {
			sb.WriteString(s[i].Const.String())
		}
		return sb.String()
	}
	// Group maximal chunks.
	type chunk struct {
		first SigBit
		n     int
	}
	var chunks []chunk
	for _, b := range s {
		if n := len(chunks); n > 0 {
			c := &chunks[n-1]
			if b.Wire != nil && b.Wire == c.first.Wire && b.Offset == c.first.Offset+c.n {
				c.n++
				continue
			}
			if b.Wire == nil && c.first.Wire == nil && b.Const == c.first.Const {
				c.n++
				continue
			}
		}
		chunks = append(chunks, chunk{b, 1})
	}
	render := func(c chunk) string {
		if c.first.Wire == nil {
			return fmt.Sprintf("%d'b%s", c.n, strings.Repeat(c.first.Const.String(), c.n))
		}
		w := c.first.Wire
		if c.n == w.Width && c.first.Offset == 0 {
			return w.Name
		}
		if c.n == 1 {
			return fmt.Sprintf("%s[%d]", w.Name, c.first.Offset)
		}
		return fmt.Sprintf("%s[%d:%d]", w.Name, c.first.Offset+c.n-1, c.first.Offset)
	}
	if len(chunks) == 1 {
		return render(chunks[0])
	}
	parts := make([]string, len(chunks))
	for i, c := range chunks {
		parts[len(chunks)-1-i] = render(c) // MSB first
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ErrWidthMismatch is returned by operations requiring equal signal widths.
var ErrWidthMismatch = errors.New("rtlil: signal width mismatch")
