// Package sim provides two simulation semantics for the rtlil cell
// library:
//
//   - Four-state (0/1/x/z): EvalCell evaluates one cell, Simulator a
//     whole module. It is deliberately *sound for optimization*: when an
//     input bit is unknown (x), the produced output is either x or a
//     value that holds for every two-valued completion of the unknowns.
//     Passes may therefore fold any defined output bit to a constant.
//   - Two-valued, 64 lanes per word: Cone compiles a cell slice into a
//     slot-indexed evaluator with the AIG lowering's semantics, the view
//     of a netlist that SAT, cec and aig.Area share. Parallel (a whole
//     module) and Sequential (clocked, from reset) run on one Cone.
//
// The two agree wherever the four-state result is defined on defined
// inputs. They differ only on bits EvalCell leaves x: two active $pmux
// selects, a zero divisor, and multiply or divide operands wider than
// 64 bits.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rtlil"
)

func norm(s rtlil.State) rtlil.State {
	if s == rtlil.Sz {
		return rtlil.Sx
	}
	return s
}

// Not3 is three-valued NOT (z is treated as x).
func Not3(a rtlil.State) rtlil.State {
	switch norm(a) {
	case rtlil.S0:
		return rtlil.S1
	case rtlil.S1:
		return rtlil.S0
	}
	return rtlil.Sx
}

// And3 is three-valued AND.
func And3(a, b rtlil.State) rtlil.State {
	a, b = norm(a), norm(b)
	if a == rtlil.S0 || b == rtlil.S0 {
		return rtlil.S0
	}
	if a == rtlil.S1 && b == rtlil.S1 {
		return rtlil.S1
	}
	return rtlil.Sx
}

// Or3 is three-valued OR.
func Or3(a, b rtlil.State) rtlil.State {
	a, b = norm(a), norm(b)
	if a == rtlil.S1 || b == rtlil.S1 {
		return rtlil.S1
	}
	if a == rtlil.S0 && b == rtlil.S0 {
		return rtlil.S0
	}
	return rtlil.Sx
}

// Xor3 is three-valued XOR.
func Xor3(a, b rtlil.State) rtlil.State {
	a, b = norm(a), norm(b)
	if a == rtlil.Sx || b == rtlil.Sx {
		return rtlil.Sx
	}
	if a != b {
		return rtlil.S1
	}
	return rtlil.S0
}

// Mux3 returns s ? b : a with three-valued select: when s is unknown the
// result is known only where a and b agree on a defined value.
func Mux3(a, b, s rtlil.State) rtlil.State {
	switch norm(s) {
	case rtlil.S0:
		return norm(a)
	case rtlil.S1:
		return norm(b)
	}
	a, b = norm(a), norm(b)
	if a == b && a != rtlil.Sx {
		return a
	}
	return rtlil.Sx
}

func resize3(v []rtlil.State, width int) []rtlil.State {
	if len(v) == width {
		return v
	}
	out := make([]rtlil.State, width)
	for i := range out {
		if i < len(v) {
			out[i] = norm(v[i])
		} else {
			out[i] = rtlil.S0
		}
	}
	return out
}

func allX(width int) []rtlil.State {
	out := make([]rtlil.State, width)
	for i := range out {
		out[i] = rtlil.Sx
	}
	return out
}

func reduceAnd(v []rtlil.State) rtlil.State {
	r := rtlil.S1
	for _, s := range v {
		r = And3(r, s)
	}
	return r
}

func reduceOr(v []rtlil.State) rtlil.State {
	r := rtlil.S0
	for _, s := range v {
		r = Or3(r, s)
	}
	return r
}

func reduceXor(v []rtlil.State) rtlil.State {
	r := rtlil.S0
	for _, s := range v {
		r = Xor3(r, s)
	}
	return r
}

// add3 computes a + b + cin over equal-width three-valued vectors.
func add3(a, b []rtlil.State, cin rtlil.State) []rtlil.State {
	out := make([]rtlil.State, len(a))
	c := cin
	for i := range a {
		x, y := norm(a[i]), norm(b[i])
		out[i] = Xor3(Xor3(x, y), c)
		// Majority of x, y, c.
		c = Or3(Or3(And3(x, y), And3(x, c)), And3(y, c))
	}
	return out
}

func not3vec(a []rtlil.State) []rtlil.State {
	out := make([]rtlil.State, len(a))
	for i, s := range a {
		out[i] = Not3(s)
	}
	return out
}

func defined(v []rtlil.State) bool {
	for _, s := range v {
		if norm(s) == rtlil.Sx {
			return false
		}
	}
	return true
}

func toUint(v []rtlil.State) uint64 {
	var r uint64
	for i, s := range v {
		if i >= 64 {
			break
		}
		if s == rtlil.S1 {
			r |= 1 << uint(i)
		}
	}
	return r
}

func fromUint(v uint64, width int) []rtlil.State {
	out := make([]rtlil.State, width)
	for i := range out {
		if i < 64 && (v>>uint(i))&1 == 1 {
			out[i] = rtlil.S1
		} else {
			out[i] = rtlil.S0
		}
	}
	return out
}

// bounds returns the minimum and maximum unsigned value a three-valued
// vector can take over all completions of its x bits (width ≤ 64).
func bounds(v []rtlil.State) (lo, hi uint64) {
	for i, s := range v {
		if i >= 64 {
			break
		}
		switch norm(s) {
		case rtlil.S1:
			lo |= 1 << uint(i)
			hi |= 1 << uint(i)
		case rtlil.Sx:
			hi |= 1 << uint(i)
		}
	}
	return lo, hi
}

// eq3 implements the sound equality rule: a definite bitwise mismatch
// forces 0 even in the presence of other unknown bits; a fully-defined
// match yields 1; anything else is x.
func eq3(a, b []rtlil.State) rtlil.State {
	anyX := false
	for i := range a {
		x, y := norm(a[i]), norm(b[i])
		if x == rtlil.Sx || y == rtlil.Sx {
			anyX = true
			continue
		}
		if x != y {
			return rtlil.S0
		}
	}
	if anyX {
		return rtlil.Sx
	}
	return rtlil.S1
}

// cmp3 evaluates an unsigned comparison with interval reasoning so that
// results determined by the defined bits alone are still produced.
func cmp3(t rtlil.CellType, a, b []rtlil.State) rtlil.State {
	if len(a) > 64 || len(b) > 64 {
		if defined(a) && defined(b) {
			// Fall back to lexicographic comparison MSB-down.
			for i := len(a) - 1; i >= 0; i-- {
				x, y := a[i], b[i]
				if x != y {
					less := x == rtlil.S0
					switch t {
					case rtlil.CellLt, rtlil.CellLe:
						return rtlil.BoolState(less)
					case rtlil.CellGt, rtlil.CellGe:
						return rtlil.BoolState(!less)
					}
				}
			}
			switch t {
			case rtlil.CellLe, rtlil.CellGe:
				return rtlil.S1
			}
			return rtlil.S0
		}
		return rtlil.Sx
	}
	loA, hiA := bounds(a)
	loB, hiB := bounds(b)
	switch t {
	case rtlil.CellLt:
		if hiA < loB {
			return rtlil.S1
		}
		if loA >= hiB {
			return rtlil.S0
		}
	case rtlil.CellLe:
		if hiA <= loB {
			return rtlil.S1
		}
		if loA > hiB {
			return rtlil.S0
		}
	case rtlil.CellGt:
		if loA > hiB {
			return rtlil.S1
		}
		if hiA <= loB {
			return rtlil.S0
		}
	case rtlil.CellGe:
		if loA >= hiB {
			return rtlil.S1
		}
		if hiA < loB {
			return rtlil.S0
		}
	}
	return rtlil.Sx
}

// EvalCell evaluates one combinational cell over four-state inputs. in
// maps port names ("A", "B", "S") to LSB-first state vectors whose widths
// match the cell's connections. The returned vector has the width of the
// cell's output port. Calling EvalCell on a sequential cell is an error.
func EvalCell(c *rtlil.Cell, in map[string][]rtlil.State) ([]rtlil.State, error) {
	if rtlil.IsSequential(c.Type) {
		return nil, fmt.Errorf("sim: EvalCell on sequential cell %s", c.Name)
	}
	yw := len(c.Port("Y"))
	A := in["A"]
	B := in["B"]
	switch c.Type {
	case rtlil.CellNot:
		return not3vec(resize3(A, yw)), nil
	case rtlil.CellNeg:
		return add3(not3vec(resize3(A, yw)), fromUint(0, yw), rtlil.S1), nil
	case rtlil.CellReduceAnd:
		return []rtlil.State{reduceAnd(A)}, nil
	case rtlil.CellReduceOr:
		return []rtlil.State{reduceOr(A)}, nil
	case rtlil.CellReduceXor:
		return []rtlil.State{reduceXor(A)}, nil
	case rtlil.CellLogicNot:
		return []rtlil.State{Not3(reduceOr(A))}, nil

	case rtlil.CellAnd, rtlil.CellOr, rtlil.CellXor, rtlil.CellXnor:
		a, b := resize3(A, yw), resize3(B, yw)
		out := make([]rtlil.State, yw)
		for i := 0; i < yw; i++ {
			switch c.Type {
			case rtlil.CellAnd:
				out[i] = And3(a[i], b[i])
			case rtlil.CellOr:
				out[i] = Or3(a[i], b[i])
			case rtlil.CellXor:
				out[i] = Xor3(a[i], b[i])
			case rtlil.CellXnor:
				out[i] = Not3(Xor3(a[i], b[i]))
			}
		}
		return out, nil

	case rtlil.CellAdd:
		return add3(resize3(A, yw), resize3(B, yw), rtlil.S0), nil
	case rtlil.CellSub:
		return add3(resize3(A, yw), not3vec(resize3(B, yw)), rtlil.S1), nil
	case rtlil.CellMul:
		if defined(A) && defined(B) && len(A) <= 64 && len(B) <= 64 {
			// Exact: two operands of at most 64 bits multiply into at
			// most 128.
			hi, lo := bits.Mul64(toUint(A), toUint(B))
			out := fromUint(lo, yw)
			if yw > 64 {
				copy(out[64:], fromUint(hi, yw-64))
			}
			return out, nil
		}
		return allX(yw), nil
	case rtlil.CellDiv:
		if defined(A) && defined(B) && len(A) <= 64 && len(B) <= 64 {
			if toUint(B) == 0 {
				return allX(yw), nil
			}
			return fromUint(toUint(A)/toUint(B), yw), nil
		}
		return allX(yw), nil

	case rtlil.CellEq:
		return []rtlil.State{eq3(A, B)}, nil
	case rtlil.CellNe:
		return []rtlil.State{Not3(eq3(A, B))}, nil
	case rtlil.CellLt, rtlil.CellLe, rtlil.CellGt, rtlil.CellGe:
		return []rtlil.State{cmp3(c.Type, A, B)}, nil

	case rtlil.CellLogicAnd:
		return []rtlil.State{And3(reduceOr(A), reduceOr(B))}, nil
	case rtlil.CellLogicOr:
		return []rtlil.State{Or3(reduceOr(A), reduceOr(B))}, nil

	case rtlil.CellShl, rtlil.CellShr:
		if !defined(B) {
			return allX(yw), nil
		}
		sh := toUint(B)
		if len(B) > 64 && reduceOr(B[64:]) == rtlil.S1 {
			sh = math.MaxUint64 // a set amount bit at or above 64 shifts everything out
		}
		a := resize3(A, yw)
		out := fromUint(0, yw)
		if sh < uint64(yw) {
			n := int(sh)
			if c.Type == rtlil.CellShl {
				copy(out[n:], a[:yw-n])
			} else {
				copy(out[:yw-n], a[n:])
			}
		}
		return out, nil

	case rtlil.CellMux:
		s := in["S"][0]
		a, b := resize3(A, yw), resize3(B, yw)
		out := make([]rtlil.State, yw)
		for i := range out {
			out[i] = Mux3(a[i], b[i], s)
		}
		return out, nil

	case rtlil.CellPmux:
		return evalPmux(c, in)
	}
	return nil, fmt.Errorf("sim: cannot evaluate cell type %s", c.Type)
}

func evalPmux(c *rtlil.Cell, in map[string][]rtlil.State) ([]rtlil.State, error) {
	w := c.Param("WIDTH")
	sw := c.Param("S_WIDTH")
	S := in["S"]
	ones, unknowns := 0, 0
	sel := -1
	for i := 0; i < sw; i++ {
		switch norm(S[i]) {
		case rtlil.S1:
			ones++
			sel = i
		case rtlil.Sx:
			unknowns++
		}
	}
	switch {
	case ones == 0 && unknowns == 0:
		return resize3(in["A"], w), nil
	case ones == 1 && unknowns == 0:
		return resize3(in["B"][sel*w:(sel+1)*w], w), nil
	default:
		// Multiple or unknown selects: conservatively unknown.
		return allX(w), nil
	}
}
