package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/rtlil"
)

// Parallel is a two-valued, 64-way bit-parallel simulator of a whole
// module: its combinational cells, in TopoSort order, compiled into one
// Cone, so it shares the Cone's semantics (the AIG lowering; constant x
// and z bits evaluate as 0). One Run evaluates 64 input patterns at
// once. Parallel is a filter for candidate counterexamples, not a
// four-state reference (that is Simulator's job). Like its Cone, it is
// not safe for concurrent Run calls.
type Parallel struct {
	ix   *rtlil.Index
	cone *Cone
	bits []rtlil.SigBit // the cone's slotted bits, by slot
}

// NewParallel prepares a parallel simulator for the module. It fails on
// combinational loops.
func NewParallel(m *rtlil.Module) (*Parallel, error) {
	ix := rtlil.NewIndex(m)
	order, err := rtlil.TopoSort(ix)
	if err != nil {
		return nil, err
	}
	var comb []*rtlil.Cell // $dff cells stay out: Q bits are free variables
	for _, c := range order {
		if !rtlil.IsSequential(c.Type) {
			comb = append(comb, c)
		}
	}
	cone, err := NewCone(ix, comb)
	if err != nil {
		return nil, err
	}
	return &Parallel{ix: ix, cone: cone, bits: cone.Bits()}, nil
}

// Index returns the module index used by the simulator.
func (p *Parallel) Index() *rtlil.Index { return p.ix }

// Run evaluates the module for the 64 patterns encoded in inputs. Free
// bits (primary inputs, dff Q bits) not present in the map are 0 in every
// lane. The result maps every computed canonical bit to its lane vector.
func (p *Parallel) Run(inputs map[rtlil.SigBit]uint64) map[rtlil.SigBit]uint64 {
	lanes := make([]uint64, p.cone.NumSlots())
	vals := make(map[rtlil.SigBit]uint64, len(inputs)+len(lanes))
	for b, v := range inputs {
		b = p.ix.MapBit(b)
		vals[b] = v
		if slot, ok := p.cone.Slot(b); ok {
			lanes[slot] = v
		}
	}
	p.cone.Eval(lanes)
	for slot, b := range p.bits {
		vals[b] = lanes[slot]
	}
	return vals
}

// Sig reads a signal's lane vectors out of a Run result.
func (p *Parallel) Sig(vals map[rtlil.SigBit]uint64, sig rtlil.SigSpec) []uint64 {
	out := make([]uint64, len(sig))
	for i, b := range sig {
		mb := p.ix.MapBit(b)
		if mb.IsConst() {
			if mb.Const == rtlil.S1 {
				out[i] = ^uint64(0)
			}
			continue
		}
		out[i] = vals[mb]
	}
	return out
}

// RandomInputs draws one 64-pattern lane vector per free bit from rng.
func RandomInputs(m *rtlil.Module, rng *rand.Rand) map[rtlil.SigBit]uint64 {
	in := map[rtlil.SigBit]uint64{}
	for _, b := range FreeBits(m) {
		in[b] = rng.Uint64()
	}
	return in
}

func resizeLanes(v []uint64, width int) []uint64 {
	if len(v) == width {
		return v
	}
	out := make([]uint64, width)
	copy(out, v)
	return out
}

// evalLanesPorts evaluates one cell over lane vectors: the AIG lowering
// cell for cell. Ports resolve through port, which the cone backs with
// its precomputed slot plans, so the dispatch never touches c.Conn on
// the hot path.
func evalLanesPorts(c *rtlil.Cell, port func(string) []uint64) []uint64 {
	yw := len(c.Port("Y"))
	A := port("A")
	B := port("B")
	switch c.Type {
	case rtlil.CellNot:
		a := resizeLanes(A, yw)
		out := make([]uint64, yw)
		for i := range out {
			out[i] = ^a[i]
		}
		return out
	case rtlil.CellNeg:
		a := resizeLanes(A, yw)
		out := make([]uint64, yw)
		carry := ^uint64(0) // +1
		for i := range out {
			x := ^a[i]
			out[i] = x ^ carry
			carry = x & carry
		}
		return out
	case rtlil.CellReduceAnd:
		r := ^uint64(0)
		for _, v := range A {
			r &= v
		}
		return []uint64{r}
	case rtlil.CellReduceOr:
		var r uint64
		for _, v := range A {
			r |= v
		}
		return []uint64{r}
	case rtlil.CellReduceXor:
		var r uint64
		for _, v := range A {
			r ^= v
		}
		return []uint64{r}
	case rtlil.CellLogicNot:
		var r uint64
		for _, v := range A {
			r |= v
		}
		return []uint64{^r}

	case rtlil.CellAnd, rtlil.CellOr, rtlil.CellXor, rtlil.CellXnor:
		a, b := resizeLanes(A, yw), resizeLanes(B, yw)
		out := make([]uint64, yw)
		for i := range out {
			switch c.Type {
			case rtlil.CellAnd:
				out[i] = a[i] & b[i]
			case rtlil.CellOr:
				out[i] = a[i] | b[i]
			case rtlil.CellXor:
				out[i] = a[i] ^ b[i]
			case rtlil.CellXnor:
				out[i] = ^(a[i] ^ b[i])
			}
		}
		return out

	case rtlil.CellAdd:
		return addLanes(resizeLanes(A, yw), resizeLanes(B, yw), 0)
	case rtlil.CellSub:
		b := resizeLanes(B, yw)
		nb := make([]uint64, yw)
		for i := range nb {
			nb[i] = ^b[i]
		}
		return addLanes(resizeLanes(A, yw), nb, ^uint64(0))
	case rtlil.CellMul:
		a, b := resizeLanes(A, yw), resizeLanes(B, yw)
		acc := make([]uint64, yw)
		for j := 0; j < yw; j++ {
			part := make([]uint64, yw)
			for i := j; i < yw; i++ {
				part[i] = a[i-j] & b[j]
			}
			acc = addLanes(acc, part, 0)
		}
		return acc

	case rtlil.CellDiv:
		// No AIG lowering to mirror: transpose, divide per lane,
		// transpose back. EvalCell gives all-x for a zero divisor and
		// for operands wider than 64 bits; the lanes give 0.
		out := make([]uint64, yw)
		if len(A) > 64 || len(B) > 64 {
			return out
		}
		for lane := uint(0); lane < 64; lane++ {
			b := gatherLane(B, lane)
			var v uint64
			if b != 0 {
				v = gatherLane(A, lane) / b
			}
			scatterLane(out, lane, v)
		}
		return out

	case rtlil.CellEq, rtlil.CellNe:
		w := len(A)
		if len(B) > w {
			w = len(B)
		}
		a, b := resizeLanes(A, w), resizeLanes(B, w)
		var diff uint64
		for i := 0; i < w; i++ {
			diff |= a[i] ^ b[i]
		}
		if c.Type == rtlil.CellEq {
			return []uint64{^diff}
		}
		return []uint64{diff}

	case rtlil.CellLt, rtlil.CellLe, rtlil.CellGt, rtlil.CellGe:
		w := len(A)
		if len(B) > w {
			w = len(B)
		}
		a, b := resizeLanes(A, w), resizeLanes(B, w)
		var lt uint64
		eq := ^uint64(0)
		for i := w - 1; i >= 0; i-- {
			lt |= eq & ^a[i] & b[i]
			eq &= ^(a[i] ^ b[i])
		}
		switch c.Type {
		case rtlil.CellLt:
			return []uint64{lt}
		case rtlil.CellLe:
			return []uint64{lt | eq}
		case rtlil.CellGt:
			return []uint64{^(lt | eq)}
		default: // CellGe
			return []uint64{^lt}
		}

	case rtlil.CellLogicAnd, rtlil.CellLogicOr:
		var ra, rb uint64
		for _, v := range A {
			ra |= v
		}
		for _, v := range B {
			rb |= v
		}
		if c.Type == rtlil.CellLogicAnd {
			return []uint64{ra & rb}
		}
		return []uint64{ra | rb}

	case rtlil.CellShl, rtlil.CellShr:
		cur := resizeLanes(A, yw)
		// Barrel decomposition over the select bits. Select bits whose
		// weight is >= yw force the result to zero in their lanes.
		var overflow uint64
		for j, sel := range B {
			amt := 1 << uint(j)
			if j >= 31 || amt >= yw {
				overflow |= sel
				continue
			}
			next := make([]uint64, yw)
			for i := 0; i < yw; i++ {
				var shifted uint64
				if c.Type == rtlil.CellShl {
					if i-amt >= 0 {
						shifted = cur[i-amt]
					}
				} else {
					if i+amt < yw {
						shifted = cur[i+amt]
					}
				}
				next[i] = (sel & shifted) | (^sel & cur[i])
			}
			cur = next
		}
		// Write a fresh slice: cur may still alias the caller's A
		// buffer (zero select bits), which must not be mutated.
		out := make([]uint64, yw)
		for i := range out {
			out[i] = cur[i] &^ overflow
		}
		return out

	case rtlil.CellMux:
		s := port("S")[0]
		a, b := resizeLanes(A, yw), resizeLanes(B, yw)
		out := make([]uint64, yw)
		for i := range out {
			out[i] = (s & b[i]) | (^s & a[i])
		}
		return out

	case rtlil.CellPmux:
		w := c.Param("WIDTH")
		sw := c.Param("S_WIDTH")
		s := port("S")
		cur := resizeLanes(A, w)
		for i := 0; i < sw; i++ {
			word := B[i*w : (i+1)*w]
			next := make([]uint64, w)
			for k := 0; k < w; k++ {
				next[k] = (s[i] & word[k]) | (^s[i] & cur[k])
			}
			cur = next
		}
		return cur
	}
	panic(fmt.Sprintf("sim: evalLanesPorts on unsupported cell type %s", c.Type))
}

func addLanes(a, b []uint64, carry uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i] ^ carry
		carry = (a[i] & b[i]) | (a[i] & carry) | (b[i] & carry)
	}
	return out
}
