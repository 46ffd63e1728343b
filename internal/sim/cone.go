package sim

import (
	"fmt"

	"repro/internal/rtlil"
)

// Cone is the 64-way bit-parallel evaluator over a topologically ordered
// cell slice: every bit carries a uint64 lane vector in a dense
// slot-indexed buffer, so one Eval runs 64 input patterns. Every 64-lane
// simulation in the repository runs through a Cone: the SAT-mux oracle's
// module signatures and exhaustive sweep, and Parallel and Sequential,
// which cec and the benchmark's output check use.
//
// A Cone has one cell semantics: the AIG lowering of internal/aig, cell
// for cell. $pmux is an ascending-priority chain (the highest active
// select wins), $mul is the shift-and-add product truncated to Y, and
// $shl/$shr shift by the amount's full value, however wide the amount
// port (any amount at or above the width gives zero). A lane that shows
// target=v is therefore a model of the cone's CNF. $div, which the AIG
// mapper cannot encode, divides per lane; division by zero and operands
// wider than 64 bits give 0. Constant x and z bits evaluate as 0.
// Wherever the four-state EvalCell result is defined on defined inputs,
// the lanes agree with it.
//
// Eval runs many rounds per query, so the signal resolution is hoisted
// into construction: every cell port is compiled to a slot-index plan
// with a reusable lane buffer (constant bits prefilled), and the
// per-round work is plain slice traffic — no SigMap lookups, no
// per-port allocation.
//
// A Cone is not safe for concurrent Eval calls (the plan buffers are
// shared scratch); build one per goroutine.
type Cone struct {
	ix     *rtlil.Index
	slots  rtlil.IDMap[int32] // Index.ID -> slot
	nslots int32
	plans  []conePlan
}

// portPlan compiles one input port: codes[i] is the slot to load lane
// word i from, or -1 for a constant bit whose lanes are prefilled in buf.
type portPlan struct {
	name  string
	codes []int32
	buf   []uint64
}

// conePlan is one cell's compiled evaluation step.
type conePlan struct {
	cell *rtlil.Cell
	in   []portPlan
	out  []int32 // slot per output bit, -1 for constant bits
}

// NewCone compiles a lane evaluator for the cells (drivers before
// readers). It fails on sequential cells, on cell types outside the
// cell library and on bits the index does not know.
//
// Every plan slice is carved out of one backing array per element
// type, and the slot table starts at the cone's output-bit count and
// doubles as it fills: a compile allocates a handful of times however
// many cells and ports the cone has.
func NewCone(ix *rtlil.Index, order []*rtlil.Cell) (*Cone, error) {
	nports, nin, nout := 0, 0, 0
	for _, cell := range order {
		if err := checkCell(cell); err != nil {
			return nil, err
		}
		for _, port := range rtlil.InputPorts(cell.Type) {
			nports++
			nin += len(cell.Port(port))
		}
		nout += len(cell.Port(outputPort(cell.Type)))
	}
	c := &Cone{ix: ix, slots: rtlil.NewIDMap[int32](nout), plans: make([]conePlan, len(order))}
	ports := make([]portPlan, nports)
	codes := make([]int32, nin+nout)
	bufs := make([]uint64, nin)
	for k, cell := range order {
		pl := &c.plans[k]
		pl.cell = cell
		np := len(rtlil.InputPorts(cell.Type))
		pl.in, ports = ports[:np:np], ports[np:]
		for j, port := range rtlil.InputPorts(cell.Type) {
			sig := cell.Port(port)
			pp := &pl.in[j]
			pp.name = port
			pp.codes, codes = codes[:len(sig):len(sig)], codes[len(sig):]
			pp.buf, bufs = bufs[:len(sig):len(sig)], bufs[len(sig):]
			for i, b := range sig {
				code, st, err := c.code(b)
				if err != nil {
					return nil, err
				}
				pp.codes[i] = code
				if st == rtlil.S1 {
					pp.buf[i] = ^uint64(0)
				}
			}
		}
		ysig := cell.Port(outputPort(cell.Type))
		pl.out, codes = codes[:len(ysig):len(ysig)], codes[len(ysig):]
		for i, b := range ysig {
			code, _, err := c.code(b)
			if err != nil {
				return nil, err
			}
			pl.out[i] = code
		}
	}
	return c, nil
}

// NewModuleCone compiles the indexed module's combinational cells, in
// rtlil.TopoSort order, into one cone. $dff cells stay out, so their Q
// bits are free variables like the primary inputs. It fails on
// combinational loops.
func NewModuleCone(ix *rtlil.Index) (*Cone, error) {
	order, err := rtlil.TopoSort(ix)
	if err != nil {
		return nil, err
	}
	comb := order[:0]
	for _, c := range order {
		if !rtlil.IsSequential(c.Type) {
			comb = append(comb, c)
		}
	}
	return NewCone(ix, comb)
}

// code returns the slot of b's canonical bit, adding one on first sight,
// or -1 and the state when that bit is a constant.
func (c *Cone) code(b rtlil.SigBit) (int32, rtlil.State, error) {
	id := c.ix.ID(b)
	if id < 0 {
		if b = c.ix.MapBit(b); b.IsConst() {
			return -1, b.Const, nil
		}
		return 0, 0, fmt.Errorf("sim: cone bit %s is not in the indexed module", b)
	}
	if s, ok := c.slots.Get(id); ok {
		return s, 0, nil
	}
	s := c.nslots
	c.slots.Set(id, s)
	c.nslots++
	return s, 0, nil
}

func checkCell(cell *rtlil.Cell) error {
	if rtlil.IsSequential(cell.Type) {
		return fmt.Errorf("sim: cone contains sequential cell %s", cell.Name)
	}
	switch cell.Type {
	case rtlil.CellNot, rtlil.CellNeg, rtlil.CellReduceAnd, rtlil.CellReduceOr,
		rtlil.CellReduceXor, rtlil.CellLogicNot, rtlil.CellAnd, rtlil.CellOr,
		rtlil.CellXor, rtlil.CellXnor, rtlil.CellAdd, rtlil.CellSub,
		rtlil.CellMul, rtlil.CellEq, rtlil.CellNe, rtlil.CellLt, rtlil.CellLe,
		rtlil.CellGt, rtlil.CellGe, rtlil.CellLogicAnd, rtlil.CellLogicOr,
		rtlil.CellMux, rtlil.CellPmux, rtlil.CellShl, rtlil.CellShr, rtlil.CellDiv:
		return nil
	}
	return fmt.Errorf("sim: cone cell %s has unsupported type %s", cell.Name, cell.Type)
}

// NumSlots returns the size of the lane buffer Eval expects.
func (c *Cone) NumSlots() int { return int(c.nslots) }

// Slot returns the buffer index of a bit (canonical or not).
func (c *Cone) Slot(b rtlil.SigBit) (int, bool) {
	id := c.ix.ID(b)
	if id < 0 {
		return 0, false
	}
	s, ok := c.slots.Get(id)
	return int(s), ok
}

// Bits lists the slotted bits (canonical form) in slot order.
func (c *Cone) Bits() []rtlil.SigBit {
	bits := make([]rtlil.SigBit, c.nslots)
	fill := func(sig rtlil.SigSpec, codes []int32) {
		for i, code := range codes {
			if code >= 0 {
				bits[code] = c.ix.MapBit(sig[i])
			}
		}
	}
	for _, pl := range c.plans {
		for _, pp := range pl.in {
			fill(pl.cell.Port(pp.name), pp.codes)
		}
		fill(pl.cell.Port(outputPort(pl.cell.Type)), pl.out)
	}
	return bits
}

// Eval evaluates the cone in place: callers fill the slots of the cone's
// free bits (every slotted bit not driven by a cone cell) with 64-lane
// input vectors, and Eval overwrites every driven slot. Stale values from
// an earlier round are dead — each driven slot is written before any
// cell reads it.
func (c *Cone) Eval(vals []uint64) {
	for pi := range c.plans {
		pl := &c.plans[pi]
		get := func(name string) []uint64 {
			for i := range pl.in {
				pp := &pl.in[i]
				if pp.name != name {
					continue
				}
				for j, code := range pp.codes {
					if code >= 0 {
						pp.buf[j] = vals[code]
					}
				}
				return pp.buf
			}
			return nil
		}
		y := evalLanesPorts(pl.cell, get)
		for j, code := range pl.out {
			if code >= 0 {
				vals[code] = y[j]
			}
		}
	}
}

// gatherLane reassembles the value of one lane from a lane-vector word
// slice (callers guarantee len(v) <= 64).
func gatherLane(v []uint64, lane uint) uint64 {
	var r uint64
	for i, w := range v {
		r |= ((w >> lane) & 1) << uint(i)
	}
	return r
}

// scatterLane spreads a value's bits back into one lane of out; bits at
// or above 64 stay 0, matching fromUint.
func scatterLane(out []uint64, lane uint, v uint64) {
	n := len(out)
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		out[i] |= ((v >> uint(i)) & 1) << lane
	}
}
