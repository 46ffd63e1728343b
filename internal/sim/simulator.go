package sim

import (
	"fmt"

	"repro/internal/rtlil"
)

// Simulator evaluates a whole module combinationally in four-state logic.
// Primary inputs and $dff Q bits are free variables: values not provided
// to Eval default to x. Build once, evaluate many times.
type Simulator struct {
	mod   *rtlil.Module
	ix    *rtlil.Index
	order []*rtlil.Cell
}

// NewSimulator prepares a simulator for the module. It fails on
// combinational loops.
func NewSimulator(m *rtlil.Module) (*Simulator, error) {
	ix := rtlil.NewIndex(m)
	order, err := rtlil.TopoSort(ix)
	if err != nil {
		return nil, err
	}
	return &Simulator{mod: m, ix: ix, order: order}, nil
}

// Index returns the module index used by the simulator.
func (s *Simulator) Index() *rtlil.Index { return s.ix }

// Eval computes the value of every bit in the module given assignments to
// free bits (primary inputs and flip-flop outputs). Unassigned free bits
// are x. The returned map is keyed by canonical (SigMap-resolved) bits.
func (s *Simulator) Eval(inputs map[rtlil.SigBit]rtlil.State) (map[rtlil.SigBit]rtlil.State, error) {
	vals := make(map[rtlil.SigBit]rtlil.State, len(inputs)*4)
	for b, v := range inputs {
		vals[s.ix.MapBit(b)] = norm(v)
	}
	get := func(b rtlil.SigBit) rtlil.State {
		b = s.ix.MapBit(b)
		if b.IsConst() {
			return norm(b.Const)
		}
		if v, ok := vals[b]; ok {
			return v
		}
		return rtlil.Sx
	}
	for _, c := range s.order {
		if rtlil.IsSequential(c.Type) {
			continue // Q bits are free variables
		}
		in := map[string][]rtlil.State{}
		for _, p := range rtlil.InputPorts(c.Type) {
			sig := c.Port(p)
			v := make([]rtlil.State, len(sig))
			for i, b := range sig {
				v[i] = get(b)
			}
			in[p] = v
		}
		out, err := EvalCell(c, in)
		if err != nil {
			return nil, err
		}
		ysig := c.Port(outputPort(c.Type))
		if len(out) != len(ysig) {
			return nil, fmt.Errorf("sim: cell %s produced %d bits for %d-bit output", c.Name, len(out), len(ysig))
		}
		for i, b := range ysig {
			if b.IsConst() {
				continue
			}
			vals[s.ix.MapBit(b)] = out[i]
		}
	}
	return vals, nil
}

// EvalSig reads a signal value out of an Eval result.
func (s *Simulator) EvalSig(vals map[rtlil.SigBit]rtlil.State, sig rtlil.SigSpec) []rtlil.State {
	out := make([]rtlil.State, len(sig))
	for i, b := range sig {
		mb := s.ix.MapBit(b)
		if mb.IsConst() {
			out[i] = norm(mb.Const)
		} else if v, ok := vals[mb]; ok {
			out[i] = v
		} else {
			out[i] = rtlil.Sx
		}
	}
	return out
}

// FreeBits returns the canonical free-variable bits of the module: primary
// input bits plus $dff Q bits, in deterministic order.
func FreeBits(m *rtlil.Module) []rtlil.SigBit {
	ix := rtlil.NewIndex(m)
	seen := map[rtlil.SigBit]bool{}
	var out []rtlil.SigBit
	add := func(sig rtlil.SigSpec) {
		for _, b := range ix.Map(sig) {
			if b.IsConst() || seen[b] {
				continue
			}
			seen[b] = true
			out = append(out, b)
		}
	}
	for _, w := range m.Inputs() {
		add(w.Bits())
	}
	for _, c := range m.Cells() {
		if rtlil.IsSequential(c.Type) {
			add(c.Port("Q"))
		}
	}
	return out
}

func outputPort(t rtlil.CellType) string {
	ps := rtlil.OutputPorts(t)
	if len(ps) != 1 {
		panic(fmt.Sprintf("sim: cell type %s has %d outputs", t, len(ps)))
	}
	return ps[0]
}
