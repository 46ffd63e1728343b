package rtlil

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The JSON netlist format is modeled on Yosys' write_json output: every
// wire bit gets a small integer id, constants are encoded as the strings
// "0", "1", "x", "z", and cell connections are arrays of bit tokens
// (LSB first).

type jsonDesign struct {
	Creator string                 `json:"creator"`
	Modules map[string]*jsonModule `json:"modules"`
}

type jsonModule struct {
	Ports       map[string]*jsonPort `json:"ports"`
	Wires       map[string]*jsonWire `json:"netnames"`
	Cells       map[string]*jsonCell `json:"cells"`
	Connections [][2][]any           `json:"connections,omitempty"`
}

type jsonPort struct {
	Direction string `json:"direction"`
	Bits      []any  `json:"bits"`
	// PortID persists the 1-based port position. JSON objects carry no
	// key order, so without it a read-back would renumber ports in
	// name order and change the module's canonical hash; the serving
	// layer's module-granular cache needs hash-stable round trips.
	// Absent (Yosys-written JSON), the reader falls back to name order.
	PortID int `json:"port_id,omitempty"`
}

type jsonWire struct {
	Bits []any `json:"bits"`
}

type jsonCell struct {
	Type        string           `json:"type"`
	Parameters  map[string]int   `json:"parameters"`
	Connections map[string][]any `json:"connections"`
}

// WriteJSON serializes the design to w.
func WriteJSON(w io.Writer, d *Design) error {
	jd := jsonDesign{Creator: "smartly", Modules: map[string]*jsonModule{}}
	for _, m := range d.Modules() {
		jm, err := moduleToJSON(m)
		if err != nil {
			return err
		}
		jd.Modules[m.Name] = jm
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jd)
}

func moduleToJSON(m *Module) (*jsonModule, error) {
	ids := map[SigBit]int{}
	next := 2 // ids 0 and 1 are reserved to reduce confusion with consts
	for _, w := range m.Wires() {
		for i := 0; i < w.Width; i++ {
			ids[SigBit{Wire: w, Offset: i}] = next
			next++
		}
	}
	tok := func(b SigBit) any {
		if b.IsConst() {
			return b.Const.String()
		}
		return ids[b]
	}
	sig := func(s SigSpec) []any {
		out := make([]any, len(s))
		for i, b := range s {
			out[i] = tok(b)
		}
		return out
	}
	jm := &jsonModule{
		Ports: map[string]*jsonPort{},
		Wires: map[string]*jsonWire{},
		Cells: map[string]*jsonCell{},
	}
	for _, w := range m.Wires() {
		jm.Wires[w.Name] = &jsonWire{Bits: sig(w.Bits())}
		if w.IsPort() {
			dir := "input"
			if w.PortOutput {
				dir = "output"
			}
			jm.Ports[w.Name] = &jsonPort{Direction: dir, Bits: sig(w.Bits()), PortID: w.PortID}
		}
	}
	for _, c := range m.Cells() {
		jc := &jsonCell{
			Type:        string(c.Type),
			Parameters:  map[string]int{},
			Connections: map[string][]any{},
		}
		for k, v := range c.Params {
			jc.Parameters[k] = v
		}
		for k, v := range c.Conn {
			jc.Connections[k] = sig(v)
		}
		jm.Cells[c.Name] = jc
	}
	for _, cn := range m.Conns {
		jm.Connections = append(jm.Connections, [2][]any{sig(cn.LHS), sig(cn.RHS)})
	}
	return jm, nil
}

// ReadJSON parses a design previously written with WriteJSON. Malformed
// input — null entries, zero-width wires, width-mismatched connections —
// is an error, never a panic: the serving layer feeds it remote bytes.
func ReadJSON(r io.Reader) (*Design, error) {
	var jd jsonDesign
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jd); err != nil {
		return nil, fmt.Errorf("rtlil: decoding JSON netlist: %w", err)
	}
	d := NewDesign()
	names := make([]string, 0, len(jd.Modules))
	for name := range jd.Modules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if jd.Modules[name] == nil {
			return nil, fmt.Errorf("rtlil: module %s is null", name)
		}
		m, err := moduleFromJSON(name, jd.Modules[name])
		if err != nil {
			return nil, err
		}
		d.AddModule(m)
	}
	return d, nil
}

func moduleFromJSON(name string, jm *jsonModule) (*Module, error) {
	m := NewModule(name)
	bitOwner := map[int]SigBit{}

	wireNames := make([]string, 0, len(jm.Wires))
	for wn := range jm.Wires {
		wireNames = append(wireNames, wn)
	}
	sort.Strings(wireNames)
	var portWires []*Wire
	for _, wn := range wireNames {
		jw := jm.Wires[wn]
		switch {
		case jw == nil:
			return nil, fmt.Errorf("rtlil: netname %s is null", wn)
		case len(jw.Bits) == 0:
			return nil, fmt.Errorf("rtlil: netname %s has no bits", wn)
		}
		w := m.AddWire(wn, len(jw.Bits))
		if p, ok := jm.Ports[wn]; ok {
			if p == nil {
				return nil, fmt.Errorf("rtlil: port %s is null", wn)
			}
			switch p.Direction {
			case "input":
				w.PortInput = true
			case "output":
				w.PortOutput = true
			default:
				return nil, fmt.Errorf("rtlil: port %s has bad direction %q", wn, p.Direction)
			}
			w.PortID = p.PortID
			portWires = append(portWires, w)
		}
		for i, t := range jw.Bits {
			if id, ok := tokenID(t); ok {
				if _, dup := bitOwner[id]; !dup {
					bitOwner[id] = SigBit{Wire: w, Offset: i}
				}
			}
		}
	}
	// Our own writer persists port positions as port_id; JSON written by
	// Yosys does not. Keep the persisted positions only when they form a
	// consistent assignment, else renumber in (sorted) name order.
	seen := map[int]bool{}
	consistent := true
	for _, w := range portWires {
		if w.PortID <= 0 || seen[w.PortID] {
			consistent = false
			break
		}
		seen[w.PortID] = true
	}
	if !consistent {
		for _, w := range portWires {
			w.PortID = 0
		}
		for _, w := range portWires {
			w.PortID = m.nextPortID()
		}
	}

	parseSig := func(tokens []any) (SigSpec, error) {
		s := make(SigSpec, len(tokens))
		for i, t := range tokens {
			switch v := t.(type) {
			case string:
				switch v {
				case "0":
					s[i] = ConstBit(S0)
				case "1":
					s[i] = ConstBit(S1)
				case "x":
					s[i] = ConstBit(Sx)
				case "z":
					s[i] = ConstBit(Sz)
				default:
					return nil, fmt.Errorf("rtlil: bad bit token %q", v)
				}
			case float64:
				b, ok := bitOwner[int(v)]
				if !ok {
					return nil, fmt.Errorf("rtlil: bit id %d not owned by any wire", int(v))
				}
				s[i] = b
			default:
				return nil, fmt.Errorf("rtlil: bad bit token type %T", t)
			}
		}
		return s, nil
	}

	// Wires whose bit list references ids owned by other wires become
	// connections (aliases).
	for _, wn := range wireNames {
		jw := jm.Wires[wn]
		w := m.Wire(wn)
		for i, t := range jw.Bits {
			id, ok := tokenID(t)
			var rhs SigBit
			if ok {
				owner := bitOwner[id]
				if owner.Wire == w && owner.Offset == i {
					continue
				}
				rhs = owner
			} else {
				s, err := parseSig([]any{t})
				if err != nil {
					return nil, err
				}
				rhs = s[0]
			}
			m.Connect(SigSpec{w.Bit(i)}, SigSpec{rhs})
		}
	}

	cellNames := make([]string, 0, len(jm.Cells))
	for cn := range jm.Cells {
		cellNames = append(cellNames, cn)
	}
	sort.Strings(cellNames)
	for _, cn := range cellNames {
		jc := jm.Cells[cn]
		switch {
		case jc == nil:
			return nil, fmt.Errorf("rtlil: cell %s is null", cn)
		case cn == "":
			// AddCell would pick an automatic name that a later cell
			// of the design may hold.
			return nil, fmt.Errorf("rtlil: cell with an empty name")
		}
		c := m.AddCell(cn, CellType(jc.Type))
		for k, v := range jc.Parameters {
			c.Params[k] = v
		}
		for k, v := range jc.Connections {
			s, err := parseSig(v)
			if err != nil {
				return nil, fmt.Errorf("rtlil: cell %s port %s: %w", cn, k, err)
			}
			c.Conn[k] = s
		}
	}
	for i, pair := range jm.Connections {
		lhs, err := parseSig(pair[0])
		if err != nil {
			return nil, fmt.Errorf("rtlil: connection %d: %w", i, err)
		}
		rhs, err := parseSig(pair[1])
		if err != nil {
			return nil, fmt.Errorf("rtlil: connection %d: %w", i, err)
		}
		if len(lhs) != len(rhs) {
			return nil, fmt.Errorf("rtlil: connection %d: width mismatch %d vs %d", i, len(lhs), len(rhs))
		}
		m.Connect(lhs, rhs)
	}
	return m, nil
}

func tokenID(t any) (int, bool) {
	if f, ok := t.(float64); ok {
		return int(f), true
	}
	return 0, false
}
