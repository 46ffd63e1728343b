package rtlil

import (
	"fmt"
	"sort"
)

// Wire is a named multi-bit net in a module.
type Wire struct {
	Name       string
	Width      int
	PortInput  bool
	PortOutput bool
	PortID     int // 1-based position in the port list; 0 for internal wires
	Attrs      map[string]string

	// serial numbers the wires of one module in creation order (set by
	// Module.AddWire, never reused); SigMap and Index find a wire's dense
	// bit ids through it.
	serial int32
}

// Bits returns the full signal spanned by the wire, LSB first.
func (w *Wire) Bits() SigSpec {
	s := make(SigSpec, w.Width)
	for i := 0; i < w.Width; i++ {
		s[i] = SigBit{Wire: w, Offset: i}
	}
	return s
}

// Bit returns bit i of the wire as a single-bit signal bit.
func (w *Wire) Bit(i int) SigBit {
	if i < 0 || i >= w.Width {
		panic(fmt.Sprintf("rtlil: bit %d out of range for wire %s[%d]", i, w.Name, w.Width))
	}
	return SigBit{Wire: w, Offset: i}
}

// IsPort reports whether the wire is a module port.
func (w *Wire) IsPort() bool { return w.PortInput || w.PortOutput }

// Cell is a word-level logic operator instance. Params hold integer cell
// parameters (widths, signedness); Conn maps port names to signals.
type Cell struct {
	Name   string
	Type   CellType
	Params map[string]int
	Conn   map[string]SigSpec
	Attrs  map[string]string

	owner *Module // set by AddCell, cleared by RemoveCell
}

// Port returns the signal connected to the named port, or nil.
func (c *Cell) Port(name string) SigSpec { return c.Conn[name] }

// SetPort connects sig to the named port.
func (c *Cell) SetPort(name string, sig SigSpec) {
	c.Conn[name] = sig
}

// Param returns the named parameter, or 0 when absent.
func (c *Cell) Param(name string) int { return c.Params[name] }

// String renders a short description of the cell.
func (c *Cell) String() string {
	return fmt.Sprintf("%s %s", c.Type, c.Name)
}

// Connection is a module-level direct connection (continuous assignment)
// driving LHS from RHS. Widths always match.
type Connection struct {
	LHS, RHS SigSpec
}

// Module is a netlist: a set of wires, cells and connections.
type Module struct {
	Name  string
	Attrs map[string]string

	wires     map[string]*Wire
	cells     map[string]*Cell
	wireOrder []*Wire
	cellOrder []*Cell
	Conns     []Connection

	autoIdx int
	serials int32 // wires ever created, the next Wire.serial
}

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module {
	return &Module{
		Name:  name,
		Attrs: map[string]string{},
		wires: map[string]*Wire{},
		cells: map[string]*Cell{},
	}
}

// Wire returns the named wire, or nil.
func (m *Module) Wire(name string) *Wire { return m.wires[name] }

// Cell returns the named cell, or nil.
func (m *Module) Cell(name string) *Cell { return m.cells[name] }

// Wires returns all wires in insertion order. The returned slice must not
// be mutated.
func (m *Module) Wires() []*Wire { return m.wireOrder }

// Cells returns all cells in insertion order. The returned slice must not
// be mutated; use AddCell/RemoveCell to change membership.
func (m *Module) Cells() []*Cell { return m.cellOrder }

// HasCell reports whether c is one of m's cells: O(1), no name lookup.
// A cell removed from m answers false from then on.
func (m *Module) HasCell(c *Cell) bool { return c.owner == m }

// NumCells returns the number of cells in the module.
func (m *Module) NumCells() int { return len(m.cellOrder) }

// AddWire creates a new wire. It panics if the name is already taken or
// the width is not positive: both indicate a programming error in the
// caller, in the same spirit as Yosys' assertions.
func (m *Module) AddWire(name string, width int) *Wire {
	if width <= 0 {
		panic(fmt.Sprintf("rtlil: wire %s must have positive width, got %d", name, width))
	}
	if _, dup := m.wires[name]; dup {
		panic(fmt.Sprintf("rtlil: duplicate wire name %s in module %s", name, m.Name))
	}
	w := &Wire{Name: name, Width: width, serial: m.serials}
	m.serials++
	m.wires[name] = w
	m.wireOrder = append(m.wireOrder, w)
	return w
}

// NewWire creates a fresh automatically-named internal wire.
func (m *Module) NewWire(width int) *Wire {
	return m.AddWire(m.autoName("auto"), width)
}

// NewWireHint creates an automatically-named wire whose name embeds a hint
// for readability of dumped netlists.
func (m *Module) NewWireHint(hint string, width int) *Wire {
	return m.AddWire(m.autoName(hint), width)
}

// autoName allocates an unused "$hint$N" name, skipping names already
// present (e.g. after reloading a serialized module).
func (m *Module) autoName(hint string) string {
	for {
		m.autoIdx++
		name := fmt.Sprintf("$%s$%d", hint, m.autoIdx)
		if _, takenW := m.wires[name]; takenW {
			continue
		}
		if _, takenC := m.cells[name]; takenC {
			continue
		}
		return name
	}
}

// AddInput declares a new input port wire of the given width.
func (m *Module) AddInput(name string, width int) *Wire {
	w := m.AddWire(name, width)
	w.PortInput = true
	w.PortID = m.nextPortID()
	return w
}

// AddOutput declares a new output port wire of the given width.
func (m *Module) AddOutput(name string, width int) *Wire {
	w := m.AddWire(name, width)
	w.PortOutput = true
	w.PortID = m.nextPortID()
	return w
}

func (m *Module) nextPortID() int {
	max := 0
	for _, w := range m.wireOrder {
		if w.PortID > max {
			max = w.PortID
		}
	}
	return max + 1
}

// Ports returns the module ports ordered by PortID.
func (m *Module) Ports() []*Wire {
	var ps []*Wire
	for _, w := range m.wireOrder {
		if w.IsPort() {
			ps = append(ps, w)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].PortID < ps[j].PortID })
	return ps
}

// Inputs returns the input port wires ordered by PortID.
func (m *Module) Inputs() []*Wire {
	var ps []*Wire
	for _, w := range m.Ports() {
		if w.PortInput {
			ps = append(ps, w)
		}
	}
	return ps
}

// Outputs returns the output port wires ordered by PortID.
func (m *Module) Outputs() []*Wire {
	var ps []*Wire
	for _, w := range m.Ports() {
		if w.PortOutput {
			ps = append(ps, w)
		}
	}
	return ps
}

// AddCell creates a new cell of the given type. An empty name allocates an
// automatic one. It panics on duplicate names (programming error).
func (m *Module) AddCell(name string, typ CellType) *Cell {
	if name == "" {
		for {
			m.autoIdx++
			name = fmt.Sprintf("%s$%d", typ, m.autoIdx)
			if _, taken := m.cells[name]; !taken {
				break
			}
		}
	}
	if _, dup := m.cells[name]; dup {
		panic(fmt.Sprintf("rtlil: duplicate cell name %s in module %s", name, m.Name))
	}
	c := &Cell{
		Name:   name,
		Type:   typ,
		Params: map[string]int{},
		Conn:   map[string]SigSpec{},
		owner:  m,
	}
	m.cells[name] = c
	m.cellOrder = append(m.cellOrder, c)
	return c
}

// RemoveCell deletes the cell from the module. Removing a cell that is not
// in the module is a no-op.
func (m *Module) RemoveCell(c *Cell) {
	if c.owner != m {
		return
	}
	c.owner = nil
	delete(m.cells, c.Name)
	for i, o := range m.cellOrder {
		if o == c {
			m.cellOrder = append(m.cellOrder[:i], m.cellOrder[i+1:]...)
			break
		}
	}
}

// RemoveWire deletes a non-port wire from the module. The caller is
// responsible for ensuring no cell or connection still references it
// (Validate catches violations).
func (m *Module) RemoveWire(w *Wire) {
	if m.wires[w.Name] != w {
		return
	}
	delete(m.wires, w.Name)
	for i, o := range m.wireOrder {
		if o == w {
			m.wireOrder = append(m.wireOrder[:i], m.wireOrder[i+1:]...)
			break
		}
	}
}

// Connect adds a direct connection driving lhs from rhs. Widths must match.
func (m *Module) Connect(lhs, rhs SigSpec) {
	if len(lhs) != len(rhs) {
		panic(fmt.Sprintf("rtlil: Connect width mismatch %d vs %d in %s", len(lhs), len(rhs), m.Name))
	}
	m.Conns = append(m.Conns, Connection{LHS: lhs.Copy(), RHS: rhs.Copy()})
}

// MoveFrom replaces m's netlist with src's: m takes over src's wires,
// cells, connections and naming counters, keeps its own Name and Attrs,
// and re-owns the cells, while src is left empty and m's old cells
// answer HasCell false. Signals still point at the same wires, so a
// pass that rewrote a clone can keep the clone instead of replaying the
// rewrite on the original.
func (m *Module) MoveFrom(src *Module) {
	for _, c := range m.cellOrder {
		c.owner = nil
	}
	m.wires, m.cells = src.wires, src.cells
	m.wireOrder, m.cellOrder, m.Conns = src.wireOrder, src.cellOrder, src.Conns
	m.autoIdx, m.serials = src.autoIdx, src.serials
	for _, c := range m.cellOrder {
		c.owner = m
	}
	*src = Module{Name: src.Name, Attrs: src.Attrs, wires: map[string]*Wire{}, cells: map[string]*Cell{}}
}

// Clone returns a deep copy of the module. Cloned wires are distinct
// objects; all signals in the clone reference the cloned wires.
func (m *Module) Clone() *Module {
	n := NewModule(m.Name)
	n.autoIdx = m.autoIdx
	for k, v := range m.Attrs {
		n.Attrs[k] = v
	}
	wmap := make(map[*Wire]*Wire, len(m.wireOrder))
	for _, w := range m.wireOrder {
		nw := n.AddWire(w.Name, w.Width)
		nw.PortInput, nw.PortOutput, nw.PortID = w.PortInput, w.PortOutput, w.PortID
		if w.Attrs != nil {
			nw.Attrs = make(map[string]string, len(w.Attrs))
			for k, v := range w.Attrs {
				nw.Attrs[k] = v
			}
		}
		wmap[w] = nw
	}
	remap := func(s SigSpec) SigSpec {
		out := make(SigSpec, len(s))
		for i, b := range s {
			if b.Wire != nil {
				out[i] = SigBit{Wire: wmap[b.Wire], Offset: b.Offset}
			} else {
				out[i] = b
			}
		}
		return out
	}
	for _, c := range m.cellOrder {
		nc := n.AddCell(c.Name, c.Type)
		for k, v := range c.Params {
			nc.Params[k] = v
		}
		for k, v := range c.Conn {
			nc.Conn[k] = remap(v)
		}
		if c.Attrs != nil {
			nc.Attrs = make(map[string]string, len(c.Attrs))
			for k, v := range c.Attrs {
				nc.Attrs[k] = v
			}
		}
	}
	for _, cn := range m.Conns {
		n.Conns = append(n.Conns, Connection{LHS: remap(cn.LHS), RHS: remap(cn.RHS)})
	}
	return n
}

// Design is a collection of modules.
type Design struct {
	modules map[string]*Module
	order   []*Module
}

// NewDesign returns an empty design.
func NewDesign() *Design {
	return &Design{modules: map[string]*Module{}}
}

// AddModule adds a module to the design. It panics on duplicate names.
func (d *Design) AddModule(m *Module) {
	if _, dup := d.modules[m.Name]; dup {
		panic(fmt.Sprintf("rtlil: duplicate module %s", m.Name))
	}
	d.modules[m.Name] = m
	d.order = append(d.order, m)
}

// Module returns the named module, or nil.
func (d *Design) Module(name string) *Module { return d.modules[name] }

// ReplaceModule swaps the module of the same name for m, keeping its
// position in the design order (so per-module cache refills do not
// reorder the design). It panics when no module of that name exists:
// replacing is meaningful only for a module the design already holds.
func (d *Design) ReplaceModule(m *Module) {
	old, ok := d.modules[m.Name]
	if !ok {
		panic(fmt.Sprintf("rtlil: replacing unknown module %s", m.Name))
	}
	d.modules[m.Name] = m
	for i, cur := range d.order {
		if cur == old {
			d.order[i] = m
			return
		}
	}
}

// Modules returns the modules in insertion order.
func (d *Design) Modules() []*Module { return d.order }

// Top returns the single module of a one-module design, or the module
// named "top" if present, or nil.
func (d *Design) Top() *Module {
	if len(d.order) == 1 {
		return d.order[0]
	}
	return d.modules["top"]
}
