package rtlil

import "slices"

// PortRef identifies one bit of one port of one cell.
type PortRef struct {
	Cell   *Cell
	Port   string
	Offset int
}

// Index provides driver and reader lookups for every bit of a module,
// with all signals resolved through a SigMap. Build it once per pass; it
// is not automatically updated when the module changes. The SigMap is
// frozen at construction, so an Index is safe for concurrent lookups as
// long as the module itself is not mutated.
//
// The tables are slices indexed by the SigMap's dense bit ids: one
// driver per id, the readers of every id in one flat slice (readers of
// id i are readers[start[i]:start[i+1]]), and the port flags per id.
// Every bit a wire, cell or connection of the module mentions has an id.
type Index struct {
	mod     *Module
	sigmap  *SigMap
	driver  []PortRef // Cell nil: undriven
	start   []int32
	readers []PortRef
	ports   []uint8 // portIn | portOut
}

const (
	portIn uint8 = 1 << iota
	portOut
)

// NewIndex builds driver/reader indices for the module.
func NewIndex(m *Module) *Index {
	ix := &Index{mod: m, sigmap: NewSigMap(m)}
	sm := ix.sigmap
	// Pass 1 resolves every cell port bit (interning any bit the wires
	// did not number) to its root id, complemented on output ports; pass
	// 2 visits the same bits in the same order and files them. Ports go
	// in name order, so the readers of a bit are ordered by cell, then
	// port, then offset.
	var portBuf [8]string
	nbits := 0
	for _, c := range m.Cells() {
		for _, sig := range c.Conn {
			nbits += len(sig)
		}
	}
	roots := make([]int32, 0, nbits)
	for _, c := range m.Cells() {
		outs := OutputPorts(c.Type)
		for _, port := range sortedPorts(c, &portBuf) {
			out := slices.Contains(outs, port)
			for _, b := range c.Conn[port] {
				r := sm.find(sm.intern(b))
				if out {
					r = ^r
				}
				roots = append(roots, r)
			}
		}
	}
	n := len(sm.parent)
	ix.start = make([]int32, n+1)
	for _, r := range roots {
		if r >= 0 && !sm.isConst(r) {
			ix.start[r+1]++
		}
	}
	for i := 1; i <= n; i++ {
		ix.start[i] += ix.start[i-1]
	}
	ix.driver = make([]PortRef, n)
	ix.readers = make([]PortRef, ix.start[n])
	// Fill with start[r] as the cursor of r, leaving start[r] at the end
	// of r's range; shifting by one afterwards restores the offsets.
	next := 0
	for _, c := range m.Cells() {
		for _, port := range sortedPorts(c, &portBuf) {
			k := len(c.Conn[port])
			for off, r := range roots[next : next+k] {
				switch {
				case r < 0 && !sm.isConst(^r):
					ix.driver[^r] = PortRef{Cell: c, Port: port, Offset: off}
				case r >= 0 && !sm.isConst(r):
					ix.readers[ix.start[r]] = PortRef{Cell: c, Port: port, Offset: off}
					ix.start[r]++
				}
			}
			next += k
		}
	}
	copy(ix.start[1:], ix.start[:n])
	ix.start[0] = 0

	ix.ports = make([]uint8, n)
	for _, w := range m.Wires() {
		var flag uint8
		if w.PortInput {
			flag |= portIn
		}
		if w.PortOutput {
			flag |= portOut
		}
		if flag == 0 {
			continue
		}
		for off := 0; off < w.Width; off++ {
			if r := sm.find(sm.id(SigBit{Wire: w, Offset: off})); !sm.isConst(r) {
				ix.ports[r] |= flag
			}
		}
	}
	sm.Freeze()
	return ix
}

// sortedPorts returns c's port names in ascending order, in buf when
// they fit.
func sortedPorts(c *Cell, buf *[8]string) []string {
	names := buf[:0]
	for p := range c.Conn {
		names = append(names, p)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// Module returns the indexed module.
func (ix *Index) Module() *Module { return ix.mod }

// Map canonicalizes a signal through the index's SigMap.
func (ix *Index) Map(s SigSpec) SigSpec { return ix.sigmap.Map(s) }

// MapBit canonicalizes a single bit.
func (ix *Index) MapBit(b SigBit) SigBit { return ix.sigmap.Bit(b) }

// ID returns the dense id of b's canonical representative: a stable key
// for tables over the module's bits, equal for two bits exactly when
// MapBit maps them to the same bit. It returns -1 when that
// representative is a constant, and for bits that no wire, cell or
// connection of the module mentions.
func (ix *Index) ID(b SigBit) int32 {
	r := ix.root(b)
	if r >= 0 && ix.sigmap.isConst(r) {
		return -1
	}
	return r
}

// NumIDs bounds the ids ID returns: every one is in [0, NumIDs()), so
// a slice of that length is a table over the module's bits.
func (ix *Index) NumIDs() int { return len(ix.driver) }

// root returns the id of b's representative, or -1 when b has no id.
func (ix *Index) root(b SigBit) int32 {
	id := ix.sigmap.id(b)
	if id < 0 {
		return -1
	}
	return ix.sigmap.find(id)
}

// Driver returns the cell output bit driving b (after alias resolution).
func (ix *Index) Driver(b SigBit) (PortRef, bool) {
	r := ix.root(b)
	if r < 0 {
		return PortRef{}, false
	}
	d := ix.driver[r]
	return d, d.Cell != nil
}

// DriverCell returns the cell driving b, or nil when b is a primary input,
// constant or undriven.
func (ix *Index) DriverCell(b SigBit) *Cell {
	if r := ix.root(b); r >= 0 {
		return ix.driver[r].Cell
	}
	return nil
}

// Readers returns the cell input bits reading b. The slice is shared; do
// not mutate.
func (ix *Index) Readers(b SigBit) []PortRef {
	r := ix.root(b)
	if r < 0 || ix.start[r] == ix.start[r+1] {
		return nil
	}
	return ix.readers[ix.start[r]:ix.start[r+1]:ix.start[r+1]]
}

// FanoutCount returns the number of cell inputs reading b plus one if b is
// visible on a module output port.
func (ix *Index) FanoutCount(b SigBit) int {
	r := ix.root(b)
	if r < 0 {
		return 0
	}
	n := int(ix.start[r+1] - ix.start[r])
	if ix.ports[r]&portOut != 0 {
		n++
	}
	return n
}

// IsOutputBit reports whether b is visible on a module output port.
func (ix *Index) IsOutputBit(b SigBit) bool { return ix.portFlag(b, portOut) }

// IsInputBit reports whether b is driven by a module input port.
func (ix *Index) IsInputBit(b SigBit) bool { return ix.portFlag(b, portIn) }

func (ix *Index) portFlag(b SigBit, flag uint8) bool {
	r := ix.root(b)
	return r >= 0 && ix.ports[r]&flag != 0
}
