package rtlil

// SigMap resolves signal aliases introduced by module-level connections,
// mapping every bit to a canonical representative, like Yosys' SigMap.
// Constants always win as representatives; between wires, the wire created
// earlier (lower position in the module wire order at construction time)
// is preferred so that mapping is deterministic.
//
// Internally every bit has a dense int32 id and the map is a union-find
// over a slice of them. Ids 0..3 are the constants S0, S1, Sx and Sz.
// Then come the bits of the module's wires in wire order, LSB first, so
// comparing two such ids compares (wire position, offset) — the
// representative order. A bit without one — a wire created after
// construction, a removed wire, another module's wire — gets the next
// free id the first time Add sees it; it has no wire position and ties
// break on wire name, then offset.
type SigMap struct {
	parent []int32 // union-find by id; a root is its own parent

	// slots maps Wire.serial to the wire and its first id; owner maps a
	// wire-bit id (less 4) back to the wire's serial.
	slots []wireSlot
	owner []int32
	// nranked is the first id past the wire bits numbered at
	// construction; late holds the ids Add handed out from there on, and
	// lateBits their bits.
	nranked  int32
	late     map[SigBit]int32
	lateBits []SigBit
	frozen   bool
}

type wireSlot struct {
	w     *Wire // nil: removed before construction
	base  int32
	width int32
}

// numConstIDs is the number of ids reserved for the constant states.
const numConstIDs = int32(Sz) + 1

// NewSigMap builds a SigMap from the module's connection list. A nil
// module yields an empty (identity) map.
func NewSigMap(m *Module) *SigMap {
	sm := newSigMap(m)
	if m != nil {
		for _, cn := range m.Conns {
			sm.Add(cn.LHS, cn.RHS)
		}
	}
	return sm
}

// newSigMap numbers the constants and the module's wire bits, each its
// own representative.
func newSigMap(m *Module) *SigMap {
	n := numConstIDs
	sm := &SigMap{}
	if m != nil {
		sm.slots = make([]wireSlot, m.serials)
		for _, w := range m.wireOrder {
			sm.slots[w.serial] = wireSlot{w: w, base: n, width: int32(w.Width)}
			n += int32(w.Width)
		}
		sm.owner = make([]int32, n-numConstIDs)
		for _, w := range m.wireOrder {
			base := sm.slots[w.serial].base - numConstIDs
			for off := int32(0); off < int32(w.Width); off++ {
				sm.owner[base+off] = w.serial
			}
		}
	}
	sm.nranked = n
	sm.parent = make([]int32, n)
	for i := range sm.parent {
		sm.parent[i] = int32(i)
	}
	return sm
}

// id returns b's id, or -1 when b has none.
func (sm *SigMap) id(b SigBit) int32 {
	if b.Wire == nil {
		if b.Offset == 0 && b.Const <= Sz {
			return int32(b.Const)
		}
	} else if s := int(b.Wire.serial); s < len(sm.slots) {
		sl := &sm.slots[s]
		if sl.w == b.Wire && uint(b.Offset) < uint(sl.width) {
			return sl.base + int32(b.Offset)
		}
	}
	if id, ok := sm.late[b]; ok {
		return id
	}
	return -1
}

// intern returns b's id, handing out the next free one if b has none.
func (sm *SigMap) intern(b SigBit) int32 {
	if id := sm.id(b); id >= 0 {
		return id
	}
	id := int32(len(sm.parent))
	sm.parent = append(sm.parent, id)
	if sm.late == nil {
		sm.late = map[SigBit]int32{}
	}
	sm.late[b] = id
	sm.lateBits = append(sm.lateBits, b)
	return id
}

// bit returns the bit with the given id.
func (sm *SigMap) bit(id int32) SigBit {
	switch {
	case id < numConstIDs:
		return ConstBit(State(id))
	case id < sm.nranked:
		sl := &sm.slots[sm.owner[id-numConstIDs]]
		return SigBit{Wire: sl.w, Offset: int(id - sl.base)}
	}
	return sm.lateBits[id-sm.nranked]
}

func (sm *SigMap) isConst(id int32) bool {
	if id < sm.nranked {
		return id < numConstIDs
	}
	return sm.lateBits[id-sm.nranked].IsConst()
}

func (sm *SigMap) find(id int32) int32 {
	if sm.frozen {
		return sm.parent[id] // fully compressed by Freeze: one hop, no writes
	}
	root := id
	for sm.parent[root] != root {
		root = sm.parent[root]
	}
	for sm.parent[id] != root {
		id, sm.parent[id] = sm.parent[id], root
	}
	return root
}

// Freeze fully path-compresses the map and switches lookups to pure
// reads, making Bit and Map safe for concurrent use (the parallel
// SAT-mux queries share one frozen Index). Add panics afterwards.
func (sm *SigMap) Freeze() {
	for i := range sm.parent {
		sm.find(int32(i))
	}
	sm.frozen = true
}

// better reports whether id a is a better representative than id b.
func (sm *SigMap) better(a, b int32) bool {
	if ca, cb := sm.isConst(a), sm.isConst(b); ca != cb || ca {
		return ca // const beats wire; both const: arbitrary, keep a
	}
	if a < sm.nranked && b < sm.nranked {
		return a < b
	}
	ba, bb := sm.bit(a), sm.bit(b)
	if ba.Wire.Name != bb.Wire.Name {
		return ba.Wire.Name < bb.Wire.Name
	}
	return ba.Offset < bb.Offset
}

// Add records that the bits of a and b are connected (a is driven by b).
// Widths must match.
func (sm *SigMap) Add(a, b SigSpec) {
	if sm.frozen {
		panic("rtlil: SigMap.Add on frozen map")
	}
	if len(a) != len(b) {
		panic("rtlil: SigMap.Add width mismatch")
	}
	for i := range a {
		ra, rb := sm.find(sm.intern(a[i])), sm.find(sm.intern(b[i]))
		if ra == rb {
			continue
		}
		if sm.better(rb, ra) {
			sm.parent[ra] = rb
		} else {
			sm.parent[rb] = ra
		}
	}
}

// Bit returns the canonical representative of b.
func (sm *SigMap) Bit(b SigBit) SigBit {
	id := sm.id(b)
	if id < 0 {
		return b
	}
	return sm.bit(sm.find(id))
}

// Map returns the signal with every bit replaced by its canonical
// representative.
func (sm *SigMap) Map(s SigSpec) SigSpec {
	out := make(SigSpec, len(s))
	for i, b := range s {
		out[i] = sm.Bit(b)
	}
	return out
}
