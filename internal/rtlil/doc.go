// Package rtlil implements a word-level register-transfer-level
// netlist intermediate representation modeled after Yosys RTLIL.
//
// # Model
//
// A Design holds Modules; a Module holds Wires (multi-bit nets), Cells
// (word-level logic operators such as $mux, $eq, $and) and direct
// connections between signals. Signals are SigSpec values: ordered
// slices of SigBit, where each bit is either one bit of a Wire or a
// four-state constant (State). The representation is deliberately
// close to Yosys so that the optimization passes in this repository
// (in particular the smaRTLy passes from the DAC'25 paper) transcribe
// one-to-one.
//
// # Supporting structures
//
// SigMap resolves connection aliases to canonical bits; Index is a
// frozen read-only driver/reader index safe to share across the
// engine's worker goroutines; Validate checks structural invariants;
// TopoSort orders an indexed module's cells for evaluation;
// CollectStats summarizes a module.
//
// # Dense bit ids
//
// SigMap and Index number bits with dense int32 ids and keep their
// tables in slices instead of maps keyed by SigBit. Ids 0..3 are the
// constants S0, S1, Sx and Sz. Module.AddWire gives every wire a serial
// (the module's wire count so far, never reused), and a SigMap numbers
// the bits of the module's wires in wire order from id 4, LSB first,
// finding a wire's first id by its serial. Earlier wires have always
// been the preferred alias representatives, ties broken by offset, so
// the lower id is the better representative: one integer comparison
// picks the same bit the rank-keyed map did. Bits without a number —
// a wire created after the SigMap, a removed wire, another module's
// wire — get the next id when Add first sees them, and, having no wire
// position, tie-break by wire name, then offset. NewIndex numbers every
// bit the module's cells mention the same way. Index.ID returns the id
// of a bit's canonical representative, a key for per-query tables; it
// is -1 when that representative is a constant and for bits no wire,
// cell or connection of the module mentions.
//
// # Serialization and content identity
//
// WriteJSON/ReadJSON speak the Yosys write_json netlist format, and
// WriteVerilog emits synthesizable Verilog. CanonicalHash and
// CanonicalHashDesign compute an order-invariant content hash — two
// modules that differ only in wire/cell insertion order, JSON object
// key order or connection statement order hash identically — which the
// serving layer (internal/server, internal/cache) uses as the netlist
// half of its cache keys.
package rtlil
