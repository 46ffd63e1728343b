// Package egraph implements verified e-graph rewriting over the
// word-level datapath cells of an rtlil module — the ROVER recipe
// ("RTL Optimization via Verified E-Graph Rewriting") adapted to this
// repository's cell library and area metric.
//
// The pipeline is: ingest the module's datapath region (arithmetic,
// bitwise, shift and comparison cells) into an e-graph whose e-nodes
// carry cell type and result width; saturate it under a
// rule library of datapath identities (commutativity, associativity,
// distributivity, shift/multiply exchanges for power-of-two constants,
// constant folding, self-cancellation, comparison canonicalization)
// with iteration and node budgets; extract the cheapest representative
// of every needed class under the AIG area cost model; and only then
// rewrite the module — after every changed output cone has been proved
// equivalent to the original by the internal/cec miter. A failed proof
// rejects that cone's rewrite, and no option skips the proofs: the pass
// never ships an unverified netlist.
//
// Widths follow the repository's canonical two-valued semantics (the
// AIG lowering in internal/aig): operands of arithmetic and bitwise
// cells are zero-extended or truncated to the result width, comparisons
// operate at the wider operand width, shifts resize only the shifted
// operand. The e-graph models those adaptations with an explicit
// resize e-node so rewrites stay sound across mixed-width netlists.
// $div is deliberately opaque: it has no AIG lowering, so it is
// hash-consed (identical-operand cells may merge via CSE) but no rule
// rewrites through it and the cost model prices it heuristically.
//
// Representation. An e-node (Node) is a 32-byte comparable value with
// no pointers: a uint8 operator (Op, one per region cell type plus
// leaf, const and resize), the width, a constant
// payload, two inline child slots, and for leaves an index into the
// graph's leaf table, which holds the signal. Hash-consing is keyed by
// the node value itself (Node.key clears the fields the operator does
// not use), and so are congruence repair's dedup sets, the rewrite
// planner's original-cell lookup and the cost model's memo: saturation
// builds no key strings and canonicalizing a node allocates nothing.
// Each rule declares the operators it matches, and the sweep only
// calls a rule on nodes with one of them. A class's node list is read
// in place during a sweep, because until the rebuild that ends the
// sweep node lists are only appended to.
//
// The representation decides no result. Two nodes share a key exactly
// when they apply the same operator to the same payload and children
// (TestNodeKeyMatchesSignature checks this against a string signature),
// class IDs follow Add order and a merge keeps the lower ID, and rules
// run in library order over each class's nodes in insertion order. So
// class IDs, the pass counters, extractions and netlists depend only on
// the input module and the budgets.
package egraph
