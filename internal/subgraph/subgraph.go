// Package subgraph extracts the bounded circuit neighborhood that
// smaRTLy's SAT-based redundancy elimination reasons over (paper §II).
//
// Starting from a muxtree control bit, gates within distance k are
// collected (undirected breadth-first search over driver/reader edges,
// excluding sequential cells so the result is a DAG). The set is then
// pruned with the paper's Theorem II.1 connectivity filter: a signal can
// interact with the target only if it is an ancestor, a descendant, or
// shares a common ancestor — signals in unrelated groups (and the gates
// producing them) are dismissed, which the paper reports removes ~80% of
// the gates.
//
// The pruning is sound by construction: sub-graph leaves are treated as
// free variables, so the sub-graph is an abstraction of the real circuit
// and any UNSAT verdict ("this control value is impossible") transfers.
package subgraph

import (
	"repro/internal/rtlil"
)

// Options bounds the extraction.
type Options struct {
	// Depth is the BFS radius k in cells (default 6).
	Depth int
	// MaxCells caps the candidate set before filtering (default 300).
	MaxCells int
	// DisableFilter turns the Theorem II.1 pruning off (for the
	// ablation benchmark).
	DisableFilter bool
}

func (o Options) withDefaults() Options {
	if o.Depth == 0 {
		o.Depth = 6
	}
	if o.MaxCells == 0 {
		o.MaxCells = 300
	}
	return o
}

// Result is an extracted sub-graph.
type Result struct {
	// Cells are the kept combinational cells, in module cell order.
	Cells []*rtlil.Cell
	// IDs are the Graph ids of Cells (ascending).
	IDs []int32
	// Order holds Cells in topological order, drivers before readers.
	Order []*rtlil.Cell
	// Inputs are the free bits of the sub-graph: bits read by kept
	// cells but not driven inside it (canonical form).
	Inputs []rtlil.SigBit
	// CandidateCells is the pre-filter cell count (for statistics and
	// the ablation study).
	CandidateCells int
}
