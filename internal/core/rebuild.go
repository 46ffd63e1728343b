package core

import (
	"fmt"
	"sort"

	"repro/internal/bdd"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// RebuildOptions tunes the muxtree restructuring (paper Algorithm 1).
type RebuildOptions struct {
	// MaxSelectorBits skips trees whose collected selector is wider
	// than this (default 24).
	MaxSelectorBits int
	// MaxPatterns skips trees with more than this many rows
	// (default 512).
	MaxPatterns int
}

func (o RebuildOptions) withDefaults() RebuildOptions {
	if o.MaxSelectorBits == 0 {
		o.MaxSelectorBits = 24
	}
	if o.MaxPatterns == 0 {
		o.MaxPatterns = 512
	}
	return o
}

// RebuildStats counts restructuring activity.
type RebuildStats struct {
	TreesExamined   int
	TreesEligible   int
	TreesRebuilt    int
	MuxesRemoved    int
	MuxesAdded      int
	EqGatesBypassed int
}

// String renders the counters.
func (s RebuildStats) String() string {
	return fmt.Sprintf("examined=%d eligible=%d rebuilt=%d muxes=%d->%d eqs=%d",
		s.TreesExamined, s.TreesEligible, s.TreesRebuilt, s.MuxesRemoved, s.MuxesAdded, s.EqGatesBypassed)
}

// cube is a partial selector assignment: bit -> required value.
type cube map[rtlil.SigBit]rtlil.State

func (c cube) clone() cube {
	out := make(cube, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// restrict merges other into c; the second result is false on conflict
// (the row is unreachable).
func (c cube) restrict(other cube) (cube, bool) {
	out := c.clone()
	for k, v := range other {
		if old, ok := out[k]; ok && old != v {
			return nil, false
		}
		out[k] = v
	}
	return out, true
}

// row is one priority table row: when the cube matches, the tree yields
// the data signal.
type row struct {
	when cube
	data rtlil.SigSpec
}

// treeInfo is the analysis result for one muxtree.
type treeInfo struct {
	root     *rtlil.Cell
	cells    []*rtlil.Cell // all mux cells of the tree
	ctrlSrcs []*rtlil.Cell // eq/logic_not cells driving tree controls
	rows     []row
	selBits  []rtlil.SigBit
	width    int
}

// RebuildPass implements paper §III: it identifies case-statement
// muxtrees (every control an equality test of one selector signal),
// re-expresses them as a priority pattern table, builds an ADD with the
// greedy heuristic, applies the cost check of Algorithm 1, and re-emits
// the tree as muxes over the selector bits. Disconnected comparison
// gates are left for opt_clean (RemoveUnusedCell in the paper).
type RebuildPass struct {
	Opts RebuildOptions
	// LastStats holds the counters of the most recent Run.
	LastStats RebuildStats
}

// Name implements opt.Pass.
func (p *RebuildPass) Name() string { return "smartly_rebuild" }

// Run implements opt.Pass.
func (p *RebuildPass) Run(ec *opt.Ctx, m *rtlil.Module) (opt.Result, error) {
	o := p.Opts.withDefaults()
	p.LastStats = RebuildStats{}
	res := opt.NewResult()

	ix := rtlil.NewIndex(m)

	// Visit muxes top-down (roots first, then down the tree edges) so
	// the largest eligible tree wins; an ineligible tree still gives
	// its subtrees a chance — a case chain buried under unrelated
	// muxes is found at its own head.
	var order []*rtlil.Cell
	inOrder := map[*rtlil.Cell]bool{}
	var descend func(c *rtlil.Cell)
	descend = func(c *rtlil.Cell) {
		if inOrder[c] {
			return
		}
		inOrder[c] = true
		order = append(order, c)
		ports := []rtlil.SigSpec{c.Port("A")}
		if c.Type == rtlil.CellMux {
			ports = append(ports, c.Port("B"))
		} else {
			for i := 0; i < c.Param("S_WIDTH"); i++ {
				ports = append(ports, c.PmuxWord(i))
			}
		}
		for _, sig := range ports {
			if child := opt.TreeChild(ix, sig); child != nil {
				descend(child)
			}
		}
	}
	for _, c := range append([]*rtlil.Cell(nil), m.Cells()...) {
		if (c.Type == rtlil.CellMux || c.Type == rtlil.CellPmux) && opt.IsMuxRoot(ix, c) {
			descend(c)
		}
	}

	consumed := map[*rtlil.Cell]bool{}
	for _, c := range order {
		if err := ec.Err(); err != nil {
			return res, err
		}
		if consumed[c] {
			continue
		}
		p.LastStats.TreesExamined++
		info := p.analyzeTree(ix, c, o, consumed)
		if info == nil {
			continue
		}
		p.LastStats.TreesEligible++
		if p.rebuildTree(m, ix, info) {
			p.LastStats.TreesRebuilt++
			for _, tc := range info.cells {
				consumed[tc] = true
			}
			res.Changed = true
			res.Details["trees_rebuilt"]++
		}
	}
	return res, nil
}

// analyzeTree checks the Algorithm 1 line-2 conditions (OnlyEq and
// SingleCtrl) and flattens the tree into a priority row table. Cells in
// consumed (already rebuilt this run) are treated as leaves.
func (p *RebuildPass) analyzeTree(ix *rtlil.Index, root *rtlil.Cell, o RebuildOptions, consumed map[*rtlil.Cell]bool) *treeInfo {
	info := &treeInfo{root: root, width: len(root.Port("Y"))}
	var selectorWire *rtlil.Wire

	// condOf derives the cube under which a control bit is 1.
	condOf := func(ctrl rtlil.SigBit) (cube, *rtlil.Cell) {
		ctrl = ix.MapBit(ctrl)
		if ctrl.IsConst() {
			return nil, nil
		}
		d := ix.DriverCell(ctrl)
		if d == nil {
			// A raw selector bit used directly as control.
			return cube{ctrl: rtlil.S1}, nil
		}
		switch d.Type {
		case rtlil.CellEq:
			a, b := ix.Map(d.Port("A")), ix.Map(d.Port("B"))
			if !a.IsFullyConst() && b.IsFullyConst() {
				return cubeFromEq(a, b), d
			}
			if a.IsFullyConst() && !b.IsFullyConst() {
				return cubeFromEq(b, a), d
			}
		case rtlil.CellLogicNot:
			a := ix.Map(d.Port("A"))
			if !a.HasConst() {
				c := cube{}
				for _, bit := range a {
					if old, dup := c[bit]; dup && old != rtlil.S0 {
						return nil, nil
					}
					c[bit] = rtlil.S0
				}
				return c, d
			}
		}
		return nil, nil
	}

	checkSelector := func(c cube) bool {
		for bit := range c {
			if bit.Wire == nil {
				return false
			}
			if selectorWire == nil {
				selectorWire = bit.Wire
			} else if selectorWire != bit.Wire {
				return false // SingleCtrl violated
			}
		}
		return true
	}

	// cellConds derives the branch cubes of a mux/pmux cell, or nil if
	// any control fails the OnlyEq / SingleCtrl conditions.
	cellConds := func(c *rtlil.Cell) ([]cube, []*rtlil.Cell) {
		ctrls := c.Port("S")
		conds := make([]cube, len(ctrls))
		var srcs []*rtlil.Cell
		for i, bit := range ctrls {
			cnd, src := condOf(bit)
			if cnd == nil || !checkSelector(cnd) {
				return nil, nil
			}
			conds[i] = cnd
			if src != nil {
				srcs = append(srcs, src)
			}
		}
		return conds, srcs
	}

	// flatten produces the priority rows of a tree-edge signal. A child
	// whose controls are not eq-cubes on the selector becomes an opaque
	// leaf (its subtree is left untouched and may be rebuilt on its
	// own later).
	var flatten func(sig rtlil.SigSpec, guard cube) []row
	flatten = func(sig rtlil.SigSpec, guard cube) []row {
		child := opt.TreeChild(ix, sig)
		if child == nil || consumed[child] {
			return []row{{when: guard, data: ix.Map(sig)}}
		}
		conds, srcs := cellConds(child)
		if conds == nil {
			return []row{{when: guard, data: ix.Map(sig)}}
		}
		info.cells = append(info.cells, child)
		info.ctrlSrcs = append(info.ctrlSrcs, srcs...)
		var rows []row
		branch := func(cnd cube, data rtlil.SigSpec) []row {
			g, feasible := guard.restrict(cnd)
			if !feasible {
				return nil // branch unreachable under the guard
			}
			return flatten(data, g)
		}
		switch child.Type {
		case rtlil.CellMux:
			rows = append(rows, branch(conds[0], child.Port("B"))...)
			rows = append(rows, flatten(child.Port("A"), guard)...)
		case rtlil.CellPmux:
			sw := child.Param("S_WIDTH")
			// Ascending priority: the highest-index word wins, so it
			// comes first in the priority table.
			for i := sw - 1; i >= 0; i-- {
				rows = append(rows, branch(conds[i], child.PmuxWord(i))...)
			}
			rows = append(rows, flatten(child.Port("A"), guard)...)
		}
		return rows
	}

	// The root cell itself must be eligible, otherwise there is no tree.
	conds, srcs := cellConds(root)
	if conds == nil {
		return nil
	}
	info.cells = append(info.cells, root)
	info.ctrlSrcs = append(info.ctrlSrcs, srcs...)
	var rows []row
	switch root.Type {
	case rtlil.CellMux:
		if g, feasible := (cube{}).restrict(conds[0]); feasible {
			rows = append(rows, flatten(root.Port("B"), g)...)
		}
		rows = append(rows, flatten(root.Port("A"), cube{})...)
	case rtlil.CellPmux:
		sw := root.Param("S_WIDTH")
		for i := sw - 1; i >= 0; i-- {
			if g, feasible := (cube{}).restrict(conds[i]); feasible {
				rows = append(rows, flatten(root.PmuxWord(i), g)...)
			}
		}
		rows = append(rows, flatten(root.Port("A"), cube{})...)
	}
	if len(rows) == 0 || len(rows) > o.MaxPatterns {
		return nil
	}
	if len(info.cells) < 2 && root.Type == rtlil.CellMux {
		return nil // single plain mux: nothing to gain
	}

	// Collect selector bits across all rows, deterministically ordered.
	bitSet := map[rtlil.SigBit]bool{}
	for _, r := range rows {
		for b := range r.when {
			bitSet[b] = true
		}
	}
	if len(bitSet) == 0 || len(bitSet) > o.MaxSelectorBits {
		return nil
	}
	for b := range bitSet {
		info.selBits = append(info.selBits, b)
	}
	sort.Slice(info.selBits, func(i, j int) bool {
		bi, bj := info.selBits[i], info.selBits[j]
		if bi.Wire.Name != bj.Wire.Name {
			return bi.Wire.Name < bj.Wire.Name
		}
		return bi.Offset < bj.Offset
	})
	info.rows = rows
	return info
}

func cubeFromEq(sig, konst rtlil.SigSpec) cube {
	c := cube{}
	for i, b := range sig {
		if b.IsConst() {
			return nil
		}
		v := konst[i].Const
		if v != rtlil.S0 && v != rtlil.S1 {
			return nil
		}
		if old, dup := c[b]; dup && old != v {
			return nil
		}
		c[b] = v
	}
	return c
}

// rebuildTree runs the greedy ADD construction, the cost check, and the
// physical rewrite.
func (p *RebuildPass) rebuildTree(m *rtlil.Module, ix *rtlil.Index, info *treeInfo) bool {
	varIdx := map[rtlil.SigBit]int{}
	for i, b := range info.selBits {
		varIdx[b] = i
	}
	// Terminals: deduplicate data words.
	termID := map[string]int{}
	var termSigs []rtlil.SigSpec
	patterns := make([]bdd.Pattern, 0, len(info.rows))
	for _, r := range info.rows {
		key := r.data.String()
		id, ok := termID[key]
		if !ok {
			id = len(termSigs)
			termID[key] = id
			termSigs = append(termSigs, r.data)
		}
		bits := make([]bdd.PatBit, len(info.selBits))
		for i := range bits {
			bits[i] = bdd.Any
		}
		for b, v := range r.when {
			if v == rtlil.S1 {
				bits[varIdx[b]] = bdd.One
			} else {
				bits[varIdx[b]] = bdd.Zero
			}
		}
		patterns = append(patterns, bdd.Pattern{Bits: bits, Term: id})
	}

	add := bdd.BuildGreedy(patterns, len(info.selBits))

	// Cost model (Algorithm 1's Check): compare AND-node estimates.
	// A W-bit mux costs ~3W AND nodes; an eq-against-constant of width
	// k costs ~k-1. Comparison gates count only if the tree is their
	// sole fanout (otherwise they survive the rewrite).
	w := info.width
	before := 0
	for _, c := range info.cells {
		branches := 1
		if c.Type == rtlil.CellPmux {
			branches = c.Param("S_WIDTH")
		}
		before += 3 * w * branches
	}
	removableEqs := 0
	seenSrc := map[*rtlil.Cell]bool{}
	for _, src := range info.ctrlSrcs {
		if seenSrc[src] {
			continue
		}
		seenSrc[src] = true
		solo := true
		for _, b := range ix.Map(src.Port("Y")) {
			if ix.FanoutCount(b) != 1 {
				solo = false
			}
		}
		if solo {
			removableEqs++
			before += len(src.Port("A")) - 1
			if len(src.Port("A")) == 1 {
				before++
			}
		}
	}
	after := 3 * w * add.CountNodes()
	if after >= before {
		return false
	}

	// Physical rewrite: emit the ADD as muxes on the selector bits.
	built := map[*bdd.Node]rtlil.SigSpec{}
	var emit func(n *bdd.Node) rtlil.SigSpec
	emit = func(n *bdd.Node) rtlil.SigSpec {
		if sig, ok := built[n]; ok {
			return sig
		}
		var sig rtlil.SigSpec
		if n.IsLeaf() {
			sig = termSigs[n.Term]
		} else {
			lo := emit(n.Lo)
			hi := emit(n.Hi)
			sig = m.Mux(lo, hi, rtlil.SigSpec{info.selBits[n.Var]})
			p.LastStats.MuxesAdded++
		}
		built[n] = sig
		return sig
	}
	newOut := emit(add)

	y := info.root.Port("Y")
	for _, c := range info.cells {
		m.RemoveCell(c)
		p.LastStats.MuxesRemoved++
	}
	m.Connect(y, newOut.Resize(len(y), false))
	p.LastStats.EqGatesBypassed += removableEqs
	return true
}
