package opt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rtlil"
)

// ReducePass is the opt_reduce equivalent: it merges structurally
// identical combinational cells (same type, parameters and canonical
// input signals) so they share one output, and consolidates $pmux cells
// whose candidate words repeat by OR-ing the corresponding select bits.
// Both rewrites shrink the muxtrees the later passes traverse.
type ReducePass struct{}

// Name implements Pass.
func (ReducePass) Name() string { return "opt_reduce" }

// Run implements Pass.
func (ReducePass) Run(c *Ctx, m *rtlil.Module) (Result, error) {
	total := NewResult()
	for iter := 0; iter < 20; iter++ {
		if err := c.Err(); err != nil {
			return total, err
		}
		r := NewResult()
		r.Merge(mergeIdenticalCells(m))
		r.Merge(sharePmuxWords(m))
		total.Merge(r)
		if !r.Changed {
			break
		}
	}
	return total, nil
}

// mergeIdenticalCells keeps the first of every group of equivalent cells
// and aliases the others' outputs to it.
func mergeIdenticalCells(m *rtlil.Module) Result {
	res := NewResult()
	sm := rtlil.NewSigMap(m)
	seen := map[string]*rtlil.Cell{}
	for _, c := range append([]*rtlil.Cell(nil), m.Cells()...) {
		if rtlil.IsSequential(c.Type) {
			continue
		}
		key := cellKey(sm, c)
		first, dup := seen[key]
		if !dup {
			seen[key] = c
			continue
		}
		yNew := c.Port(rtlil.OutputPorts(c.Type)[0])
		yOld := first.Port(rtlil.OutputPorts(first.Type)[0])
		m.RemoveCell(c)
		m.Connect(yNew, yOld)
		sm.Add(yNew, yOld)
		res.bump("cells_merged", 1)
	}
	return res
}

// cellKey canonicalizes a cell for structural comparison. Commutative
// operators sort their operands so a&b merges with b&a.
func cellKey(sm *rtlil.SigMap, c *rtlil.Cell) string {
	var sb strings.Builder
	sb.WriteString(string(c.Type))
	params := make([]string, 0, len(c.Params))
	for k, v := range c.Params {
		params = append(params, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(params)
	sb.WriteString("|")
	sb.WriteString(strings.Join(params, ","))

	ports := rtlil.InputPorts(c.Type)
	rendered := make(map[string]string, len(ports))
	for _, p := range ports {
		rendered[p] = sm.Map(c.Port(p)).String()
	}
	if commutative(c.Type) {
		a, b := rendered["A"], rendered["B"]
		if b < a {
			rendered["A"], rendered["B"] = b, a
		}
	}
	for _, p := range ports {
		sb.WriteString("|")
		sb.WriteString(rendered[p])
	}
	return sb.String()
}

func commutative(t rtlil.CellType) bool {
	switch t {
	case rtlil.CellAnd, rtlil.CellOr, rtlil.CellXor, rtlil.CellXnor,
		rtlil.CellAdd, rtlil.CellMul, rtlil.CellEq, rtlil.CellNe,
		rtlil.CellLogicAnd, rtlil.CellLogicOr:
		return true
	}
	return false
}

// sharePmuxWords rewrites $pmux cells with repeated candidate words: the
// duplicate words' select bits are OR-ed into one. This is sound for
// equal words regardless of priority, since whichever of the merged
// selects fires the result is the same word.
func sharePmuxWords(m *rtlil.Module) Result {
	res := NewResult()
	sm := rtlil.NewSigMap(m)
	for _, c := range append([]*rtlil.Cell(nil), m.Cells()...) {
		if c.Type != rtlil.CellPmux {
			continue
		}
		sw := c.Param("S_WIDTH")
		s := c.Port("S")
		groups := map[string][]int{}
		var order []string
		for i := 0; i < sw; i++ {
			key := sm.Map(c.PmuxWord(i)).String()
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], i)
		}
		if len(order) == sw {
			continue // all words distinct
		}
		var words []rtlil.SigSpec
		var sels rtlil.SigSpec
		for _, key := range order {
			idxs := groups[key]
			words = append(words, c.PmuxWord(idxs[0]))
			sel := rtlil.SigSpec{s[idxs[0]]}
			for _, i := range idxs[1:] {
				sel = m.Or(sel, rtlil.SigSpec{s[i]})
			}
			sels = append(sels, sel[0])
		}
		y := c.Port("Y")
		a := c.Port("A")
		m.RemoveCell(c)
		if len(words) == 1 {
			m.AddMux("", a, words[0], sels, y)
		} else {
			m.AddPmux("", a, words, sels, y)
		}
		res.bump("pmux_words_shared", 1)
	}
	return res
}
