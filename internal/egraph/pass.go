package egraph

import (
	"fmt"
	"time"

	"repro/internal/cec"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// Defaults for the saturation budgets.
const (
	DefaultIters     = 8
	DefaultNodeLimit = 20000
	// DefaultVerifyConflicts bounds the SAT effort per equivalence
	// proof. The naive CDCL solver hits an exponential cliff on wide
	// multiplier miters (a 6-bit distributivity proof needs ~50k
	// conflicts, an 8-bit one is out of reach), so the default keeps the
	// pass's worst case bounded: a blowout is a sound rejection, not a
	// hang.
	DefaultVerifyConflicts = 100000
)

// Options configures the opt_egraph pass. The zero value uses the
// default budgets.
type Options struct {
	// Iters bounds the saturation iterations (0 = DefaultIters).
	Iters int
	// NodeLimit bounds the e-graph size in nodes (0 = DefaultNodeLimit).
	NodeLimit int
	// VerifyConflicts bounds the SAT effort per proof; a blowout counts
	// as a failed proof. 0 = DefaultVerifyConflicts, negative =
	// unlimited.
	VerifyConflicts int64
}

func (o Options) withDefaults() Options {
	if o.Iters <= 0 {
		o.Iters = DefaultIters
	}
	if o.NodeLimit <= 0 {
		o.NodeLimit = DefaultNodeLimit
	}
	if o.VerifyConflicts == 0 {
		o.VerifyConflicts = DefaultVerifyConflicts
	} else if o.VerifyConflicts < 0 {
		o.VerifyConflicts = 0 // cec: 0 means unlimited
	}
	return o
}

// Pass is the opt_egraph pass: verified e-graph rewriting of the
// datapath region.
type Pass struct {
	Opts Options

	// failedProofs caches miters (by canonical hash of both sides) that
	// already exhausted their SAT budget, so an enclosing fixpoint does
	// not re-pay the blowout every iteration for a cone that keeps
	// being re-planned. Pass instances persist across fixpoint
	// iterations within one module run, which is exactly this cache's
	// lifetime.
	failedProofs map[string]bool
}

// Name implements opt.Pass.
func (p *Pass) Name() string { return "opt_egraph" }

// Run ingests the module's datapath region, saturates the e-graph,
// extracts the cheapest realization, proves every changed cone
// equivalent, and only then rewires the module. A failed proof — a
// counterexample, a SAT budget blowout, an unmappable cell such as
// $div — rejects that root's rewrite; the remaining proven roots still
// apply (a skipped root keeps its original cone, which never
// invalidates the other proofs).
func (p *Pass) Run(c *opt.Ctx, m *rtlil.Module) (opt.Result, error) {
	res := opt.NewResult()
	o := p.Opts.withDefaults()
	b, err := BuildModule(m)
	if err != nil {
		return res, fmt.Errorf("opt_egraph: %w", err)
	}
	if b == nil {
		return res, nil
	}
	roots := b.Roots()
	if len(roots) == 0 {
		return res, nil
	}
	cm := NewCostModel()
	origCost := b.OriginalCost(cm, roots)

	g := b.EGraph()
	iters, applied := Saturate(g, ruleLibrary(), o.Iters, o.NodeLimit)
	set := func(key string, v int) {
		if v != 0 {
			res.Details[key] = v
		}
	}
	set("egraph_cells", len(b.cells))
	set("egraph_classes", g.ClassCount())
	set("egraph_nodes", g.NodeCount())
	set("egraph_iters", iters)
	set("egraph_rules_applied", applied)

	ext := Extract(g, cm)
	rw := Plan(b, ext)
	if len(rw.Rewired) == 0 {
		return res, nil
	}
	rootCls := make([]ClassID, len(roots))
	for i, rc := range roots {
		rootCls[i] = rc.cls
	}
	extCost := ext.TotalCost(rootCls)
	// Strict improvement only: a tie-churning rewrite would stop the
	// enclosing fixpoint from converging, and buys nothing.
	if extCost >= origCost {
		return res, nil
	}

	if p.failedProofs == nil {
		p.failedProofs = map[string]bool{}
	}
	opts := &cec.Options{RandomRounds: 2, MaxConflicts: o.VerifyConflicts}
	start := time.Now()
	rejected := 0
	for _, rc := range append([]*regionCell(nil), rw.Rewired...) {
		oldM, newM := rw.MiterModules(rc)
		key := rtlil.CanonicalHash(oldM) + "|" + rtlil.CanonicalHash(newM)
		if p.failedProofs[key] {
			rw.Reject(rc)
			rejected++
			continue
		}
		if err := cec.Check(oldM, newM, opts); err != nil {
			c.Logf("opt_egraph: proof failed for %s, rejecting its rewrite: %v", rc.cell.Name, err)
			p.failedProofs[key] = true
			rw.Reject(rc)
			rejected++
		}
	}
	set("egraph_verify_rejected", rejected)
	if len(rw.Rewired) == 0 {
		return res, nil
	}
	c.Logf("opt_egraph: proved %d rewritten cones in %v (%d rejected)",
		len(rw.Rewired), time.Since(start).Round(time.Microsecond), rejected)
	set("egraph_verified", len(rw.Rewired))

	emitted := rw.Apply()
	res.Changed = true
	set("egraph_rewired", len(rw.Rewired))
	set("egraph_cells_emitted", emitted)
	if saved := origCost - extCost; saved > 0 {
		set("egraph_cost_saved", int(saved))
	}
	return res, nil
}
