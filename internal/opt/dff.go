package opt

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/cec"
	"repro/internal/rtlil"
	"repro/internal/sim"
)

// DffOptions tunes the register sweep pass.
type DffOptions struct {
	// K is the induction depth of the sequential proof (default 2).
	K int
	// VerifyConflicts bounds the SAT effort of the proof (default
	// 200000); exhaustion rejects the sweep.
	VerifyConflicts int64
}

func (o DffOptions) withDefaults() DffOptions {
	if o.K == 0 {
		o.K = 2
	}
	if o.VerifyConflicts == 0 {
		o.VerifyConflicts = 200000
	}
	return o
}

// DffPass is the register sweep (opt_dff): it removes registers that
// are provably stuck at their zero reset value (D tied to constant 0,
// fed-back self-loops, and whole cones of such registers — a greatest
// fixpoint over three-valued simulation), removes registers whose Q is
// never observed, merges structurally identical registers (same D and
// CLK after SigMap canonicalization) and propagates the freed
// constants into reader ports.
//
// Same verify-before-rewire contract as opt_egraph, lifted to sequential
// logic: the sweep runs on a clone first, and only once the k-induction
// miter (cec.CheckSequential) proves the clone sequentially equivalent
// to the original does the clone's netlist replace the module's
// (Module.MoveFrom). Any proof failure rejects the whole sweep and
// leaves the module untouched.
//
// Modules with flip-flops on more than one clock are skipped
// (dff_multiclock counter): the induction miter models a single shared
// clock tick.
type DffPass struct {
	Opts DffOptions
}

// Name implements Pass.
func (DffPass) Name() string { return "opt_dff" }

// Run implements Pass.
func (p DffPass) Run(c *Ctx, m *rtlil.Module) (res Result, err error) {
	o := p.Opts.withDefaults()
	res = NewResult()
	if len(m.SeqCells()) == 0 {
		return res, nil
	}
	if _, ok := rtlil.SingleClock(m); !ok {
		res.Details["dff_multiclock"] = 1
		return res, nil
	}
	var sweep time.Duration
	var proof cec.SeqTimes
	defer func() { res.Stages = dffStages(sweep, proof) }()
	// Verify-before-rewire: sweep a clone, prove it, then keep it.
	work := m.Clone()
	wres, err := timedSweep(work, &sweep)
	if err != nil {
		return res, err
	}
	if !wres.Changed {
		return res, nil
	}
	seqOpts := &cec.SeqOptions{K: o.K, MaxConflicts: o.VerifyConflicts}
	if err := cec.CheckSequential(m, work, seqOpts, &proof); err != nil {
		// Counterexample, inconclusive induction or unencodable logic:
		// the contract is the same — no proof, no rewrite.
		res.Details["dff_verify_rejected"] = 1
		return res, nil
	}
	m.MoveFrom(work)
	res.Merge(wres)
	res.Details["dff_proved"] = 1
	return res, nil
}

// timedSweep is SweepDffs charging its wall time to *d.
func timedSweep(m *rtlil.Module, d *time.Duration) (Result, error) {
	t := time.Now()
	res, err := SweepDffs(m)
	*d += time.Since(t)
	return res, err
}

// dffStages names the pass' stage times for Result.Stages: the sweep,
// then the phases of the sequential proof. Zero times are left out.
func dffStages(sweep time.Duration, proof cec.SeqTimes) map[string]time.Duration {
	st := map[string]time.Duration{
		"sweep":     sweep,
		"simulate":  proof.Simulate,
		"bmc":       proof.BMC,
		"refine":    proof.Refine,
		"induction": proof.Induction,
	}
	maps.DeleteFunc(st, func(_ string, d time.Duration) bool { return d == 0 })
	return st
}

// SweepDffs is the sweep DffPass proves, applied to m in place without
// the proof: it runs the three rewrite classes to a joint fixpoint and
// then propagates freed constants. It is a pure deterministic function
// of the module, so DffPass keeps exactly what it produces on a clone
// whenever the proof succeeds. No pass runs it unproved; it is exported
// for checking the checker on sweeps no proof has vetted.
func SweepDffs(m *rtlil.Module) (Result, error) {
	res := NewResult()
	for {
		unused := removeUnusedDffs(m)
		res.bump("dff_unused", unused)
		consts, err := removeConstDffs(m)
		if err != nil {
			return res, err
		}
		res.bump("dff_const", consts)
		merged := mergeDffs(m)
		res.bump("dff_merged", merged)
		if unused+consts+merged == 0 {
			break
		}
	}
	if res.Changed {
		res.bump("dff_const_bits", propagateFreedConsts(m))
		res.bump("dff_removed", res.Details["dff_unused"]+res.Details["dff_const"]+res.Details["dff_merged"])
	}
	return res, nil
}

// removeUnusedDffs drops registers whose Q bits are neither module
// outputs nor read by any other cell (self-reads through the register's
// own D don't count). Chains of such registers fall in successive
// rounds.
func removeUnusedDffs(m *rtlil.Module) int {
	n := 0
	for {
		ix := rtlil.NewIndex(m)
		var dead []*rtlil.Cell
		for _, c := range m.SeqCells() {
			used := false
			for _, b := range ix.Map(c.Port("Q")) {
				if b.IsConst() {
					continue
				}
				if ix.IsOutputBit(b) {
					used = true
					break
				}
				for _, r := range ix.Readers(b) {
					if r.Cell != c {
						used = true
						break
					}
				}
				if used {
					break
				}
			}
			if !used {
				dead = append(dead, c)
			}
		}
		if len(dead) == 0 {
			return n
		}
		for _, c := range dead {
			m.RemoveCell(c)
		}
		n += len(dead)
	}
}

// removeConstDffs removes registers provably stuck at the all-zero
// reset state: the greatest fixpoint of "assume these registers are 0,
// all other state and every input is x — does each candidate's D still
// evaluate to 0?" under three-valued simulation. This covers D tied to
// constant 0, self-loops (D = own Q) and cones of mutually-constant
// registers. Registers whose D is a nonzero constant are deliberately
// not candidates: they leave reset after one cycle, so replacing them
// is unsound under the zero-reset semantics (the induction miter would
// refute it).
func removeConstDffs(m *rtlil.Module) (int, error) {
	dffs := m.SeqCells()
	if len(dffs) == 0 {
		return 0, nil
	}
	s, err := sim.NewSimulator(m)
	if err != nil {
		return 0, err
	}
	cand := map[*rtlil.Cell]bool{}
	for _, c := range dffs {
		cand[c] = true
	}
	for len(cand) > 0 {
		inputs := map[rtlil.SigBit]rtlil.State{}
		for c := range cand {
			for _, b := range c.Port("Q") {
				if !b.IsConst() {
					inputs[b] = rtlil.S0
				}
			}
		}
		vals, err := s.Eval(inputs)
		if err != nil {
			return 0, err
		}
		dropped := false
		for _, c := range dffs {
			if !cand[c] {
				continue
			}
			for _, st := range s.EvalSig(vals, c.Port("D")) {
				if st != rtlil.S0 {
					delete(cand, c)
					dropped = true
					break
				}
			}
		}
		if !dropped {
			break
		}
	}
	n := 0
	for _, c := range dffs {
		if !cand[c] {
			continue
		}
		q := c.Port("Q")
		m.RemoveCell(c)
		var lhs, rhs rtlil.SigSpec
		for _, b := range q {
			if !b.IsConst() {
				lhs = append(lhs, b)
				rhs = append(rhs, rtlil.ConstBit(rtlil.S0))
			}
		}
		if len(lhs) > 0 {
			m.Connect(lhs, rhs)
		}
		n++
	}
	return n, nil
}

// mergeDffs merges registers with identical canonical D and CLK: the
// earliest cell in insertion order is kept and every duplicate's Q is
// aliased onto it. Aliases created by one round can equalize further D
// signals, so the merge iterates to a fixpoint.
func mergeDffs(m *rtlil.Module) int {
	n := 0
	for {
		sm := rtlil.NewSigMap(m)
		keeper := map[string]*rtlil.Cell{}
		var dups [][2]*rtlil.Cell
		for _, c := range m.SeqCells() {
			key := fmt.Sprintf("%s|%s",
				sm.Map(rtlil.SigSpec{c.Port("CLK")[0]}),
				sm.Map(c.Port("D")))
			if k, ok := keeper[key]; ok {
				dups = append(dups, [2]*rtlil.Cell{k, c})
			} else {
				keeper[key] = c
			}
		}
		if len(dups) == 0 {
			return n
		}
		for _, p := range dups {
			keep, dup := p[0], p[1]
			q, kq := dup.Port("Q"), keep.Port("Q")
			m.RemoveCell(dup)
			var lhs, rhs rtlil.SigSpec
			for i, b := range q {
				if !b.IsConst() {
					lhs = append(lhs, b)
					rhs = append(rhs, kq[i])
				}
			}
			if len(lhs) > 0 {
				m.Connect(lhs, rhs)
			}
			n++
		}
	}
}

// propagateFreedConsts rewrites cell input ports whose bits canonicalize
// to constants (freed by the register removals above), so downstream
// passes see the constants directly instead of through connection
// aliases. Returns the number of rewritten bits.
func propagateFreedConsts(m *rtlil.Module) int {
	sm := rtlil.NewSigMap(m)
	n := 0
	for _, c := range m.Cells() {
		for _, port := range rtlil.InputPorts(c.Type) {
			sig := c.Port(port)
			if sig == nil {
				continue
			}
			changed := false
			mapped := make(rtlil.SigSpec, len(sig))
			for i, b := range sig {
				mb := sm.Bit(b)
				if !b.IsConst() && mb.IsConst() {
					mapped[i] = mb
					changed = true
					n++
				} else {
					mapped[i] = b
				}
			}
			if changed {
				c.SetPort(port, mapped)
			}
		}
	}
	return n
}

func init() {
	Register(PassSpec{
		Name:    "opt_dff",
		Summary: "register sweep: constant/unused removal and duplicate merge, induction-proved",
		Options: []OptionSpec{
			{Key: "k", Kind: KindInt, Positive: true, Default: "2", Help: "induction depth of the sequential equivalence proof"},
			{Key: "verify_conflicts", Kind: KindInt64, Positive: true, Default: "200000", Help: "SAT conflict budget for the proof; exhaustion rejects the sweep"},
		},
		Build: func(a Args) (Pass, error) {
			return DffPass{Opts: DffOptions{
				K:               a.Int("k", 0),
				VerifyConflicts: a.Int64("verify_conflicts", 0),
			}}, nil
		},
	})
}
