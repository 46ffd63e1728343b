package cec

// The reference sequential checker: the clause-tied unroller and the
// sim.Sequential harvest that CheckSequential used before the product
// machine moved into one structurally hashed AIG. Each time frame maps
// both machines into separate Tseitin copies tied together by clauses
// (frame f's Q to frame f-1's D, the two machines' inputs per key), and
// the reset state and the invariants enter as assumptions on those
// copies. DiffSequential runs it beside CheckSequential.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"

	"repro/internal/aig"
	"repro/internal/rtlil"
	"repro/internal/sat"
	"repro/internal/sim"
)

// refFrame is one time step of the reference unrolling.
type refFrame struct {
	ca, cb     *aig.CNF
	in         map[string]sat.Lit // tied input literal per key
	regA, regB []sat.Lit          // Q literal per register bit
	dA, dB     []sat.Lit          // D literal per register bit
	outA, outB []sat.Lit          // output literal per out key
	diff       sat.Lit            // OR over output-pair XORs
	invLit     map[int]sat.Lit    // invariant index -> assumption literal
}

// refUnroller owns the incremental solver and the growing frame stack.
type refUnroller struct {
	o       SeqOptions
	solver  *sat.Solver
	a, b    *machine
	bInIdx  map[string]int
	bOutIdx map[string]int
	frames  []*refFrame
	invs    []invariant
}

func newRefUnroller(a, b *machine, o SeqOptions) *refUnroller {
	u := &refUnroller{
		o:       o,
		solver:  sat.NewSolver(),
		a:       a,
		b:       b,
		bInIdx:  map[string]int{},
		bOutIdx: map[string]int{},
	}
	u.solver.MaxConflicts = o.MaxConflicts
	for i, key := range b.pts.inKeys {
		u.bInIdx[key] = i
	}
	for i, key := range b.pts.outKeys {
		u.bOutIdx[key] = i
	}
	return u
}

func (u *refUnroller) tie(a, b sat.Lit) {
	u.solver.AddClause(a.Not(), b)
	u.solver.AddClause(a, b.Not())
}

// frame materializes time frames up to f and returns frame f.
func (u *refUnroller) frame(f int) *refFrame {
	for len(u.frames) <= f {
		u.addFrame()
	}
	return u.frames[f]
}

func (u *refUnroller) addFrame() {
	s := u.solver
	fr := &refFrame{
		ca:     aig.NewCNF(u.a.mp.G, s),
		cb:     aig.NewCNF(u.b.mp.G, s),
		in:     map[string]sat.Lit{},
		invLit: map[int]sat.Lit{},
	}
	// Primary inputs, tied across the two machines.
	for i, key := range u.a.pts.inKeys {
		la := fr.ca.SatLit(u.a.mp.LitOf(u.a.pts.inBits[i]))
		lb := fr.cb.SatLit(u.b.mp.LitOf(u.b.pts.inBits[u.bInIdx[key]]))
		u.tie(la, lb)
		fr.in[key] = la
	}
	// Register state and next-state literals.
	for _, r := range u.a.regs {
		fr.regA = append(fr.regA, fr.ca.SatLit(r.qLit))
		fr.dA = append(fr.dA, fr.ca.SatLit(r.dLit))
	}
	for _, r := range u.b.regs {
		fr.regB = append(fr.regB, fr.cb.SatLit(r.qLit))
		fr.dB = append(fr.dB, fr.cb.SatLit(r.dLit))
	}
	// Transition: this frame's state is the previous frame's next-state.
	if n := len(u.frames); n > 0 {
		prev := u.frames[n-1]
		for i := range fr.regA {
			u.tie(fr.regA[i], prev.dA[i])
		}
		for i := range fr.regB {
			u.tie(fr.regB[i], prev.dB[i])
		}
	}
	// Output miter: diff <-> OR over per-output XORs.
	var xs []sat.Lit
	for i, key := range u.a.pts.outKeys {
		la := fr.ca.SatLit(u.a.mp.LitOf(u.a.pts.outBits[i]))
		lb := fr.cb.SatLit(u.b.mp.LitOf(u.b.pts.outBits[u.bOutIdx[key]]))
		fr.outA = append(fr.outA, la)
		fr.outB = append(fr.outB, lb)
		x := sat.PosLit(s.NewVar())
		s.AddClause(x.Not(), la, lb)
		s.AddClause(x.Not(), la.Not(), lb.Not())
		s.AddClause(x, la.Not(), lb)
		s.AddClause(x, la, lb.Not())
		xs = append(xs, x)
	}
	diff := sat.PosLit(s.NewVar())
	for _, x := range xs {
		s.AddClause(x.Not(), diff)
	}
	s.AddClause(append([]sat.Lit{diff.Not()}, xs...)...)
	fr.diff = diff
	u.frames = append(u.frames, fr)
}

func (u *refUnroller) regLit(fr *refFrame, side, idx int) sat.Lit {
	if side == 0 {
		return fr.regA[idx]
	}
	return fr.regB[idx]
}

// resetAssumps returns the all-zero reset state of frame 0.
func (u *refUnroller) resetAssumps() []sat.Lit {
	fr := u.frame(0)
	out := make([]sat.Lit, 0, len(fr.regA)+len(fr.regB))
	for _, l := range fr.regA {
		out = append(out, l.Not())
	}
	for _, l := range fr.regB {
		out = append(out, l.Not())
	}
	return out
}

// invAssump returns the assumption literal enforcing invariant j at
// frame f (creating the indicator variable and clauses on first use).
func (u *refUnroller) invAssump(f, j int) sat.Lit {
	fr := u.frame(f)
	if l, ok := fr.invLit[j]; ok {
		return l
	}
	inv := u.invs[j]
	r := u.regLit(fr, inv.side, inv.idx)
	var l sat.Lit
	if inv.repSide < 0 {
		l = r.Not() // register bit == 0
	} else {
		s := u.regLit(fr, inv.repSide, inv.repIdx)
		e := sat.PosLit(u.solver.NewVar())
		u.solver.AddClause(e.Not(), r.Not(), s)
		u.solver.AddClause(e.Not(), r, s.Not())
		l = e
	}
	fr.invLit[j] = l
	return l
}

// violation returns an assumption literal forcing invariant j to be
// violated at frame f.
func (u *refUnroller) violation(f, j int) sat.Lit {
	fr := u.frame(f)
	inv := u.invs[j]
	r := u.regLit(fr, inv.side, inv.idx)
	if inv.repSide < 0 {
		return r // register bit == 1
	}
	s := u.regLit(fr, inv.repSide, inv.repIdx)
	x := sat.PosLit(u.solver.NewVar())
	u.solver.AddClause(x.Not(), r, s)
	u.solver.AddClause(x.Not(), r.Not(), s.Not())
	return x
}

// bmc searches for a counterexample at exactly depth d from reset.
func (u *refUnroller) bmc(d int) (*SeqNotEquivalentError, error) {
	fr := u.frame(d)
	assumps := append(u.resetAssumps(), fr.diff)
	switch u.solver.Solve(assumps...) {
	case sat.Unsat:
		return nil, nil
	case sat.Unknown:
		return nil, &UnknownError{Reason: fmt.Sprintf("BMC conflict budget exhausted at depth %d (MaxConflicts=%d)", d, u.o.MaxConflicts)}
	}
	return u.extractCex(d), nil
}

// extractCex reads the per-cycle input assignment and the first
// differing output out of a satisfying model.
func (u *refUnroller) extractCex(d int) *SeqNotEquivalentError {
	e := &SeqNotEquivalentError{Cycle: d}
	for f := 0; f <= d; f++ {
		fr := u.frames[f]
		in := map[string]bool{}
		for key, l := range fr.in {
			in[key] = u.solver.ValueLit(l)
		}
		e.Inputs = append(e.Inputs, in)
	}
	fr := u.frames[d]
	e.Output = "?"
	for i, key := range u.a.pts.outKeys {
		if u.solver.ValueLit(fr.outA[i]) != u.solver.ValueLit(fr.outB[i]) {
			e.Output = key
			break
		}
	}
	return e
}

// refineInvariants drops candidates until the set is 1-inductive.
func (u *refUnroller) refineInvariants(cands []invariant) []invariant {
	u.invs = cands
	active := make([]int, len(cands))
	for i := range active {
		active[i] = i
	}
	for {
		assumps := make([]sat.Lit, 0, len(active))
		for _, j := range active {
			assumps = append(assumps, u.invAssump(0, j))
		}
		var kept []int
		changed := false
		for _, j := range active {
			switch u.solver.Solve(append(assumps, u.violation(1, j))...) {
			case sat.Unsat:
				kept = append(kept, j)
			default: // Sat or Unknown: not (provably) inductive
				changed = true
			}
		}
		active = kept
		if !changed {
			break
		}
	}
	out := make([]invariant, 0, len(active))
	for _, j := range active {
		out = append(out, cands[j])
	}
	u.invs = out
	// Invalidate cached per-frame indicator literals: indices moved.
	for _, fr := range u.frames {
		fr.invLit = map[int]sat.Lit{}
	}
	return out
}

// induction runs the strengthened induction step at depth k.
func (u *refUnroller) induction(k int) error {
	var assumps []sat.Lit
	for f := 0; f <= k; f++ {
		fr := u.frame(f)
		for j := range u.invs {
			assumps = append(assumps, u.invAssump(f, j))
		}
		if f < k {
			assumps = append(assumps, fr.diff.Not())
		}
	}
	switch u.solver.Solve(append(assumps, u.frame(k).diff)...) {
	case sat.Unsat:
		return nil
	case sat.Unknown:
		return &UnknownError{Reason: fmt.Sprintf("induction conflict budget exhausted at k=%d (MaxConflicts=%d)", k, u.o.MaxConflicts)}
	}
	return &UnknownError{Reason: fmt.Sprintf("k-induction inconclusive at k=%d with %d invariants", k, len(u.invs))}
}

// refSimulate runs both machines from reset under shared random
// stimulus on sim.Sequential, drawing from the RNG in the order
// simulate does.
func refSimulate(ma, mb *rtlil.Module, a, b *machine, o SeqOptions) (*SeqNotEquivalentError, [][]uint64, [][]uint64, error) {
	simA, err := sim.NewSequential(ma)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cec: module %s: %w", ma.Name, err)
	}
	simB, err := sim.NewSequential(mb)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cec: module %s: %w", mb.Name, err)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	qA, qB := regBits(ma), regBits(mb)
	sigA := make([][]uint64, len(a.regs))
	sigB := make([][]uint64, len(b.regs))
	for round := 0; round < seqRounds; round++ {
		simA.Reset()
		simB.Reset()
		var history []map[string]uint64
		for cyc := 0; cyc < seqCycles; cyc++ {
			lanes := map[string]uint64{}
			inA := map[rtlil.SigBit]uint64{}
			inB := map[rtlil.SigBit]uint64{}
			for i, key := range a.pts.inKeys {
				v := rng.Uint64()
				lanes[key] = v
				inA[a.pts.inBits[i]] = v
			}
			for i, key := range b.pts.inKeys {
				inB[b.pts.inBits[i]] = lanes[key]
			}
			history = append(history, lanes)
			va := simA.Step(inA)
			vb := simB.Step(inB)
			for i, key := range a.pts.outKeys {
				xa := simA.Sig(va, rtlil.SigSpec{a.pts.outBits[i]})[0]
				var xb uint64
				for ib, kb := range b.pts.outKeys {
					if kb == key {
						xb = simB.Sig(vb, rtlil.SigSpec{b.pts.outBits[ib]})[0]
						break
					}
				}
				if xa != xb {
					lane := firstDiffLane(xa, xb)
					e := &SeqNotEquivalentError{Output: key, Cycle: cyc}
					for _, h := range history {
						in := map[string]bool{}
						for k, v := range h {
							in[k] = (v>>lane)&1 == 1
						}
						e.Inputs = append(e.Inputs, in)
					}
					return e, nil, nil, nil
				}
			}
			stA := simA.State()
			for i, q := range qA {
				sigA[i] = append(sigA[i], stA[simA.Index().MapBit(q)])
			}
			stB := simB.State()
			for i, q := range qB {
				sigB[i] = append(sigB[i], stB[simB.Index().MapBit(q)])
			}
		}
	}
	return nil, sigA, sigB, nil
}

// regBits lists a module's register Q bits in machine.regs order.
func regBits(m *rtlil.Module) []rtlil.SigBit {
	var out []rtlil.SigBit
	for _, c := range m.SeqCells() {
		for _, b := range c.Port("Q") {
			if !b.IsConst() {
				out = append(out, b)
			}
		}
	}
	return out
}

// refCheckSequential is CheckSequential on the reference unroller.
func refCheckSequential(a, b *rtlil.Module, opt *SeqOptions) error {
	o := opt.withDefaults()
	ma, mb, err := newMachines(a, b, false)
	if err != nil {
		return err
	}
	cex, sigA, sigB, err := refSimulate(a, b, ma, mb, o)
	if err != nil {
		return err
	}
	if cex != nil {
		return cex
	}
	u := newRefUnroller(ma, mb, o)
	// Stateless on both sides: frame 0 covers the whole behavior.
	if len(ma.regs) == 0 && len(mb.regs) == 0 {
		c, err := u.bmc(0)
		if err != nil {
			return err
		}
		if c != nil {
			return c
		}
		return nil
	}
	for d := 0; d < o.K; d++ {
		c, err := u.bmc(d)
		if err != nil {
			return err
		}
		if c != nil {
			return c
		}
	}
	if !o.noInvariants {
		u.refineInvariants(harvestInvariants(ma, mb, sigA, sigB))
	}
	return u.induction(o.K)
}

// verdictKind names the class of a check's verdict.
func verdictKind(err error) string {
	var cex *SeqNotEquivalentError
	var ne *NotEquivalentError
	var unk *UnknownError
	switch {
	case err == nil:
		return "proved"
	case errors.As(err, &cex), errors.As(err, &ne):
		return "counterexample"
	case errors.As(err, &unk):
		return "unknown"
	}
	return "error: " + err.Error()
}

// DiffSequential runs CheckSequential and the reference checker on one
// pair and describes the first way they disagree ("" when they agree):
// the verdict kind, the simulation signatures and harvested candidates,
// and the induction verdict and refined set under the unrefined
// candidates and under random claims, where speculative reduction must
// match the reference's assumptions even when the set is not inductive.
// It returns both verdicts for the caller's counterexample replay. Meant
// for unbounded checks: a conflict budget may decide the two unrollings'
// queries differently.
func DiffSequential(a, b *rtlil.Module, opt *SeqOptions) (got, want error, diff string) {
	got = CheckSequential(a, b, opt, nil)
	want = refCheckSequential(a, b, opt)
	if g, w := verdictKind(got), verdictKind(want); g != w {
		return got, want, fmt.Sprintf("verdict %s (%v), reference %s (%v)", g, got, w, want)
	}
	o := opt.withDefaults()
	ma, mb, err := newMachines(a, b, false)
	if err != nil {
		return got, want, ""
	}
	cex, sigA, sigB := simulate(ma, mb, o.Seed, seqRounds, seqCycles)
	rcex, rsigA, rsigB, err := refSimulate(a, b, ma, mb, o)
	if err != nil {
		return got, want, "reference simulation: " + err.Error()
	}
	if !reflect.DeepEqual(cex, rcex) {
		return got, want, fmt.Sprintf("simulation counterexample %v, reference %v", cex, rcex)
	}
	if cex != nil {
		return got, want, ""
	}
	if !reflect.DeepEqual(sigA, rsigA) || !reflect.DeepEqual(sigB, rsigB) {
		return got, want, "register signatures differ from sim.Sequential's"
	}
	cands := harvestInvariants(ma, mb, sigA, sigB)
	if rc := harvestInvariants(ma, mb, rsigA, rsigB); !reflect.DeepEqual(cands, rc) {
		return got, want, fmt.Sprintf("candidates %v, reference %v", cands, rc)
	}
	if len(ma.regs) == 0 && len(mb.regs) == 0 {
		return got, want, ""
	}
	// The formulas must agree for any invariant set, not only inductive
	// ones: the harvested candidates before refinement, and a seeded
	// random set of mostly false claims, where the equalities kept at
	// frames 1..k decide the induction.
	random := randomInvariants(ma, mb, rand.New(rand.NewSource(o.Seed)))
	for _, set := range []struct {
		name string
		invs []invariant
	}{{"unrefined candidates", cands}, {"random claims", random}} {
		u, ru := newUnroller(ma, mb, o.MaxConflicts), newRefUnroller(ma, mb, o)
		u.invs, ru.invs = set.invs, set.invs
		gi := u.induction(o.K, u.newFrame(u.freeState()))
		if g, w := verdictKind(gi), verdictKind(ru.induction(o.K)); g != w {
			return got, want, fmt.Sprintf("induction under %d %s: %s, reference %s", len(set.invs), set.name, g, w)
		}
		u, ru = newUnroller(ma, mb, o.MaxConflicts), newRefUnroller(ma, mb, o)
		u.refine(set.invs)
		if rr := ru.refineInvariants(set.invs); !slices.Equal(u.invs, rr) {
			return got, want, fmt.Sprintf("refinement of %d %s: %v, reference %v", len(set.invs), set.name, u.invs, rr)
		}
	}
	return got, want, ""
}

// randomInvariants claims, for each register bit in turn, with
// probability 1/4 that it is constant 0 and with probability 1/4 that it
// equals an earlier bit that is no member itself, so no representative
// is a member.
func randomInvariants(a, b *machine, rng *rand.Rand) []invariant {
	var free [][2]int
	var out []invariant
	for side, m := range []*machine{a, b} {
		for idx := range m.regs {
			switch r := rng.Intn(4); {
			case r == 0:
				out = append(out, invariant{side: side, idx: idx, repSide: -1})
			case r == 1 && len(free) > 0:
				rep := free[rng.Intn(len(free))]
				out = append(out, invariant{side: side, idx: idx, repSide: rep[0], repIdx: rep[1]})
			default:
				free = append(free, [2]int{side, idx})
			}
		}
	}
	return out
}
