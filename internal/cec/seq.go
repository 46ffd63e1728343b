package cec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/aig"
	"repro/internal/rtlil"
	"repro/internal/sat"
)

// Sequential equivalence checking by k-induction.
//
// Where Check cuts both modules at their flip-flops and matches them by
// cell name, CheckSequential treats registers as internal state: the
// two modules only need the same input/output ports, so register
// removals, merges and renamings (the opt_dff rewrite classes) are in
// scope. The model is the repository-wide sequential semantics: all
// registers reset to zero and advance together on a single clock.
//
// The proof unrolls the product machine (both transition relations,
// from aig.FromModule, whose Q bits are AIG inputs and D bits AIG
// outputs) inside one structurally hashed AIG: every time frame copies
// both machines into it over one shared input per port, and the state
// enters by substitution (see unroller). One lazily encoded incremental
// SAT solver serves every query, and a query that folds to a constant
// never reaches it:
//
//   - BMC base case: for each depth d < k, is the miter at frame d of
//     the chain from the all-zero reset state satisfiable? Sat is a
//     concrete multi-cycle counterexample.
//   - Induction step: assume the miter quiet at frames 0..k-1 and ask
//     for a difference at frame k, over an unconstrained start state.
//
// Plain k-induction is incomplete for register sweeps: a self-loop
// register replaced by its reset constant differs in unreachable states
// for every k. The induction start state is therefore strengthened with
// van-Eijk-style invariants: candidate register-constant and
// register-correspondence pairs are harvested from multi-cycle random
// simulation from reset (both machines under shared stimulus, on their
// own AIGs), the candidate set is refined to a 1-inductive fixpoint with
// per-candidate SAT queries, and the surviving invariants (which hold in
// every reachable state) constrain all induction frames by speculative
// reduction: each member register is replaced by its representative.
type SeqOptions struct {
	// K is the induction depth (default 2). The BMC base case covers
	// cycles 0..K-1 from reset.
	K int
	// MaxConflicts bounds each SAT call; 0 means unlimited.
	MaxConflicts int64
	// Seed drives the random simulation (default 1).
	Seed int64
	// DisableInvariants turns off the van Eijk strengthening, leaving
	// plain k-induction (ablation/testing knob).
	DisableInvariants bool
}

func (o *SeqOptions) withDefaults() SeqOptions {
	var out SeqOptions
	if o != nil {
		out = *o
	}
	if out.K == 0 {
		out.K = 2
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// The random simulation runs seqRounds rounds of 64 lanes, seqCycles
// clock cycles each; it both refutes cheap inequivalences and harvests
// the invariant candidates, at most maxInvariants of them.
const (
	seqRounds     = 2
	seqCycles     = 16
	maxInvariants = 512
)

// SeqNotEquivalentError is a concrete sequential counterexample: a
// per-cycle input assignment (from reset) after which the named output
// differs at cycle Cycle.
type SeqNotEquivalentError struct {
	Output string
	Cycle  int
	// Inputs[t] assigns every input key at cycle t, for t = 0..Cycle.
	Inputs []map[string]bool
}

// Error renders the counterexample.
func (e *SeqNotEquivalentError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cec: modules differ sequentially on output %s at cycle %d under", e.Output, e.Cycle)
	for t, in := range e.Inputs {
		keys := make([]string, 0, len(in))
		for k := range in {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&sb, " cycle%d{", t)
		for i, k := range keys {
			if i > 0 {
				sb.WriteByte(' ')
			}
			v := 0
			if in[k] {
				v = 1
			}
			fmt.Fprintf(&sb, "%s=%d", k, v)
		}
		sb.WriteByte('}')
	}
	return sb.String()
}

// UnknownError reports an inconclusive sequential check: no
// counterexample was found, but the induction (or a SAT budget) could
// not complete the proof. Callers with a verify-before-rewire contract
// must treat it as a rejection.
type UnknownError struct{ Reason string }

// Error describes why the check was inconclusive.
func (e *UnknownError) Error() string { return "cec: sequential check inconclusive: " + e.Reason }

// seqReg is one register bit of one machine.
type seqReg struct {
	qLit aig.Lit // AIG input of the Q bit
	dLit aig.Lit // AIG literal of the matching D bit
}

// machine is one side of the product machine: the module's AIG
// transition/output function, its ports and its register bits in
// deterministic order.
type machine struct {
	mp   *aig.Mapping
	pts  *points
	regs []seqReg
	// in and out are the AIG literals of the ports in the first
	// machine's key order (alignPorts), so both machines index their
	// ports alike.
	in, out []aig.Lit
}

// newMachine maps m to one side of the product machine. Its ports are
// the module's, and its flip-flops are registers; cut, they are ports
// too (modulePoints) and the machine has no registers, which is Check's
// combinational view of the module.
func newMachine(m *rtlil.Module, cut bool) (*machine, error) {
	if !cut {
		if err := rtlil.ValidateSequential(m); err != nil {
			return nil, fmt.Errorf("cec: %w", err)
		}
	}
	mp, err := aig.FromModule(m)
	if err != nil {
		return nil, fmt.Errorf("cec: mapping %s: %w", m.Name, err)
	}
	mc := &machine{mp: mp, pts: modulePoints(m, cut)}
	if cut {
		return mc, nil
	}
	for _, c := range m.SeqCells() {
		q := c.Port("Q")
		d := c.Port("D")
		for i := range q {
			if q[i].IsConst() {
				continue
			}
			mc.regs = append(mc.regs, seqReg{qLit: mp.LitOf(q[i]), dLit: mp.LitOf(d[i])})
		}
	}
	return mc, nil
}

// newMachines maps both modules (newMachine), checks that their ports
// match and aligns them (alignPorts).
func newMachines(a, b *rtlil.Module, cut bool) (*machine, *machine, error) {
	ma, err := newMachine(a, cut)
	if err != nil {
		return nil, nil, err
	}
	mb, err := newMachine(b, cut)
	if err != nil {
		return nil, nil, err
	}
	if err := matchKeys(ma.pts, mb.pts); err != nil {
		return nil, nil, err
	}
	alignPorts(ma, mb)
	return ma, mb, nil
}

// alignPorts fills both machines' port literals in a's key order. The
// key sets must already match (matchKeys).
func alignPorts(a, b *machine) {
	bIn := make(map[string]int, len(b.pts.inKeys))
	for i, key := range b.pts.inKeys {
		bIn[key] = i
	}
	bOut := make(map[string]int, len(b.pts.outKeys))
	for i, key := range b.pts.outKeys {
		bOut[key] = i
	}
	for i, key := range a.pts.inKeys {
		a.in = append(a.in, a.mp.LitOf(a.pts.inBits[i]))
		b.in = append(b.in, b.mp.LitOf(b.pts.inBits[bIn[key]]))
	}
	for i, key := range a.pts.outKeys {
		a.out = append(a.out, a.mp.LitOf(a.pts.outBits[i]))
		b.out = append(b.out, b.mp.LitOf(b.pts.outBits[bOut[key]]))
	}
}

// invariant is one candidate (later proven) inductive fact about the
// product machine's reachable states: register bit (side, idx) equals
// constant 0 (repSide < 0) or equals register bit (repSide, repIdx).
// A representative is never a member: every register bit sits in one
// signature class (harvestInvariants).
type invariant struct {
	side, idx       int
	repSide, repIdx int
}

// frame is one time step of the product machine inside the unroller's
// graph.
type frame struct {
	in         []aig.Lit // one input per input key, shared by both machines
	dA, dB     []aig.Lit // next-state literal per register bit
	outA, outB []aig.Lit // output literal per output key
}

// unroller builds the miter (of Check's frame 0, BMC and k-induction
// alike) inside one structurally hashed AIG of the product machine and
// answers its queries with one lazily encoded, incremental solver.
// Every frame copies both machines into the graph (aig.Copy) with their
// Q inputs bound to the frame's state, so reset, transition and
// invariants enter by substitution instead of tie clauses, outputs the
// two machines compute alike strash to one literal, and a query that
// folds to a constant never reaches the solver. Two chains of frames
// hang off the graph:
//
//   - reset: frame 0's state is the all-zero reset state, frame f's the
//     next-state literals of frame f-1 (BMC);
//   - free: frame 0's state is fresh inputs, reduced by the invariants:
//     each member takes its representative's literal (or Const0). At
//     frames 1..k the members' next states are replaced the same way
//     and "member next == representative next" stays an assumption,
//     which keeps the formula equivalent to constraining every frame
//     (refinement, induction).
type unroller struct {
	a, b   *machine
	g      *aig.AIG
	cnf    *aig.CNF
	solver *sat.Solver
	reset  []*frame
	invs   []invariant
}

func newUnroller(a, b *machine, maxConflicts int64) *unroller {
	g := aig.New()
	s := sat.NewSolver()
	s.MaxConflicts = maxConflicts
	return &unroller{a: a, b: b, g: g, cnf: aig.NewCNF(g, s), solver: s}
}

// newFrame copies both machines into the graph with fresh inputs and
// their register bits bound to the state literals qA and qB.
func (u *unroller) newFrame(qA, qB []aig.Lit) *frame {
	fr := &frame{in: make([]aig.Lit, len(u.a.in))}
	for i := range fr.in {
		fr.in[i] = u.g.NewInput()
	}
	fr.outA, fr.dA = u.copyMachine(u.a, fr.in, qA)
	fr.outB, fr.dB = u.copyMachine(u.b, fr.in, qB)
	return fr
}

// copyMachine copies one machine's graph with its port inputs bound to
// in and its Q inputs to q, and returns its output and next-state
// literals.
func (u *unroller) copyMachine(m *machine, in, q []aig.Lit) (out, d []aig.Lit) {
	bind := make([]aig.Lit, m.mp.G.NumNodes())
	for i, l := range m.in {
		bind[l.Node()] = in[i]
	}
	for i, r := range m.regs {
		bind[r.qLit.Node()] = q[i]
	}
	lits := u.g.Copy(m.mp.G, func(n int32) aig.Lit { return bind[n] })
	out = make([]aig.Lit, len(m.out))
	for i, l := range m.out {
		out[i] = lits[l.Node()] ^ (l & 1)
	}
	d = make([]aig.Lit, len(m.regs))
	for i, r := range m.regs {
		d[i] = lits[r.dLit.Node()] ^ (r.dLit & 1)
	}
	return out, d
}

// miter returns the XOR of each output pair of frame fr: the machines
// differ at fr exactly when one of them is true.
func (u *unroller) miter(fr *frame) []aig.Lit {
	xs := make([]aig.Lit, len(fr.outA))
	for i := range xs {
		xs[i] = u.g.Xor(fr.outA[i], fr.outB[i])
	}
	return xs
}

// solve asks whether one of the literals anyOf can be true under the
// assumptions. Constants never reach the solver: a constant-false
// assumption, or a disjunction with only constant-false literals, is
// Unsat, and constant-true assumptions are dropped, as is the whole
// disjunction when it holds a constant-true literal. A single disjunct
// is assumed; several become one clause behind a fresh activation
// literal, retired after the call.
func (u *unroller) solve(assumps []aig.Lit, anyOf ...aig.Lit) sat.Result {
	lits := make([]sat.Lit, 0, len(assumps)+1)
	for _, l := range assumps {
		switch l {
		case aig.Const0:
			return sat.Unsat
		case aig.Const1:
			continue
		}
		lits = append(lits, u.cnf.SatLit(l))
	}
	if slices.Contains(anyOf, aig.Const1) {
		return u.solver.Solve(lits...)
	}
	var clause []sat.Lit
	for _, l := range anyOf {
		if l != aig.Const0 {
			clause = append(clause, u.cnf.SatLit(l))
		}
	}
	switch len(clause) {
	case 0:
		return sat.Unsat
	case 1:
		return u.solver.Solve(append(lits, clause[0])...)
	}
	act := sat.PosLit(u.solver.NewVar())
	u.solver.AddClause(append(clause, act.Not())...)
	defer u.solver.AddClause(act.Not())
	return u.solver.Solve(append(lits, act)...)
}

// resetFrame materializes the reset chain up to frame f and returns
// frame f.
func (u *unroller) resetFrame(f int) *frame {
	for n := len(u.reset); n <= f; n++ {
		var qA, qB []aig.Lit
		if n == 0 {
			qA, qB = make([]aig.Lit, len(u.a.regs)), make([]aig.Lit, len(u.b.regs)) // all Const0
		} else {
			qA, qB = u.reset[n-1].dA, u.reset[n-1].dB
		}
		u.reset = append(u.reset, u.newFrame(qA, qB))
	}
	return u.reset[f]
}

// freeState returns the free chain's frame-0 state: a fresh input per
// register bit, each invariant's member replaced by its
// representative's literal (or Const0).
func (u *unroller) freeState() (qA, qB []aig.Lit) {
	q := [2][]aig.Lit{make([]aig.Lit, len(u.a.regs)), make([]aig.Lit, len(u.b.regs))}
	for _, side := range q {
		for i := range side {
			side[i] = u.g.NewInput()
		}
	}
	u.substitute(q)
	return q[0], q[1]
}

// substitute replaces every invariant member of the state q by its
// representative's literal, or by Const0.
func (u *unroller) substitute(q [2][]aig.Lit) {
	for _, inv := range u.invs {
		q[inv.side][inv.idx] = rep(q, inv)
	}
}

// rep returns the literal invariant inv equates its member with in
// state q: the representative's literal, or Const0.
func rep(q [2][]aig.Lit, inv invariant) aig.Lit {
	if inv.repSide < 0 {
		return aig.Const0
	}
	return q[inv.repSide][inv.repIdx]
}

// bmc searches for a counterexample at exactly depth d from reset.
// Returns (cex, nil) when found, (nil, nil) when refuted, an
// UnknownError on budget exhaustion.
func (u *unroller) bmc(d int) (*SeqNotEquivalentError, error) {
	switch u.solve(nil, u.miter(u.resetFrame(d))...) {
	case sat.Unsat:
		return nil, nil
	case sat.Unknown:
		return nil, &UnknownError{Reason: fmt.Sprintf("BMC conflict budget exhausted at depth %d (MaxConflicts=%d)", d, u.solver.MaxConflicts)}
	}
	return u.extractCex(d), nil
}

// baseCase runs BMC at depths 0..depth-1 and returns the first
// counterexample or budget error, nil when there is none.
func (u *unroller) baseCase(depth int) error {
	for d := 0; d < depth; d++ {
		c, err := u.bmc(d)
		if err != nil {
			return err
		}
		if c != nil {
			return c
		}
	}
	return nil
}

// extractCex reads the per-cycle input assignment of reset frames
// 0..d out of a satisfying model (inputs outside the miter's cone read
// 0) and names the first output that differs under it at frame d.
func (u *unroller) extractCex(d int) *SeqNotEquivalentError {
	e := &SeqNotEquivalentError{Cycle: d}
	assign := map[aig.Lit]bool{}
	for _, fr := range u.reset[:d+1] {
		in := make(map[string]bool, len(fr.in))
		for i, l := range fr.in {
			v := u.solver.ValueLit(u.cnf.SatLit(l))
			in[u.a.pts.inKeys[i]] = v
			assign[l] = v
		}
		e.Inputs = append(e.Inputs, in)
	}
	fr := u.reset[d]
	n := len(fr.outA)
	vals := u.g.Eval(assign, append(slices.Clip(fr.outA), fr.outB...))
	e.Output = "?"
	for i, key := range u.a.pts.outKeys {
		if vals[i] != vals[n+i] {
			e.Output = key
			break
		}
	}
	return e
}

// refine drops candidates until the set is 1-inductive: every surviving
// invariant provably holds at frame 1 whenever all survivors hold at
// frame 0 (over an unconstrained start state). Since every candidate
// holds in the all-zero reset state by construction, the fixpoint is a
// true invariant of both machines' reachable product states.
// Inconclusive queries conservatively drop the candidate. Each round
// builds one reduced frame, where a candidate's violation is the XOR
// of two next-state literals; refine returns the last, which is the
// induction's frame 0.
func (u *unroller) refine(cands []invariant) *frame {
	u.invs = cands
	for {
		fr := u.newFrame(u.freeState())
		d := [2][]aig.Lit{fr.dA, fr.dB}
		var kept []invariant
		for _, inv := range u.invs {
			if u.solve(nil, u.g.Xor(d[inv.side][inv.idx], rep(d, inv))) == sat.Unsat {
				kept = append(kept, inv)
			}
		}
		if len(kept) == len(u.invs) {
			return fr
		}
		u.invs = kept
	}
}

// induction runs the strengthened induction step at depth k from the
// free chain's frame 0: assuming the invariants at every frame and a
// quiet miter at frames 0..k-1, a difference at frame k must be
// unsatisfiable.
func (u *unroller) induction(k int, fr *frame) error {
	var assumps []aig.Lit
	for f := 1; f <= k; f++ {
		for _, x := range u.miter(fr) { // quiet: no output pair differs
			assumps = append(assumps, x.Not())
		}
		d := [2][]aig.Lit{fr.dA, fr.dB}
		q := [2][]aig.Lit{slices.Clone(fr.dA), slices.Clone(fr.dB)}
		for _, inv := range u.invs {
			assumps = append(assumps, u.g.Xnor(d[inv.side][inv.idx], rep(d, inv)))
		}
		u.substitute(q)
		fr = u.newFrame(q[0], q[1])
	}
	switch u.solve(assumps, u.miter(fr)...) {
	case sat.Unsat:
		return nil
	case sat.Unknown:
		return &UnknownError{Reason: fmt.Sprintf("induction conflict budget exhausted at k=%d (MaxConflicts=%d)", k, u.solver.MaxConflicts)}
	}
	return &UnknownError{Reason: fmt.Sprintf("k-induction inconclusive at k=%d with %d invariants", k, len(u.invs))}
}

// simulate runs both machines from reset under shared random stimulus
// drawn from seed, rounds rounds of 64 lanes and cycles clock cycles
// each, evaluating each machine's own AIG; the lanes are sim.Sequential's
// (sim.Parallel's for machines without registers), since both follow the
// AIG lowering. It returns a counterexample if the outputs ever differ,
// else the per-register value signatures used to harvest invariant
// candidates.
func simulate(a, b *machine, seed int64, rounds, cycles int) (*SeqNotEquivalentError, [][]uint64, [][]uint64) {
	rng := rand.New(rand.NewSource(seed))
	ms := [2]*machine{a, b}
	var vals, next [2][]uint64 // lanes per AIG node; next state per register
	var sigs [2][][]uint64
	for s, m := range ms {
		vals[s] = make([]uint64, m.mp.G.NumNodes())
		next[s] = make([]uint64, len(m.regs))
		sigs[s] = make([][]uint64, len(m.regs))
	}
	for round := 0; round < rounds; round++ {
		clear(vals[0]) // all-zero reset state
		clear(vals[1])
		var history [][]uint64
		for cyc := 0; cyc < cycles; cyc++ {
			in := make([]uint64, len(a.in))
			for i := range in {
				in[i] = rng.Uint64()
			}
			history = append(history, in)
			for s, m := range ms {
				for i, l := range m.in {
					vals[s][l.Node()] = in[i]
				}
				m.mp.G.Simulate(vals[s])
			}
			for i := range a.out {
				xa, xb := laneOf(vals[0], a.out[i]), laneOf(vals[1], b.out[i])
				if xa != xb {
					lane := firstDiffLane(xa, xb)
					e := &SeqNotEquivalentError{Output: a.pts.outKeys[i], Cycle: cyc}
					for _, h := range history {
						bits := make(map[string]bool, len(h))
						for j, key := range a.pts.inKeys {
							bits[key] = (h[j]>>lane)&1 == 1
						}
						e.Inputs = append(e.Inputs, bits)
					}
					return e, nil, nil
				}
			}
			// Latch: every D is read before any Q input is overwritten.
			for s, m := range ms {
				for i, r := range m.regs {
					next[s][i] = laneOf(vals[s], r.dLit)
					sigs[s][i] = append(sigs[s][i], next[s][i])
				}
				for i, r := range m.regs {
					if n := r.qLit.Node(); n != 0 { // a Q aliased to a constant latches nothing
						vals[s][n] = next[s][i]
					}
				}
			}
		}
	}
	return nil, sigs[0], sigs[1]
}

// laneOf reads literal l's lane vector out of per-node values.
func laneOf(vals []uint64, l aig.Lit) uint64 {
	if l.Compl() {
		return ^vals[l.Node()]
	}
	return vals[l.Node()]
}

// harvestInvariants groups register bits (of both machines) and the
// constant 0 by simulation signature; each class yields member==rep
// candidates, at most maxInvariants of them.
func harvestInvariants(a, b *machine, sigA, sigB [][]uint64) []invariant {
	var buf []byte
	sigKey := func(sig []uint64) string { // the raw words
		buf = buf[:0]
		for _, v := range sig {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		return string(buf)
	}
	type member struct{ side, idx int }
	classes := map[string][]member{}
	addOrder := []string{}
	add := func(key string, m member) {
		if _, ok := classes[key]; !ok {
			addOrder = append(addOrder, key)
		}
		classes[key] = append(classes[key], m)
	}
	n := 0
	if len(sigA) > 0 {
		n = len(sigA[0])
	} else if len(sigB) > 0 {
		n = len(sigB[0])
	}
	zeroKey := sigKey(make([]uint64, n))
	for i := range a.regs {
		add(sigKey(sigA[i]), member{0, i})
	}
	for i := range b.regs {
		add(sigKey(sigB[i]), member{1, i})
	}
	var out []invariant
	for _, key := range addOrder {
		ms := classes[key]
		if key == zeroKey {
			// Constant-zero candidates: every member against const 0.
			for _, m := range ms {
				out = append(out, invariant{side: m.side, idx: m.idx, repSide: -1})
			}
			continue
		}
		if len(ms) < 2 {
			continue
		}
		rep := ms[0]
		for _, m := range ms[1:] {
			out = append(out, invariant{side: m.side, idx: m.idx, repSide: rep.side, repIdx: rep.idx})
		}
	}
	if len(out) > maxInvariants {
		out = out[:maxInvariants]
	}
	return out
}

// SeqTimes is the wall time a sequential check spends in each phase of
// the proof: random simulation, the BMC base case, invariant harvest and
// refinement, and the induction step. It is telemetry for the caller's
// run report (opt_dff's stages), not part of the verdict.
type SeqTimes struct {
	Simulate, BMC, Refine, Induction time.Duration
}

// lap charges the time since t to *d and returns now.
func lap(d *time.Duration, t time.Time) time.Time {
	now := time.Now()
	*d += now.Sub(t)
	return now
}

// CheckSequential proves sequential equivalence of a and b from the
// all-zero reset state, returning nil when proven, a
// *SeqNotEquivalentError with a multi-cycle counterexample when
// refuted, a *UnknownError when the k-induction proof is inconclusive,
// and other errors for interface mismatches, multiple clock domains or
// unmappable logic. It adds the time of each proof phase to *st (nil:
// untimed).
func CheckSequential(a, b *rtlil.Module, opt *SeqOptions, st *SeqTimes) error {
	if st == nil {
		st = &SeqTimes{}
	}
	o := opt.withDefaults()
	ma, mb, err := newMachines(a, b, false)
	if err != nil {
		return err
	}

	// Phase 1: multi-cycle random simulation — cheap refuter and
	// invariant-candidate harvest in one pass.
	t := time.Now()
	cex, sigA, sigB := simulate(ma, mb, o.Seed, seqRounds, seqCycles)
	t = lap(&st.Simulate, t)
	if cex != nil {
		return cex
	}

	// Phase 2: BMC base case, cycles 0..K-1 from reset. Stateless on
	// both sides, frame 0 covers the whole behavior.
	u := newUnroller(ma, mb, o.MaxConflicts)
	stateless := len(ma.regs) == 0 && len(mb.regs) == 0
	depth := o.K
	if stateless {
		depth = 1
	}
	err = u.baseCase(depth)
	t = lap(&st.BMC, t)
	if err != nil || stateless {
		return err
	}

	// Phase 3: strengthen and close the induction.
	var start *frame
	if o.DisableInvariants {
		start = u.newFrame(u.freeState())
	} else {
		start = u.refine(harvestInvariants(ma, mb, sigA, sigB))
		t = lap(&st.Refine, t)
	}
	err = u.induction(o.K, start)
	lap(&st.Induction, t)
	return err
}

// BMC searches for a sequential counterexample within depth cycles of
// reset (cycles 0..depth inclusive): bounded model checking without the
// induction step. It returns nil when no counterexample exists up to
// the bound — bounded equivalence, not a proof. The differential
// fuzzer cross-checks CheckSequential verdicts against BMC at k+2.
func BMC(a, b *rtlil.Module, depth int, opt *SeqOptions) error {
	o := opt.withDefaults()
	ma, mb, err := newMachines(a, b, false)
	if err != nil {
		return err
	}
	if len(ma.regs) == 0 && len(mb.regs) == 0 && depth > 0 {
		depth = 0 // stateless: deeper frames repeat frame 0
	}
	return newUnroller(ma, mb, o.MaxConflicts).baseCase(depth + 1)
}
