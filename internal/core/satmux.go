package core

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/aig"
	"repro/internal/infer"
	"repro/internal/opt"
	"repro/internal/rtlil"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/subgraph"
)

// SatMuxOptions tunes the SAT-based redundancy elimination.
type SatMuxOptions struct {
	// SubgraphDepth is the BFS radius k (default 6).
	SubgraphDepth int
	// MaxSubgraphCells caps the candidate sub-graph (default 300).
	MaxSubgraphCells int
	// SimInputLimit: with at most this many sub-graph inputs the query
	// is answered by exhaustive simulation instead of SAT (default 11,
	// the paper's "for a smaller number of inputs, simulation is more
	// efficient"). The sweep runs 2^(n-6) words, so a limit above 20
	// acts as 20.
	SimInputLimit int
	// SATInputLimit: above this many sub-graph inputs the SAT query is
	// skipped entirely (the paper's input-count threshold; default 200).
	SATInputLimit int
	// MaxConflicts bounds each SAT call (default 2000).
	MaxConflicts int64

	// noSignatures turns the module simulation signatures off, so every
	// query the path facts leave open reaches extraction: the reference
	// oracle the package's tests check the signatures against.
	noSignatures bool
}

// maxSimInputs bounds SimInputLimit: an exhaustive sweep over 20 inputs
// runs 2^14 words.
const maxSimInputs = 20

// signatureWords is how many 64-lane words of module simulation
// signatures each pass iteration evaluates: 256 patterns.
const signatureWords = 4

func (o SatMuxOptions) withDefaults() SatMuxOptions {
	if o.SubgraphDepth == 0 {
		o.SubgraphDepth = 6
	}
	if o.MaxSubgraphCells == 0 {
		o.MaxSubgraphCells = 300
	}
	if o.SimInputLimit == 0 {
		o.SimInputLimit = 11
	}
	if o.SATInputLimit == 0 {
		o.SATInputLimit = 200
	}
	if o.MaxConflicts == 0 {
		o.MaxConflicts = 2000
	}
	o.SimInputLimit = min(o.SimInputLimit, maxSimInputs)
	return o
}

// SatMuxStats counts how queries were resolved.
type SatMuxStats struct {
	Queries         int
	FactHits        int
	UnreachablePath int
	InferenceHits   int
	SimHits         int
	SATHits         int
	SATCalls        int
	Unknown         int

	// SAT-stage counters.
	LearntClauses int // learnt clauses produced across all SAT calls
	MapFailures   int // SAT queries abandoned because a cone cell is not AIG-mappable
	BudgetTrips   int // Solve calls that exhausted the conflict budget

	// Simulation counters.
	SimFiltered int // queries the signatures refuted (no extraction, no solver call)
	SimVectors  int // 64-lane simulation words evaluated (signature words + exhaustive sweeps)
}

// String renders the counters.
func (s SatMuxStats) String() string {
	return fmt.Sprintf("queries=%d facts=%d unreachable=%d inference=%d sim=%d sat=%d/%d unknown=%d learnt=%d mapfail=%d trips=%d simfilter=%d/%d",
		s.Queries, s.FactHits, s.UnreachablePath, s.InferenceHits, s.SimHits,
		s.SATHits, s.SATCalls, s.Unknown, s.LearntClauses, s.MapFailures,
		s.BudgetTrips, s.SimFiltered, s.SimVectors)
}

// Details renders the oracle counters as report-sink counter entries,
// the form the opt.Ctx run report (and through it the bench JSON)
// consumes. Only deterministic counters appear here: every value is
// bit-identical for any worker count.
func (s SatMuxStats) Details() map[string]int {
	all := map[string]int{
		"oracle_queries":        s.Queries,
		"oracle_fact_hits":      s.FactHits,
		"oracle_unreachable":    s.UnreachablePath,
		"oracle_inference_hits": s.InferenceHits,
		"oracle_sim_hits":       s.SimHits,
		"oracle_sat_hits":       s.SATHits,
		"oracle_unknown":        s.Unknown,
		"sat_calls":             s.SATCalls,
		"sat_learnt":            s.LearntClauses,
		"sat_map_failures":      s.MapFailures,
		"sat_budget_trips":      s.BudgetTrips,
		"oracle_sim_filtered":   s.SimFiltered,
		"oracle_sim_vectors":    s.SimVectors,
	}
	for k, v := range all {
		if v == 0 {
			delete(all, k)
		}
	}
	return all
}

// The oracle stages whose busy time SatMuxPass reports in its
// Result.Stages, summed over worker goroutines.
const (
	stageIndex   = iota // rtlil.NewIndex + subgraph.NewGraph, once per pass iteration
	stageExtract        // sub-graph extraction
	stageInfer          // the Table I rule engine
	stageSim            // module signatures and their checks; cone compile plus exhaustive sweeps
	stageSAT            // AIG mapping, CNF and Solve calls
	numStages
)

var stageNames = [numStages]string{"index", "extract", "infer", "sim", "sat"}

// stageTimes is busy time per oracle stage. It lives beside SatMuxStats,
// not in it: the counters are deterministic, the times never are.
type stageTimes [numStages]time.Duration

// lap charges the time since t to stage and returns now.
func (tm *stageTimes) lap(stage int, t time.Time) time.Time {
	now := time.Now()
	tm[stage] += now.Sub(t)
	return now
}

func (tm *stageTimes) add(o stageTimes) {
	for i, d := range o {
		tm[i] += d
	}
}

// SmartOracle is the smaRTLy control-value oracle: path facts first, then
// the module's simulation signatures, then sub-graph inference, then
// exhaustive simulation or — for cones with too many inputs — a one-shot
// SAT call. The signatures settle most queries the facts leave open
// before any extraction; each surviving SAT-bound query encodes its own
// cone into a fresh AIG mapping, CNF and budgeted solver. The oracle
// keeps no answers between queries.
//
// The oracle is not safe for concurrent use from the outside, but
// Values fans the surviving queries of one call out to Ctx.Workers()
// goroutines: every query runs on worker-private state over the shared
// read-only Index and path facts, and answers, counters and stage times
// are merged in submission order — bit-identical for every worker count.
type SmartOracle struct {
	Stats SatMuxStats

	// Ctx supplies the worker budget and cancellation for Values; nil
	// means sequential.
	Ctx *opt.Ctx

	ix    *rtlil.Index
	o     SatMuxOptions
	times stageTimes

	// Built at first need: the signatures at the first query the facts
	// leave open (nil for the tests' reference oracle or a module with
	// a combinational loop), the sub-graph adjacency at the first query
	// the signatures leave open.
	sigs     *signatures
	sigsDone bool
	graph    *subgraph.Graph

	// The surviving queries of one Values call, reused by the next.
	// facts holds the call's path facts for solveJob, which
	// NewSmartOracle builds once; Values clears it on return.
	jobs     []job
	facts    *opt.PathFacts
	solveJob func(i int)
}

// job is one surviving query of a Values call, solved on a worker; slot
// is the output slot that takes its answer, seen0 and seen1 the target
// values a signature lane witnessed.
type job struct {
	bit          rtlil.SigBit
	slot         int
	seen0, seen1 bool
	v            rtlil.State
	st           SatMuxStats
	tm           stageTimes
}

// NewSmartOracle builds an oracle over the module index.
func NewSmartOracle(ix *rtlil.Index, o SatMuxOptions) *SmartOracle {
	s := &SmartOracle{ix: ix, o: o.withDefaults()}
	s.solveJob = func(i int) {
		j := &s.jobs[i]
		j.v = s.solve(s.facts, j)
	}
	return s
}

// Values implements opt.Oracle with the full §II machinery. A bit the
// facts answer counts as a fact hit, every other bit as a query. A query
// the signatures refute answers Sx at once; the rest are solved on a
// bounded worker pool, and their answers, counters and stage times are
// merged in submission order, as if solved one at a time. A query a
// cancellation skipped answers Sx.
func (s *SmartOracle) Values(facts *opt.PathFacts, bits []rtlil.SigBit, out []rtlil.State) {
	s.jobs = s.jobs[:0]
	t := time.Now()
	for i, bit := range bits {
		if v, ok := facts.Lookup(bit); ok {
			s.Stats.FactHits++
			out[i] = v
			continue
		}
		s.Stats.Queries++
		j := job{bit: bit, slot: i, v: rtlil.Sx}
		if sigs := s.moduleSignatures(); sigs != nil {
			if j.seen0, j.seen1 = sigs.witness(facts, bit); j.seen0 && j.seen1 {
				s.Stats.SimFiltered++
				s.Stats.Unknown++
				out[i] = rtlil.Sx
				continue
			}
		}
		s.jobs = append(s.jobs, j)
	}
	if !s.o.noSignatures {
		t = s.times.lap(stageSim, t)
	}
	if len(s.jobs) == 0 {
		return
	}
	if s.graph == nil {
		// One adjacency build amortized over every surviving query of the
		// pass iteration: extraction is the hottest per-query stage.
		s.graph = subgraph.NewGraph(s.ix)
		s.times.lap(stageIndex, t)
	}
	s.facts = facts
	opt.ForEach(s.Ctx.Context(), s.Ctx.Workers(), len(s.jobs), s.solveJob)
	s.facts = nil
	for i := range s.jobs {
		j := &s.jobs[i]
		accumulate(&s.Stats, j.st)
		s.times.add(j.tm)
		out[j.slot] = j.v
	}
}

// moduleSignatures returns the iteration's signatures, simulating the
// snapshot at the first call.
func (s *SmartOracle) moduleSignatures() *signatures {
	if !s.sigsDone {
		s.sigsDone = true
		if !s.o.noSignatures {
			s.sigs = newSignatures(s.ix, signatureWords)
		}
		if s.sigs != nil {
			s.Stats.SimVectors += signatureWords
		}
	}
	return s.sigs
}

// signatures are the simulation signatures of one pass iteration's
// snapshot, in the manner of FRAIG sweeping (Mishchenko, Chatterjee,
// Jiang, Brayton, 2005): the module's combinational cells compiled into
// one sim.Cone and evaluated on fixed-seed random words, 64 patterns
// each. This is the paper's §II simulation pre-filter, run once per
// module instead of once per cone.
//
// Each lane is a two-valued assignment under the Cone semantics, which
// the exhaustive sweep and the AIG/CNF encoding share (constant x and z
// bits evaluate as 0). Projected onto any extracted sub-graph, a lane is
// therefore a model satisfying every fact inside that sub-graph. When
// the lanes consistent with the path facts show the target as both 0
// and 1, the exhaustive sweep would see both values, SAT would answer
// Sat twice, and the four-state inference can neither fix the target
// nor find a conflict: the query is refuted without extraction.
type signatures struct {
	cone  *sim.Cone
	lanes []uint64 // word w is lanes[w*n : (w+1)*n], n = cone.NumSlots()
	valid []uint64 // witness's lane mask, one per word
}

// newSignatures evaluates words 64-lane words over the indexed module.
// It returns nil when the module does not compile (a combinational
// loop).
func newSignatures(ix *rtlil.Index, words int) *signatures {
	cone, err := sim.NewModuleCone(ix)
	if err != nil {
		return nil
	}
	n := cone.NumSlots()
	g := &signatures{cone: cone, lanes: make([]uint64, words*n), valid: make([]uint64, words)}
	// A fixed seed: the same lanes on every run, whatever the worker
	// count.
	rng := rand.NewPCG(0x5eed, 0)
	for w := range words {
		// Fill every slot: Eval overwrites the driven ones, and the free
		// ones (primary inputs, $dff Q bits) keep their draw.
		row := g.lanes[w*n : (w+1)*n]
		for i := range row {
			row[i] = rng.Uint64()
		}
		cone.Eval(row)
	}
	return g
}

// witness reports which values of bit the lanes consistent with the path
// facts show; a bit without a slot shows neither. The mask skips facts
// on constant bits, which every oracle stage drops, and on bits no
// combinational cell touches, which are free variables.
func (g *signatures) witness(facts *opt.PathFacts, bit rtlil.SigBit) (seen0, seen1 bool) {
	tslot, ok := g.cone.Slot(bit)
	if !ok {
		return false, false
	}
	n := g.cone.NumSlots()
	for w := range g.valid {
		g.valid[w] = ^uint64(0)
	}
	vals := facts.States()
	for i, b := range facts.Bits() {
		slot, ok := g.cone.Slot(b)
		if !ok {
			continue
		}
		var want uint64
		switch vals[i] {
		case rtlil.S0:
		case rtlil.S1:
			want = ^uint64(0)
		default:
			return false, false // no two-valued lane reproduces the fact
		}
		for w := range g.valid {
			g.valid[w] &^= g.lanes[w*n+slot] ^ want
		}
	}
	for w, valid := range g.valid {
		tv := g.lanes[w*n+tslot]
		seen0 = seen0 || ^tv&valid != 0
		seen1 = seen1 || tv&valid != 0
	}
	return seen0, seen1
}

// query is one control-value query that inference left open: the
// extracted cone, the path facts that the sweep masks by and SAT
// assumes, and the target values a lane witnessed. A witnessed value is
// known Sat, so satSolve skips that Solve call.
type query struct {
	target       rtlil.SigBit // the queried bit, sigmapped
	sg           *subgraph.Result
	knowns       []rtlil.SigBit // the fact bits, in the facts' order
	vals         []rtlil.State  // their values
	seen0, seen1 bool
}

// solve runs the §II stages for one query the signatures left open:
// sub-graph extraction, inference, then an exhaustive sweep for few
// inputs or SAT otherwise. It writes counters and stage times to the
// job (worker-local sinks, merged in order afterwards) and touches no
// shared mutable state. It returns the decided value, or Sx when the
// query stays open.
func (s *SmartOracle) solve(facts *opt.PathFacts, j *job) rtlil.State {
	st, tm := &j.st, &j.tm
	if s.Ctx.Err() != nil {
		// Canceled: report unknown; the pass surfaces the context error.
		st.Unknown++
		return rtlil.Sx
	}
	t := time.Now()
	// The facts' canonical order seeds the sub-graph BFS and orders the
	// SAT assumptions, so conflict-bounded solver outcomes cannot vary
	// between runs.
	knowns, vals := facts.Bits(), facts.States()
	sg := s.graph.Extract(j.bit, knowns, subgraph.Options{
		Depth:    s.o.SubgraphDepth,
		MaxCells: s.o.MaxSubgraphCells,
	})
	t = tm.lap(stageExtract, t)

	// Stage 1: inference rules (paper Table I).
	v := s.infer(j.bit, sg, knowns, vals, st)
	t = tm.lap(stageInfer, t)
	if v != rtlil.Sx {
		return v
	}

	// Stage 2: exhaustive simulation for few inputs, SAT otherwise.
	n := len(sg.Inputs)
	if n > s.o.SimInputLimit && n > s.o.SATInputLimit {
		st.Unknown++
		return rtlil.Sx
	}
	q := &query{
		target: s.ix.MapBit(j.bit),
		sg:     sg,
		knowns: knowns,
		vals:   vals,
		seen0:  j.seen0,
		seen1:  j.seen1,
	}
	if n <= s.o.SimInputLimit {
		v = s.sweep(q, st)
		tm.lap(stageSim, t)
		if v != rtlil.Sx {
			st.SimHits++
			return v
		}
		st.Unknown++
		return rtlil.Sx
	}
	v = s.satSolve(q, st)
	tm.lap(stageSAT, t)
	return v
}

// infer runs the Table I rule engine over the sub-graph under the path
// facts. It returns the value when the rules settle the query, the
// target's inferred value or S0 for an unreachable path (the mux output
// is never observed there, so either branch is sound), and Sx otherwise.
func (s *SmartOracle) infer(bit rtlil.SigBit, sg *subgraph.Result, knowns []rtlil.SigBit, vals []rtlil.State, st *SatMuxStats) rtlil.State {
	e := infer.NewScoped(s.graph, sg.IDs)
	for i, b := range knowns {
		e.Assume(b, vals[i])
	}
	if !e.Propagate() {
		st.UnreachablePath++
		return rtlil.S0
	}
	if v, ok := e.Value(bit); ok {
		st.InferenceHits++
		return v
	}
	return rtlil.Sx
}

// enumPatterns are the lane vectors of the six low input variables under
// the standard exhaustive-enumeration numbering: bit i of assignment
// (word*64+lane) is lane bit i for i < 6 and word bit i-6 above.
var enumPatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// enumLanes is input i's lane vector in word w of the exhaustive
// enumeration.
func enumLanes(i, w int) uint64 {
	if i < 6 {
		return enumPatterns[i]
	}
	if w>>uint(i-6)&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// sweep enumerates all 2^n assignments of q's n sub-graph inputs through
// one sim.Cone, in 2^(n-6) words of 64 lanes (one word below six
// inputs), and records on q which target values a lane consistent with
// the path facts showed. Facts on bits outside the cone cannot be
// checked and are dropped (precision loss only: the SAT assumptions
// drop them the same way). The verdict is exact: one value seen proves
// the bit constant, none seen proves the path unreachable. A value a
// signature lane witnessed counts as seen from the start, so the sweep
// stops as soon as it sees the other one.
//
// sweep returns the proven value, or Sx when it proved none: both values
// seen, a cancellation, or a cone it cannot simulate.
func (s *SmartOracle) sweep(q *query, st *SatMuxStats) rtlil.State {
	cone, err := sim.NewCone(s.ix, q.sg.Order)
	if err != nil {
		return rtlil.Sx
	}
	tslot, ok := cone.Slot(q.target)
	if !ok {
		return rtlil.Sx // the target is not computed in the cone
	}
	inSlots := make([]int, len(q.sg.Inputs))
	for i, b := range q.sg.Inputs {
		if inSlots[i], ok = cone.Slot(b); !ok {
			return rtlil.Sx
		}
	}
	type factCheck struct {
		slot int
		want uint64
	}
	var checks []factCheck
	live := ^uint64(0) // the lanes that count in every word
	for i, b := range q.knowns {
		slot, ok := cone.Slot(b)
		if !ok {
			continue
		}
		var want uint64
		switch q.vals[i] {
		case rtlil.S0:
		case rtlil.S1:
			want = ^uint64(0)
		default:
			live = 0 // no two-valued assignment reproduces the fact
			continue
		}
		checks = append(checks, factCheck{slot, want})
	}

	words := 1
	if n := len(inSlots); n < 6 {
		live &= 1<<(1<<uint(n)) - 1
	} else {
		words = 1 << uint(n-6)
	}
	vals := make([]uint64, cone.NumSlots())
	for word := 0; word < words; word++ {
		if s.Ctx.Err() != nil {
			// Canceled: stop simulating; the pass surfaces the context
			// error and discards the run's results.
			return rtlil.Sx
		}
		for i, slot := range inSlots {
			vals[slot] = enumLanes(i, word)
		}
		cone.Eval(vals)
		st.SimVectors++
		valid := live
		for _, fc := range checks {
			valid &= ^(vals[fc.slot] ^ fc.want)
		}
		tv := vals[tslot]
		q.seen0 = q.seen0 || ^tv&valid != 0
		q.seen1 = q.seen1 || tv&valid != 0
		if q.seen0 && q.seen1 {
			return rtlil.Sx
		}
	}
	if q.seen0 != q.seen1 {
		return rtlil.BoolState(q.seen1)
	}
	// No consistent assignment: unreachable path.
	st.UnreachablePath++
	return rtlil.S0
}

// satSolve answers one SAT-bound query on a private encoding: the AIG
// mapping of the cone's cells in topological order, its Tseitin CNF in a
// fresh budgeted solver, and up to two assumption-based Solve calls —
// the paper's "SAT(S=0)=false or SAT(S=1)=false" criterion. A polarity
// a signature lane witnessed is known Sat (sim.Cone mirrors the AIG
// lowering cell for cell), so its call is skipped.
func (s *SmartOracle) satSolve(q *query, st *SatMuxStats) rtlil.State {
	mp := aig.NewPartialMapping(s.ix)
	for _, b := range q.sg.Inputs {
		mp.AddInputBit(b)
	}
	for _, c := range q.sg.Order {
		if err := mp.MapCell(c); err != nil {
			// The cone contains a cell the AIG mapper cannot encode; the
			// query stays undecided.
			st.MapFailures++
			st.Unknown++
			return rtlil.Sx
		}
	}
	if q.target.IsConst() || !mp.HasBit(q.target) {
		st.Unknown++
		return rtlil.Sx
	}
	solver := sat.NewSolver()
	solver.MaxConflicts = s.o.MaxConflicts
	cnf := aig.NewCNF(mp.G, solver)

	// Assumptions in the facts' order: under a conflict budget the
	// solver outcome may depend on assumption order, which must not vary
	// between runs or worker counts. Constant facts (an x select pushed
	// by the walker) and facts outside the cone have no literal.
	var assumptions []sat.Lit
	for i, b := range q.knowns {
		if b.IsConst() || !mp.HasBit(b) {
			continue
		}
		l := cnf.SatLit(mp.LitOf(b))
		if q.vals[i] == rtlil.S0 {
			l = l.Not()
		}
		assumptions = append(assumptions, l)
	}
	tl := cnf.SatLit(mp.LitOf(q.target))
	check := func(witnessed bool, target sat.Lit) sat.Result {
		if witnessed {
			return sat.Sat
		}
		st.SATCalls++
		r := solver.Solve(append(assumptions[:len(assumptions):len(assumptions)], target)...)
		if r == sat.Unknown {
			st.BudgetTrips++
		}
		return r
	}
	r0 := check(q.seen0, tl.Not())
	r1 := check(q.seen1, tl)
	st.LearntClauses += int(solver.Stats.Learnt)
	switch {
	case r0 == sat.Unsat && r1 == sat.Unsat:
		// Unreachable path; counted as a SAT-decided query like every
		// other outcome of this stage.
		st.SATHits++
		st.UnreachablePath++
		return rtlil.S0
	case r0 == sat.Unsat:
		// target=0 impossible (even if the other call hit its budget,
		// an Unsat verdict transfers through the abstraction).
		st.SATHits++
		return rtlil.S1
	case r1 == sat.Unsat:
		st.SATHits++
		return rtlil.S0
	}
	st.Unknown++
	return rtlil.Sx
}

// SatMuxPass is smaRTLy's SAT-based redundancy elimination: the muxtree
// walker driven by the SmartOracle, run to a fixpoint. It subsumes the
// baseline opt_muxtree (path facts are consulted first).
type SatMuxPass struct {
	Opts SatMuxOptions
	// LastStats holds the oracle counters of the most recent Run.
	LastStats SatMuxStats
}

// Name implements opt.Pass.
func (p *SatMuxPass) Name() string { return "smartly_satmux" }

// Run implements opt.Pass. The oracle inherits the engine context, so
// pmux select scans fan out to c.Workers() goroutines and the fixpoint
// aborts on cancellation.
func (p *SatMuxPass) Run(c *opt.Ctx, m *rtlil.Module) (opt.Result, error) {
	total := opt.NewResult()
	var times stageTimes
	p.LastStats = SatMuxStats{}
	for iter := 0; iter < 20; iter++ {
		if err := c.Err(); err != nil {
			return total, err
		}
		// One snapshot serves the oracle and the walk: both are taken
		// before the walk rewrites anything.
		t := time.Now()
		ix := rtlil.NewIndex(m)
		oracle := NewSmartOracle(ix, p.Opts)
		times.lap(stageIndex, t)
		oracle.Ctx = c
		walk := &opt.MuxtreeWalk{Oracle: oracle}
		r, err := walk.Run(c, ix)
		if err != nil {
			return total, err
		}
		accumulate(&p.LastStats, oracle.Stats)
		times.add(oracle.times)
		total.Merge(r)
		if !r.Changed {
			break
		}
	}
	// Thread the oracle counters into the run report alongside the
	// walker's rewrite counters.
	for k, v := range p.LastStats.Details() {
		total.Details[k] += v
	}
	for i, d := range times {
		if d > 0 {
			if total.Stages == nil {
				total.Stages = map[string]time.Duration{}
			}
			total.Stages[stageNames[i]] = d
		}
	}
	return total, nil
}

func accumulate(dst *SatMuxStats, s SatMuxStats) {
	dst.Queries += s.Queries
	dst.FactHits += s.FactHits
	dst.UnreachablePath += s.UnreachablePath
	dst.InferenceHits += s.InferenceHits
	dst.SimHits += s.SimHits
	dst.SATHits += s.SATHits
	dst.SATCalls += s.SATCalls
	dst.Unknown += s.Unknown
	dst.LearntClauses += s.LearntClauses
	dst.MapFailures += s.MapFailures
	dst.BudgetTrips += s.BudgetTrips
	dst.SimFiltered += s.SimFiltered
	dst.SimVectors += s.SimVectors
}
