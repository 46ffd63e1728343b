package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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
	// efficient").
	SimInputLimit int
	// SATInputLimit: above this many sub-graph inputs the SAT query is
	// skipped entirely (the paper's input-count threshold; default 200).
	SATInputLimit int
	// MaxConflicts bounds each SAT call (default 2000).
	MaxConflicts int64
	// SimFilterRounds is how many 64-lane vector rounds the simulation
	// pre-filter runs per SAT-bound cone before the solver is consulted
	// (default 4, i.e. 256 input vectors). Negative disables rounds
	// without disabling the stage's bookkeeping; use DisableSimFilter to
	// turn the stage off.
	SimFilterRounds int
	// DisableSimFilter turns the bit-parallel simulation pre-filter in
	// front of the SAT stage off (ablation).
	DisableSimFilter bool
}

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
	if o.SimFilterRounds == 0 {
		o.SimFilterRounds = 4
	}
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

	// Simulation pre-filter counters.
	SimFiltered int // SAT-bound queries decided unknowable by the pre-filter (no solver call)
	SimVectors  int // 64-lane simulation words evaluated (pre-filter rounds + exhaustive sweep)
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
	stageSim            // cone compile plus exhaustive or pre-filter sweeps
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
// sub-graph inference, then exhaustive simulation or — for cones with
// too many inputs — the simulation pre-filter and a one-shot SAT call.
// Each SAT-bound query encodes its own cone into a fresh AIG mapping,
// CNF and budgeted solver; the pre-filter settles most such queries
// before any encoding happens. Every query the facts leave open is
// solved: the oracle keeps no answers between queries.
//
// The oracle is not safe for concurrent use from the outside, but
// Values fans the open queries of one call out to Ctx.Workers()
// goroutines: every query runs on worker-private state over the shared
// read-only Index and path facts, and answers, counters and stage times
// are merged in submission order — bit-identical for every worker count.
type SmartOracle struct {
	Stats SatMuxStats

	// Ctx supplies the worker budget and cancellation for Values; nil
	// means sequential.
	Ctx *opt.Ctx

	ix    *rtlil.Index
	graph *subgraph.Graph
	o     SatMuxOptions
	times stageTimes

	// The open queries of one Values call, reused by the next. facts
	// holds the call's path facts for solveJob, which NewSmartOracle
	// builds once; Values clears it on return.
	jobs     []job
	facts    *opt.PathFacts
	solveJob func(i int)
}

// job is one open query of a Values call, solved on a worker; slot is
// the output slot that takes its answer.
type job struct {
	bit  rtlil.SigBit
	slot int
	v    rtlil.State
	st   SatMuxStats
	tm   stageTimes
}

// NewSmartOracle builds an oracle over the module index.
func NewSmartOracle(ix *rtlil.Index, o SatMuxOptions) *SmartOracle {
	s := &SmartOracle{
		ix: ix,
		// One adjacency build amortized over every query of the pass:
		// extraction is the hottest per-query stage once the pre-filter
		// has culled the SAT calls.
		graph: subgraph.NewGraph(ix),
		o:     o.withDefaults(),
	}
	s.solveJob = func(i int) {
		j := &s.jobs[i]
		j.v = s.solve(s.facts, j.bit, &j.st, &j.tm)
	}
	return s
}

// Values implements opt.Oracle with the full §II machinery. A bit the
// facts answer counts as a fact hit, every other bit as a query. The
// queries are solved on a bounded worker pool; their answers, counters
// and stage times are merged in submission order, as if solved one at a
// time. A query a cancellation skipped answers Sx.
func (s *SmartOracle) Values(facts *opt.PathFacts, bits []rtlil.SigBit, out []rtlil.State) {
	s.jobs = s.jobs[:0]
	for i, bit := range bits {
		if v, ok := facts.Lookup(bit); ok {
			s.Stats.FactHits++
			out[i] = v
			continue
		}
		s.Stats.Queries++
		s.jobs = append(s.jobs, job{bit: bit, slot: i, v: rtlil.Sx})
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

// query is one control-value query that inference left open: the
// extracted cone in topological order, the path facts that the sweeps
// mask by and SAT assumes, and the target values a sweep witnessed. A
// witnessed value is known Sat, so satSolve skips that Solve call.
type query struct {
	target       rtlil.SigBit // the queried bit, sigmapped
	sg           *subgraph.Result
	order        []*rtlil.Cell
	knowns       []rtlil.SigBit // the fact bits, in the facts' order
	vals         []rtlil.State  // their values
	seen0, seen1 bool
}

// solve runs the §II stages for one query: sub-graph extraction,
// inference, then an exhaustive sweep for few inputs, or the random
// pre-filter sweep followed by SAT. It writes counters to st and stage
// times to tm (worker-local sinks during parallel batches, merged in
// order afterwards) and touches no shared mutable state. It returns the
// decided value, or Sx when the query stays open.
func (s *SmartOracle) solve(facts *opt.PathFacts, bit rtlil.SigBit, st *SatMuxStats, tm *stageTimes) rtlil.State {
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
	sg := s.graph.Extract(bit, knowns, subgraph.Options{
		Depth:    s.o.SubgraphDepth,
		MaxCells: s.o.MaxSubgraphCells,
	})
	t = tm.lap(stageExtract, t)

	// Stage 1: inference rules (paper Table I).
	v := s.infer(bit, sg, knowns, vals, st)
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
		target: s.ix.MapBit(bit),
		sg:     sg,
		order:  sg.Order,
		knowns: knowns,
		vals:   vals,
	}
	if n <= s.o.SimInputLimit {
		v = s.sweep(q, true, st)
		tm.lap(stageSim, t)
		if v != rtlil.Sx {
			st.SimHits++
			return v
		}
		st.Unknown++
		return rtlil.Sx
	}
	// $div cones skip the pre-filter: the AIG mapper cannot encode them,
	// and satSolve counts that map failure.
	isDiv := func(c *rtlil.Cell) bool { return c.Type == rtlil.CellDiv }
	if !s.o.DisableSimFilter && !slices.ContainsFunc(q.order, isDiv) {
		s.sweep(q, false, st)
		t = tm.lap(stageSim, t)
		if q.seen0 && q.seen1 {
			// Both target values witnessed under the path facts: the
			// solver would answer Sat twice, so the query is unknowable
			// — decided here without touching SAT at all.
			st.SimFiltered++
			st.Unknown++
			return rtlil.Sx
		}
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

// sweep simulates q's cone through one sim.Cone, 64 lanes per word, and
// records on q which target values a lane consistent with the path facts
// showed. Facts on bits outside the cone cannot be checked and are
// dropped (precision loss only: the SAT assumptions drop them the same
// way).
//
//   - An exhaustive sweep enumerates all 2^n input assignments in
//     2^(n-6) words (one word below six inputs) and masks lanes by every
//     fact, so its verdict is exact: one value seen proves the bit
//     constant, none seen proves the path unreachable.
//   - A random sweep, the SAT stage's pre-filter, runs SimFilterRounds
//     words of random vectors with the fact inputs pinned (round 0's
//     lanes 0 and 1 are the all-zeros and all-ones inputs). It proves
//     nothing; its witnesses only spare Solve calls.
//
// Either sweep stops once both values are seen. sweep returns the proven
// value, or Sx when it proved none: a random sweep, both values seen, a
// cancellation, or a cone it cannot simulate.
//
// Determinism: the RNG is seeded from the query's own shape (its cell
// and input counts) and the facts are scanned in their order, so the
// lane schedule depends only on the query, never on worker count or
// scheduling.
func (s *SmartOracle) sweep(q *query, exhaustive bool, st *SatMuxStats) rtlil.State {
	cone, err := sim.NewCone(s.ix, q.order)
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
	// Every fact in the cone masks lanes after Eval; a random sweep also
	// pins the fact inputs to their fact's lanes.
	var checks []factCheck
	pinned := map[int]uint64{}
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
			if !exhaustive {
				return rtlil.Sx // no lane encoding: decline to filter
			}
			live = 0 // no two-valued assignment reproduces the fact
			continue
		}
		checks = append(checks, factCheck{slot, want})
		pinned[slot] = want
	}

	words := s.o.SimFilterRounds
	var rng *rand.Rand
	if !exhaustive {
		rng = rngPool.Get().(*rand.Rand)
		defer rngPool.Put(rng)
		rng.Seed(int64(len(q.order))<<32 | int64(len(inSlots)))
	} else if n := len(inSlots); n < 6 {
		words = 1
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
			if exhaustive {
				vals[slot] = enumLanes(i, word)
				continue
			}
			v, pin := pinned[slot]
			if !pin {
				v = rng.Uint64()
				if word == 0 {
					// Guided lanes: all-zeros and all-ones inputs, the
					// classic sweeping probes for stuck-at candidates.
					v = v&^1 | 2
				}
			}
			vals[slot] = v
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
	switch {
	case !exhaustive:
		return rtlil.Sx
	case q.seen0 != q.seen1:
		return rtlil.BoolState(q.seen1)
	}
	// No consistent assignment: unreachable path.
	st.UnreachablePath++
	return rtlil.S0
}

// rngPool recycles the pre-filter's generators. Re-seeding one yields
// the same draws as rand.New(rand.NewSource(seed)) without allocating
// the source's 4.9 KB state for every query.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// satSolve answers one SAT-bound query on a private encoding: the AIG
// mapping of the cone's cells in topological order, its Tseitin CNF in a
// fresh budgeted solver, and up to two assumption-based Solve calls —
// the paper's "SAT(S=0)=false or SAT(S=1)=false" criterion. A polarity
// the pre-filter witnessed is known Sat (sim.Cone mirrors the AIG
// lowering cell for cell), so its call is skipped.
func (s *SmartOracle) satSolve(q *query, st *SatMuxStats) rtlil.State {
	mp := aig.NewPartialMapping(s.ix)
	for _, b := range q.sg.Inputs {
		mp.AddInputBit(b)
	}
	for _, c := range q.order {
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
