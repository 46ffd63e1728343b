package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
	// DisableInference turns the rule engine off (ablation).
	DisableInference bool
	// DisableSimFilter turns the bit-parallel simulation pre-filter in
	// front of the SAT stage off (ablation).
	DisableSimFilter bool
	// DisableSAT turns simulation/SAT off, leaving inference only
	// (ablation).
	DisableSAT bool
	// DisableSubgraphFilter turns the Theorem II.1 pruning off
	// (ablation).
	DisableSubgraphFilter bool
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
	SubgraphCells   int // total kept cells across queries
	CandidateCells  int // total pre-filter cells across queries

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
	return fmt.Sprintf("queries=%d facts=%d unreachable=%d inference=%d sim=%d sat=%d/%d unknown=%d subgraph=%d/%d learnt=%d mapfail=%d trips=%d simfilter=%d/%d",
		s.Queries, s.FactHits, s.UnreachablePath, s.InferenceHits, s.SimHits,
		s.SATHits, s.SATCalls, s.Unknown, s.SubgraphCells, s.CandidateCells,
		s.LearntClauses, s.MapFailures, s.BudgetTrips, s.SimFiltered, s.SimVectors)
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
// before any encoding happens.
//
// The oracle is not safe for concurrent use from the outside, but
// ValueBatch fans independent queries out to Ctx.Workers() goroutines
// internally: every query runs on worker-private state over the shared
// read-only Index, and results, cache writes and counters are merged in
// submission order — bit-identical to the sequential path for every
// worker count.
type SmartOracle struct {
	Stats SatMuxStats

	// Ctx supplies the worker budget and cancellation for ValueBatch;
	// nil means sequential.
	Ctx *opt.Ctx

	ix    *rtlil.Index
	graph *subgraph.Graph
	facts *opt.FactOracle
	o     SatMuxOptions
	cache map[string]cacheEntry
	times stageTimes
	// unindexed numbers the bits cacheKey meets that the index does not
	// know (see bitKey).
	unindexed map[rtlil.SigBit]uint32
}

type cacheEntry struct {
	v     rtlil.State
	known bool
}

// NewSmartOracle builds an oracle over the module index.
func NewSmartOracle(ix *rtlil.Index, o SatMuxOptions) *SmartOracle {
	return &SmartOracle{
		ix: ix,
		// One adjacency build amortized over every query of the pass:
		// extraction is the hottest per-query stage once the pre-filter
		// has culled the SAT calls.
		graph: subgraph.NewGraph(ix),
		facts: opt.NewFactOracle(),
		o:     o.withDefaults(),
		cache: map[string]cacheEntry{},
	}
}

// Push implements opt.Oracle.
func (s *SmartOracle) Push(bit rtlil.SigBit, v rtlil.State) { s.facts.Push(bit, v) }

// Pop implements opt.Oracle.
func (s *SmartOracle) Pop(n int) { s.facts.Pop(n) }

// Lookup implements opt.Oracle (cheap, facts only).
func (s *SmartOracle) Lookup(bit rtlil.SigBit) (rtlil.State, bool) {
	return s.facts.Lookup(bit)
}

// Value implements opt.Oracle with the full §II machinery.
func (s *SmartOracle) Value(bit rtlil.SigBit) (rtlil.State, bool) {
	if v, ok := s.facts.Lookup(bit); ok {
		s.Stats.FactHits++
		return v, ok
	}
	s.Stats.Queries++

	key := s.cacheKey(bit)
	if e, ok := s.cache[key]; ok {
		return e.v, e.known
	}
	var st SatMuxStats
	v, known := s.solve(bit, &st, &s.times)
	accumulate(&s.Stats, st)
	s.cache[key] = cacheEntry{v, known}
	return v, known
}

// ValueBatch implements opt.BatchOracle: the independent control-value
// queries of one pmux select scan are deduplicated by cache key and
// solved on a bounded worker pool, each on worker-private state. Results,
// cache contents and counters are merged in submission order, so they
// are bit-identical for every worker count and match calling Value
// sequentially.
func (s *SmartOracle) ValueBatch(bits []rtlil.SigBit) []opt.BatchValue {
	out := make([]opt.BatchValue, len(bits))
	type job struct {
		bit   rtlil.SigBit
		key   string
		idxs  []int
		v     rtlil.State
		known bool
		st    SatMuxStats
		tm    stageTimes
	}
	var jobs []*job
	byKey := map[string]*job{}
	for i, bit := range bits {
		if v, ok := s.facts.Lookup(bit); ok {
			s.Stats.FactHits++
			out[i] = opt.BatchValue{V: v, Known: true}
			continue
		}
		s.Stats.Queries++
		key := s.cacheKey(bit)
		if e, ok := s.cache[key]; ok {
			out[i] = opt.BatchValue{V: e.v, Known: e.known}
			continue
		}
		if j, dup := byKey[key]; dup {
			// Sequentially the first occurrence would have primed the
			// cache; attach this index to the same job.
			j.idxs = append(j.idxs, i)
			continue
		}
		j := &job{bit: bit, key: key, idxs: []int{i}}
		byKey[key] = j
		jobs = append(jobs, j)
	}
	opt.ForEach(s.Ctx.Context(), s.Ctx.Workers(), len(jobs), func(i int) {
		j := jobs[i]
		j.v, j.known = s.solve(j.bit, &j.st, &j.tm)
	})
	for _, j := range jobs {
		accumulate(&s.Stats, j.st)
		s.times.add(j.tm)
		s.cache[j.key] = cacheEntry{j.v, j.known}
		for _, i := range j.idxs {
			out[i] = opt.BatchValue{V: j.v, Known: j.known}
		}
	}
	return out
}

// cacheKey identifies a query by its target and the path facts: the
// target's bit key, then the (bit key, value) pairs of the facts in
// ascending order, as bytes. Two queries share a key exactly when they
// ask about the same canonical bit under the same facts.
func (s *SmartOracle) cacheKey(bit rtlil.SigBit) string {
	facts := s.facts.Facts()
	var pairBuf [16]uint64
	pairs := pairBuf[:0]
	for b, v := range facts {
		pairs = append(pairs, uint64(s.bitKey(b))<<8|uint64(v))
	}
	slices.Sort(pairs)
	var keyBuf [4 + 5*16]byte
	key := binary.LittleEndian.AppendUint32(keyBuf[:0], s.bitKey(bit))
	for _, p := range pairs {
		key = binary.LittleEndian.AppendUint32(key, uint32(p>>8))
		key = append(key, byte(p))
	}
	return string(key)
}

// bitKey numbers a bit for cacheKey: its Index.ID, a distinct number
// for each constant, and for a bit the index does not know one the
// oracle assigns on first sight. Every number is unique to one
// canonical bit.
func (s *SmartOracle) bitKey(b rtlil.SigBit) uint32 {
	if id := s.ix.ID(b); id >= 0 {
		return uint32(id)
	}
	b = s.ix.MapBit(b)
	if b.IsConst() {
		return uint32(s.ix.NumIDs()) + uint32(b.Const)
	}
	k, ok := s.unindexed[b]
	if !ok {
		k = uint32(s.ix.NumIDs()) + uint32(rtlil.Sz) + 1 + uint32(len(s.unindexed))
		if s.unindexed == nil {
			s.unindexed = map[rtlil.SigBit]uint32{}
		}
		s.unindexed[b] = k
	}
	return k
}

// query is one control-value query that inference left open: the
// extracted cone in topological order, the fact snapshot that the
// sweeps mask by and SAT assumes, and the target values a sweep
// witnessed. A witnessed value is known Sat, so satSolve skips that
// Solve call.
type query struct {
	target       rtlil.SigBit // the queried bit, sigmapped
	sg           *subgraph.Result
	order        []*rtlil.Cell
	facts        map[rtlil.SigBit]rtlil.State
	knowns       []rtlil.SigBit
	seen0, seen1 bool
}

// solve runs the §II stages for one query: sub-graph extraction,
// inference, then an exhaustive sweep for few inputs, or the random
// pre-filter sweep followed by SAT. It writes counters to st and stage
// times to tm (worker-local sinks during parallel batches, merged in
// order afterwards) and touches no shared mutable state.
func (s *SmartOracle) solve(bit rtlil.SigBit, st *SatMuxStats, tm *stageTimes) (rtlil.State, bool) {
	if s.Ctx.Err() != nil {
		// Canceled: report unknown; the pass surfaces the context error.
		st.Unknown++
		return rtlil.Sx, false
	}
	t := time.Now()
	facts := s.facts.Facts()
	// Deterministic fact order: it seeds the sub-graph BFS and the SAT
	// assumption list, where map iteration order could otherwise change
	// conflict-bounded solver outcomes between runs.
	knowns := sortedBits(facts)
	sg := s.graph.Extract(bit, knowns, subgraph.Options{
		Depth:         s.o.SubgraphDepth,
		MaxCells:      s.o.MaxSubgraphCells,
		DisableFilter: s.o.DisableSubgraphFilter,
	})
	t = tm.lap(stageExtract, t)
	st.SubgraphCells += len(sg.Cells)
	st.CandidateCells += sg.CandidateCells

	// Stage 1: inference rules (paper Table I).
	if !s.o.DisableInference {
		v, decided := s.infer(bit, sg, knowns, facts, st)
		t = tm.lap(stageInfer, t)
		if decided {
			return v, true
		}
	}
	if s.o.DisableSAT {
		st.Unknown++
		return rtlil.Sx, false
	}

	// Stage 2: exhaustive simulation for few inputs, SAT otherwise.
	n := len(sg.Inputs)
	if n > s.o.SimInputLimit && n > s.o.SATInputLimit {
		st.Unknown++
		return rtlil.Sx, false
	}
	q := &query{
		target: s.ix.MapBit(bit),
		sg:     sg,
		order:  sg.Order,
		facts:  facts,
		knowns: knowns,
	}
	if n <= s.o.SimInputLimit {
		v, ok := s.sweep(q, true, st)
		tm.lap(stageSim, t)
		if ok {
			st.SimHits++
			return v, true
		}
		st.Unknown++
		return rtlil.Sx, false
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
			return rtlil.Sx, false
		}
	}
	v, ok := s.satSolve(q, st)
	tm.lap(stageSAT, t)
	return v, ok
}

// infer runs the Table I rule engine over the sub-graph under the path
// facts. It reports decided=true with the value when the rules settle
// the query: the target's inferred value, or S0 for an unreachable path
// (the mux output is never observed there, so either branch is sound).
func (s *SmartOracle) infer(bit rtlil.SigBit, sg *subgraph.Result, knowns []rtlil.SigBit, facts map[rtlil.SigBit]rtlil.State, st *SatMuxStats) (v rtlil.State, decided bool) {
	e := infer.NewScoped(s.graph, sg.IDs)
	for _, b := range knowns {
		e.Assume(b, facts[b])
	}
	if !e.Propagate() {
		st.UnreachablePath++
		return rtlil.S0, true
	}
	if v, ok := e.Value(bit); ok {
		st.InferenceHits++
		return v, true
	}
	return rtlil.Sx, false
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
// value, or (x, false) when it proved none: a random sweep, both values
// seen, a cancellation, or a cone it cannot simulate.
//
// Determinism: the RNG is seeded from the query's own shape (its cell
// and input counts) and the facts are scanned in sorted order, so the
// lane schedule depends only on the query, never on worker count or
// scheduling.
func (s *SmartOracle) sweep(q *query, exhaustive bool, st *SatMuxStats) (rtlil.State, bool) {
	cone, err := sim.NewCone(s.ix, q.order)
	if err != nil {
		return rtlil.Sx, false
	}
	tslot, ok := cone.Slot(q.target)
	if !ok {
		return rtlil.Sx, false // the target is not computed in the cone
	}
	inSlots := make([]int, len(q.sg.Inputs))
	for i, b := range q.sg.Inputs {
		if inSlots[i], ok = cone.Slot(b); !ok {
			return rtlil.Sx, false
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
	for _, b := range q.knowns {
		slot, ok := cone.Slot(b)
		if !ok {
			continue
		}
		var want uint64
		switch q.facts[b] {
		case rtlil.S0:
		case rtlil.S1:
			want = ^uint64(0)
		default:
			if !exhaustive {
				return rtlil.Sx, false // no lane encoding: decline to filter
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
			return rtlil.Sx, false
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
			return rtlil.Sx, false
		}
	}
	switch {
	case !exhaustive:
		return rtlil.Sx, false
	case q.seen0 != q.seen1:
		return rtlil.BoolState(q.seen1), true
	}
	// No consistent assignment: unreachable path.
	st.UnreachablePath++
	return rtlil.S0, true
}

// rngPool recycles the pre-filter's generators. Re-seeding one yields
// the same draws as rand.New(rand.NewSource(seed)) without allocating
// the source's 4.9 KB state for every query.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// sortedBits returns the fact keys in a deterministic order.
func sortedBits(facts map[rtlil.SigBit]rtlil.State) []rtlil.SigBit {
	out := make([]rtlil.SigBit, 0, len(facts))
	for b := range facts {
		out = append(out, b)
	}
	slices.SortFunc(out, func(bi, bj rtlil.SigBit) int {
		if (bi.Wire == nil) != (bj.Wire == nil) {
			if bi.Wire == nil {
				return -1
			}
			return 1
		}
		if bi.Wire != nil && bi.Wire.Name != bj.Wire.Name {
			return strings.Compare(bi.Wire.Name, bj.Wire.Name)
		}
		if bi.Offset != bj.Offset {
			return cmp.Compare(bi.Offset, bj.Offset)
		}
		return cmp.Compare(bi.Const, bj.Const)
	})
	return out
}

// satSolve answers one SAT-bound query on a private encoding: the AIG
// mapping of the cone's cells in topological order, its Tseitin CNF in a
// fresh budgeted solver, and up to two assumption-based Solve calls —
// the paper's "SAT(S=0)=false or SAT(S=1)=false" criterion. A polarity
// the pre-filter witnessed is known Sat (sim.Cone mirrors the AIG
// lowering cell for cell), so its call is skipped.
func (s *SmartOracle) satSolve(q *query, st *SatMuxStats) (rtlil.State, bool) {
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
			return rtlil.Sx, false
		}
	}
	if q.target.IsConst() || !mp.HasBit(q.target) {
		st.Unknown++
		return rtlil.Sx, false
	}
	solver := sat.NewSolver()
	solver.MaxConflicts = s.o.MaxConflicts
	cnf := aig.NewCNF(mp.G, solver)

	// Assumptions in sorted fact order: under a conflict budget the
	// solver outcome may depend on assumption order, which must not vary
	// between runs or worker counts. Constant facts (an x select pushed
	// by the walker) and facts outside the cone have no literal.
	var assumptions []sat.Lit
	for _, b := range q.knowns {
		if b.IsConst() || !mp.HasBit(b) {
			continue
		}
		l := cnf.SatLit(mp.LitOf(b))
		if q.facts[b] == rtlil.S0 {
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
		return rtlil.S0, true
	case r0 == sat.Unsat:
		// target=0 impossible (even if the other call hit its budget,
		// an Unsat verdict transfers through the abstraction).
		st.SATHits++
		return rtlil.S1, true
	case r1 == sat.Unsat:
		st.SATHits++
		return rtlil.S0, true
	}
	st.Unknown++
	return rtlil.Sx, false
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
	var total opt.Result
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
		if iter == 0 {
			total = r
		} else {
			mergeResults(&total, r)
		}
		if !r.Changed {
			break
		}
	}
	// Thread the oracle counters into the run report alongside the
	// walker's rewrite counters.
	if total.Details == nil {
		total.Details = map[string]int{}
	}
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
	dst.SubgraphCells += s.SubgraphCells
	dst.CandidateCells += s.CandidateCells
	dst.LearntClauses += s.LearntClauses
	dst.MapFailures += s.MapFailures
	dst.BudgetTrips += s.BudgetTrips
	dst.SimFiltered += s.SimFiltered
	dst.SimVectors += s.SimVectors
}

func mergeResults(dst *opt.Result, r opt.Result) {
	if r.Changed {
		dst.Changed = true
	}
	if dst.Details == nil {
		dst.Details = map[string]int{}
	}
	for k, v := range r.Details {
		dst.Details[k] += v
	}
}
