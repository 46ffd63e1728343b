package sat

import "sort"

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

type watcher struct {
	c       *clause
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; create
// solvers with NewSolver.
type Solver struct {
	clauses []*clause
	learnts []*clause
	watches [][]watcher

	assigns  []lbool
	level    []int32
	reason   []*clause
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    varHeap
	polarity []bool
	seen     []byte

	claInc float64

	model []lbool // snapshot of assigns at the last Sat result

	ok bool

	// MaxConflicts bounds the work of one Solve call; <= 0 means
	// unlimited. When the budget is exhausted Solve returns Unknown.
	MaxConflicts int64

	// Statistics, cumulative across Solve calls.
	Stats struct {
		Conflicts    int64
		Decisions    int64
		Propagations int64
		Restarts     int64
		Learnt       int64
	}
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order.s = s
	return s
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learnt clauses currently retained.
// Learnt clauses survive between Solve calls (they are implied by the
// problem clauses, so reusing them across assumption sets is sound) and
// are trimmed by the activity-based reduction.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// NewVar creates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: false
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v)
	return v
}

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() {
		return v.neg()
	}
	return v
}

// Value returns the model value of v after a Sat result.
func (s *Solver) Value(v Var) bool {
	return int(v) < len(s.model) && s.model[v] == lTrue
}

// ValueLit returns the model value of literal l after a Sat result.
func (s *Solver) ValueLit(l Lit) bool {
	v := s.Value(l.Var())
	if l.Sign() {
		return !v
	}
	return v
}

// AddClause adds a clause (a disjunction of literals). It returns false if
// the formula is now trivially unsatisfiable. Clauses may only be added at
// decision level 0, i.e. between Solve calls.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called during solving")
	}
	// Sort, dedupe, drop false literals, detect tautologies.
	ls := append([]Lit(nil), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		switch {
		case s.value(l) == lTrue || l == prev.Not():
			return true // satisfied at level 0 or tautology
		case s.value(l) == lFalse || l == prev:
			continue
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		s.ok = s.propagate() == nil
		return s.ok
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	w0, w1 := c.lits[0].Not(), c.lits[1].Not()
	s.watches[w0] = append(s.watches[w0], watcher{c, c.lits[1]})
	s.watches[w1] = append(s.watches[w1], watcher{c, c.lits[0]})
}

func (s *Solver) detach(c *clause) {
	for _, w := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Sign())
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause
// or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Make sure the false literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nw := c.lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(first) == lFalse {
				conflict = c
				// Copy remaining watchers and stop.
				kept = append(kept, ws[i+1:]...)
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // reserve slot for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.bumpVar(v)
				s.seen[v] = 1
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Next literal to look at.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals whose reason is subsumed. Keep
	// the pre-minimization set so every seen flag is cleared below.
	toClear := append([]Lit(nil), learnt...)
	minimized := learnt[:1]
	for _, l := range learnt[1:] {
		if !s.litRedundant(l) {
			minimized = append(minimized, l)
		}
	}
	learnt = minimized

	// Find backtrack level (max level among the non-asserting lits).
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}

	for _, l := range toClear {
		s.seen[l.Var()] = 0
	}
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the other literals marked
// in seen (local minimization: every literal of l's reason must be seen or
// at level 0).
func (s *Solver) litRedundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == nil {
		return false
	}
	for _, q := range r.lits {
		if q.Var() == l.Var() {
			continue
		}
		if s.seen[q.Var()] == 0 && s.level[q.Var()] > 0 {
			return false
		}
	}
	return true
}

func (s *Solver) backtrackTo(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.polarity[v] = l.Sign() // phase saving
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= 0.999 }

func (s *Solver) pickBranchVar() Var {
	for !s.order.empty() {
		v := s.order.removeMin()
		if s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes roughly half of the learnt clauses, keeping the most
// active ones and clauses currently used as reasons.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.learnts[i].activity > s.learnts[j].activity
	})
	locked := map[*clause]bool{}
	for _, c := range s.reason {
		if c != nil {
			locked[c] = true
		}
	}
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || locked[c] || len(c.lits) == 2 {
			keep = append(keep, c)
		} else {
			s.detach(c)
		}
	}
	s.learnts = keep
}

// luby computes the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	x := i - 1
	// Find the finite subsequence containing x and its size.
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << uint(seq)
}

// Solve determines satisfiability of the clause set under the given
// assumption literals. It returns Sat, Unsat, or Unknown when
// MaxConflicts is exceeded. After Sat, Value/ValueLit read the model.
func (s *Solver) Solve(assumptions ...Lit) Result {
	if !s.ok {
		return Unsat
	}
	defer s.backtrackTo(0)

	conflictsAtStart := s.Stats.Conflicts
	budget := s.MaxConflicts
	var restartNum int64
	learntLimit := len(s.clauses)/3 + 100
	if len(s.learnts) > learntLimit {
		// Learnt clauses retained from earlier Solve calls: bound the
		// database before searching so repeated incremental queries on
		// one solver cannot grow it without limit.
		s.reduceDB()
	}

	for {
		restartNum++
		restartBudget := luby(restartNum) * 100
		res := s.search(assumptions, restartBudget, &learntLimit, conflictsAtStart, budget)
		if res == Sat {
			s.model = append(s.model[:0], s.assigns...)
			return res
		}
		if res == Unsat {
			return res
		}
		if budget > 0 && s.Stats.Conflicts-conflictsAtStart >= budget {
			return Unknown
		}
		s.Stats.Restarts++
		s.backtrackTo(0)
	}
}

// search runs CDCL until sat, unsat, restart budget or global budget.
func (s *Solver) search(assumptions []Lit, nConflicts int64, learntLimit *int, conflStart, budget int64) Result {
	var localConfl int64
	for {
		confl := s.propagate()
		if confl != nil {
			s.Stats.Conflicts++
			localConfl++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				// Unit learnt clause: backtracked to level 0. A
				// contradiction here is global unsatisfiability.
				if s.value(learnt[0]) == lFalse {
					s.ok = false
					return Unsat
				}
				if s.value(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], nil)
				}
			} else {
				c := &clause{lits: learnt, learnt: true, activity: s.claInc}
				s.learnts = append(s.learnts, c)
				s.Stats.Learnt++
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayVar()
			s.decayClause()
			if localConfl >= nConflicts {
				return Unknown // restart
			}
			if budget > 0 && s.Stats.Conflicts-conflStart >= budget {
				return Unknown
			}
			continue
		}

		if len(s.learnts) > *learntLimit {
			s.reduceDB()
			*learntLimit += *learntLimit / 10
		}

		// Place assumptions as decisions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied; open an empty level to keep the
				// level↔assumption correspondence.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(a, nil)
			continue
		}

		v := s.pickBranchVar()
		if v < 0 {
			return Sat
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, s.polarity[v]), nil)
	}
}
