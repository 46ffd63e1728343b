package sat

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzMaxVars bounds the differential check: the reference oracle
// enumerates all 2^n assignments.
const fuzzMaxVars = 12

// parseClauseList reads the clauses of a DIMACS body into int slices
// (the reference representation), mirroring ParseDIMACS's loose
// acceptance rules.
func parseClauseList(data []byte) (clauses [][]int, maxVar int, err error) {
	var clause []int
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "c") || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "p") {
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, 0, fmt.Errorf("bad token %q", tok)
			}
			if n == 0 {
				clauses = append(clauses, clause)
				clause = nil
				continue
			}
			v := n
			if v < 0 {
				v = -v
			}
			if v > maxVar {
				maxVar = v
			}
			clause = append(clause, n)
		}
	}
	if len(clause) > 0 {
		return nil, 0, fmt.Errorf("dangling clause")
	}
	return clauses, maxVar, nil
}

// refSat reports whether the clause set has a satisfying assignment
// consistent with the assumptions, by exhaustive enumeration. Variables
// are 1-based DIMACS numbers; assumption literals use the same encoding.
func refSat(clauses [][]int, n int, assumptions []int) bool {
	for mask := 0; mask < 1<<uint(n); mask++ {
		value := func(lit int) bool {
			v := lit
			if v < 0 {
				v = -v
			}
			val := mask>>(uint(v)-1)&1 == 1
			if lit < 0 {
				return !val
			}
			return val
		}
		ok := true
		for _, a := range assumptions {
			if !value(a) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, cl := range clauses {
			sat := false
			for _, l := range cl {
				if value(l) {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// toLit converts a DIMACS literal to a solver literal.
func toLit(lit int) Lit {
	v := lit
	if v < 0 {
		v = -v
	}
	return MkLit(Var(v-1), lit < 0)
}

// checkModel verifies a Sat verdict: the model must satisfy every clause
// and every assumption.
func checkModel(t *testing.T, s *Solver, clauses [][]int, assumptions []int) {
	t.Helper()
	for _, a := range assumptions {
		if !s.ValueLit(toLit(a)) {
			t.Fatalf("model violates assumption %d", a)
		}
	}
	for _, cl := range clauses {
		ok := false
		for _, l := range cl {
			if s.ValueLit(toLit(l)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model violates clause %v", cl)
		}
	}
}

// FuzzSolverDifferential cross-checks the CDCL solver against exhaustive
// enumeration on small CNFs (<= fuzzMaxVars variables): the cnf bytes are
// a DIMACS formula, and the script bytes drive a sequence of incremental
// operations on ONE solver instance — Solve calls under varying
// assumption sets and level-0 clause additions between calls — pinning
// the incremental contract that repeated assumption-based queries rely
// on (the SAT-mux oracle's two polarity checks per cone, the k-induction
// checker's unrolling): sound backtracking to level 0, learnt clauses
// that never change satisfiability, models valid after any history.
func FuzzSolverDifferential(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.cnf"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no DIMACS seed corpus: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// One seed per operation mix: plain solving, assumption rounds,
		// clause growth in the middle.
		f.Add(data, []byte{0})
		f.Add(data, []byte{0, 3, 1, 2, 0, 4, 7, 1})
		f.Add(data, []byte{5, 2, 9, 3, 0, 7, 0, 1, 2, 3, 4})
	}
	f.Add([]byte("p cnf 2 2\n1 2 0\n-1 -2 0\n"), []byte{0, 1, 1, 0, 7, 0})

	f.Fuzz(func(t *testing.T, cnf []byte, script []byte) {
		clauses, maxVar, err := parseClauseList(cnf)
		if err != nil || maxVar == 0 || maxVar > fuzzMaxVars {
			t.Skip()
		}
		s, err := ParseDIMACS(bytes.NewReader(cnf))
		if err != nil {
			t.Skip()
		}
		for s.NumVars() < maxVar {
			s.NewVar()
		}
		n := maxVar

		pos := 0
		next := func() byte {
			if pos >= len(script) {
				return 0
			}
			b := script[pos]
			pos++
			return b
		}
		solves := 0
		for round := 0; round < 12 && (round == 0 || pos < len(script)); round++ {
			op := next() % 8
			switch {
			case op < 5:
				// Solve under a fresh assumption set.
				k := int(next()) % (n + 1)
				var lits []Lit
				var ref []int
				for j := 0; j < k; j++ {
					b := next()
					v := int(b)%n + 1
					if b&0x10 != 0 {
						v = -v
					}
					lits = append(lits, toLit(v))
					ref = append(ref, v)
				}
				got := s.Solve(lits...)
				want := Unsat
				if refSat(clauses, n, ref) {
					want = Sat
				}
				if got != want {
					t.Fatalf("Solve(%v) = %v, reference says %v (after %d prior solves)", ref, got, want, solves)
				}
				if got == Sat {
					checkModel(t, s, clauses, ref)
				}
				solves++
			default:
				// Grow the formula between Solve calls.
				k := int(next())%3 + 1
				var lits []Lit
				var ref []int
				for j := 0; j < k; j++ {
					b := next()
					v := int(b)%n + 1
					if b&0x10 != 0 {
						v = -v
					}
					lits = append(lits, toLit(v))
					ref = append(ref, v)
				}
				ok := s.AddClause(lits...)
				clauses = append(clauses, ref)
				if !ok && refSat(clauses, n, nil) {
					t.Fatalf("AddClause(%v) reported unsat, reference disagrees", ref)
				}
			}
		}
	})
}

// TestSolverIncrementalVsFresh solves the seed corpus under many
// assumption sets, once incrementally on a shared solver and once on a
// fresh solver per query: verdicts must be identical, regardless of the
// learnt clauses the shared instance accumulates.
func TestSolverIncrementalVsFresh(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.cnf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no DIMACS corpus: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, maxVar, err := parseClauseList(data)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := ParseDIMACS(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		// Assumption sweep: each variable positively, negatively, and in
		// pairs with its successor.
		var sets [][]int
		for v := 1; v <= maxVar; v++ {
			sets = append(sets, []int{v}, []int{-v})
			if v < maxVar {
				sets = append(sets, []int{v, -(v + 1)})
			}
		}
		for i, set := range sets {
			var lits []Lit
			for _, l := range set {
				lits = append(lits, toLit(l))
			}
			fresh, err := ParseDIMACS(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Solve(lits...)
			got := shared.Solve(lits...)
			if got != want {
				t.Fatalf("%s: query %d (%v): shared solver = %v, fresh = %v",
					path, i, set, got, want)
			}
		}
	}
}

// TestSolverLearntBound asserts that repeated incremental queries cannot
// grow the learnt database without limit: Solve trims it to the
// reduction policy's working size before each search.
func TestSolverLearntBound(t *testing.T) {
	s, err := ParseDIMACS(bytes.NewReader(mustRead(t, filepath.Join("testdata", "php32.cnf"))))
	if err != nil {
		t.Fatal(err)
	}
	limit := s.NumClauses()/3 + 100
	for i := 0; i < 200; i++ {
		v := Var(i % s.NumVars())
		s.Solve(MkLit(v, i%2 == 0))
		if got := s.NumLearnts(); got > 2*limit {
			t.Fatalf("learnt DB grew to %d (limit %d) after %d queries", got, limit, i+1)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
