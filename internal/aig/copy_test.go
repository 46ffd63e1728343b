package aig

import (
	"math/rand"
	"slices"
	"testing"
)

// lane reads literal l's 64-lane vector out of per-node values.
func lane(vals []uint64, l Lit) uint64 {
	if l.Compl() {
		return ^vals[l.Node()]
	}
	return vals[l.Node()]
}

// TestCopy: a copy computes the source's functions over the bound
// inputs, a second copy over the same inputs strashes onto the first
// (same literals, no new node), and constant inputs fold every output to
// a constant without creating an AND node.
func TestCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		mp, err := FromModule(buildRandomModule(rng, 10))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		src := mp.G
		g := New()
		bound := make([]Lit, src.NumNodes())
		for _, b := range mp.Inputs {
			bound[mp.LitOf(b).Node()] = g.NewInput()
		}
		input := func(n int32) Lit { return bound[n] }
		first := g.Copy(src, input)
		nodes := g.NumNodes()
		if again := g.Copy(src, input); !slices.Equal(first, again) || g.NumNodes() != nodes {
			t.Fatalf("trial %d: second copy differs or grew the graph (%d -> %d nodes)", trial, nodes, g.NumNodes())
		}
		// Functions: the copy's outputs under a random assignment of
		// the bound inputs equal the source's.
		for k := 0; k < 8; k++ {
			srcIn, dstIn := map[Lit]bool{}, map[Lit]bool{}
			for _, b := range mp.Inputs {
				v := rng.Intn(2) == 1
				srcIn[mp.LitOf(b)] = v
				dstIn[bound[mp.LitOf(b).Node()]] = v
			}
			copied := make([]Lit, len(mp.OutputLits))
			for i, l := range mp.OutputLits {
				copied[i] = first[l.Node()] ^ (l & 1)
			}
			if want, got := src.Eval(srcIn, mp.OutputLits), g.Eval(dstIn, copied); !slices.Equal(want, got) {
				t.Fatalf("trial %d: copy computes %v, source %v", trial, got, want)
			}
		}
		// Constant inputs fold.
		for _, c := range []Lit{Const0, Const1} {
			before := g.NumAnds()
			lits := g.Copy(src, func(int32) Lit { return c })
			in := map[Lit]bool{}
			for _, b := range mp.Inputs {
				in[mp.LitOf(b)] = c == Const1
			}
			want := src.Eval(in, mp.OutputLits)
			for i, l := range mp.OutputLits {
				got := lits[l.Node()] ^ (l & 1)
				if got != Const0 && got != Const1 {
					t.Fatalf("trial %d: output %d under constant inputs is %d, not a constant", trial, i, got)
				}
				if (got == Const1) != want[i] {
					t.Fatalf("trial %d: output %d folds to %d, Eval says %v", trial, i, got, want[i])
				}
			}
			if g.NumAnds() != before {
				t.Fatalf("trial %d: copy under constant inputs created %d AND nodes", trial, g.NumAnds()-before)
			}
		}
	}
}

// TestSimulate: 64-lane simulation agrees with Eval lane by lane on
// every output of random circuits.
func TestSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		mp, err := FromModule(buildRandomModule(rng, 10))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		vals := make([]uint64, mp.G.NumNodes())
		for _, b := range mp.Inputs {
			vals[mp.LitOf(b).Node()] = rng.Uint64()
		}
		mp.G.Simulate(vals)
		for ln := uint(0); ln < 64; ln++ {
			in := map[Lit]bool{}
			for _, b := range mp.Inputs {
				l := mp.LitOf(b)
				in[l] = vals[l.Node()]>>ln&1 == 1
			}
			for i, v := range mp.G.Eval(in, mp.OutputLits) {
				if got := lane(vals, mp.OutputLits[i])>>ln&1 == 1; got != v {
					t.Fatalf("trial %d lane %d output %d: Simulate %v, Eval %v", trial, ln, i, got, v)
				}
			}
		}
	}
}
