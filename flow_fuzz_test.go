package smartly

import (
	"reflect"
	"testing"
)

// FuzzParseFlow: the script parser must never panic, and every
// successfully parsed flow must round-trip through its String() form to
// an identical flow.
func FuzzParseFlow(f *testing.F) {
	for _, seed := range []string{
		"opt_expr",
		"opt_expr; opt_muxtree; opt_clean",
		"opt_expr; satmux(conflicts=64); rebuild; opt_clean",
		"fixpoint { opt_expr; satmux; rebuild; opt_clean }",
		"fixpoint(iters=3) { opt_expr; fixpoint { opt_clean } }",
		"satmux(depth=2, cells=10, sim_inputs=4, sat_inputs=50, conflicts=100)",
		"rebuild(selector_bits=8, patterns=16); opt_egraph(iters=3, node_limit=500, verify_conflicts=10); opt_dff(k=1, verify_conflicts=10)",
		"satmux(conflicts=10); rebuild(patterns=4)",
		"opt_expr;;opt_clean;",
		"opt_expr()",
		"bogus(key=value)",
		"fixpoint {",
		"a(b=c,d=e){f;g}",
		"  \n\t ; (=) } { ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		f1, err := ParseFlow(script)
		if err != nil {
			return // rejection is fine; panics are not
		}
		s1 := f1.String()
		f2, err := ParseFlow(s1)
		if err != nil {
			t.Fatalf("reparse of %q (from %q) failed: %v", s1, script, err)
		}
		if s2 := f2.String(); s1 != s2 {
			t.Fatalf("round trip not stable: %q -> %q (from %q)", s1, s2, script)
		}
		p1, err := f1.flow.Compile()
		if err != nil {
			t.Fatalf("compile of parsed flow %q failed: %v", s1, err)
		}
		p2, err := f2.flow.Compile()
		if err != nil {
			t.Fatalf("compile of reparsed flow %q failed: %v", s1, err)
		}
		if len(p1) != len(p2) {
			t.Fatalf("pass counts differ: %d vs %d", len(p1), len(p2))
		}
		for i := range p1 {
			if !reflect.DeepEqual(p1[i], p2[i]) {
				t.Fatalf("pass %d differs after round trip: %#v vs %#v", i, p1[i], p2[i])
			}
		}
	})
}
