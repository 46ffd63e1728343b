package egraph

import (
	"testing"

	"repro/internal/genbench"
)

// BenchmarkEgraphPass times opt_egraph alone on three Table II
// substitutes at scale 0.05 — the suite where the pass dominates the
// `full` flow while rewiring almost nothing, so its cost is the
// e-graph's own representation overhead. Each iteration runs on a fresh
// copy of the generated module, cloned outside the timer.
func BenchmarkEgraphPass(b *testing.B) {
	recipes := map[string]genbench.Recipe{}
	for _, r := range genbench.Recipes() {
		recipes[r.Name] = r
	}
	for _, name := range []string{"top_cache_axi", "mem_ctrl", "tv80"} {
		orig := genbench.Generate(recipes[name], 0.05)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := orig.Clone()
				b.StartTimer()
				if _, err := (&Pass{}).Run(nil, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
