package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	smartly "repro"
	"repro/internal/genbench"
	"repro/internal/harness"
	"repro/internal/rtlil"
)

// An engine workload optimizes a pool of cases with the `full` flow in
// process, one case at a time. The pool holds several variants of the
// workload's case list; variant v offsets every recipe seed by
// seed+v, so seed 0 variant 0 is the stock recipe set. The pool is a
// window sliding along one sequence of variants: seeds closer than
// the pool size share variants, seeds further apart share none. What
// a case costs varies far more from one draw to the next than the
// machine does from run to run, so a window keeps nearby seeds
// comparable while every seed still runs inputs of its own. Per-case
// run times are heavy-tailed and often bimodal across variants (an
// e-graph saturation or SAT proof that takes ten times the usual on one
// draw), so flow_s sums, over the case slots, each slot's interquartile
// mean over its runs: robust to the tail, and smoother than a median
// when the draws split into two modes.
//
// The process keeps no netlist between runs: each run regenerates its
// input from the recipe, and each first output is checked at once and
// dropped. A pool of live netlists would make every GC cycle of the
// measured flow mark it, and outputs kept until the end would make the
// live heap grow with the number of runs.

// engineCase is one case of one pool variant.
type engineCase struct {
	// slot names the case across variants (recipe or corpus name).
	slot string
	// make builds a fresh copy of the original netlist.
	make func() *rtlil.Module
	ref  *reference
}

// family describes an engine workload.
type family struct {
	// variants is the pool size; every variant is measured at least
	// once per phase.
	variants int
	// build returns variant v's cases and one generated netlist of
	// each, recording a span per generated case under parent.
	build func(v int, tr *tracer, parent int) ([]engineCase, []*rtlil.Module, error)
}

// variantOffset is the recipe seed offset of pool variant v.
func variantOffset(seed int64, v int) int64 { return seed + int64(v) }

// generate runs genbench.Generate under a span.
func generate(r genbench.Recipe, scale float64, tr *tracer, parent int) *rtlil.Module {
	start := time.Now()
	m := genbench.Generate(r, scale)
	tr.add("genbench.Generate", parent, start, time.Since(start))
	return m
}

// recipeCase generates the recipe's netlist under a span and returns
// it with a case that regenerates it on demand.
func recipeCase(slot string, r genbench.Recipe, scale float64, tr *tracer, parent int) (engineCase, *rtlil.Module) {
	return engineCase{slot: slot, make: func() *rtlil.Module { return genbench.Generate(r, scale) }},
		generate(r, scale, tr, parent)
}

// table2Family is the paper's Table II suite: the ten public-benchmark
// substitutes.
func table2Family(o options) family {
	scale, variants := 0.05, 10
	if o.small {
		scale, variants = 0.01, 2
	}
	return family{variants: variants, build: func(v int, tr *tracer, parent int) ([]engineCase, []*rtlil.Module, error) {
		var cases []engineCase
		var mods []*rtlil.Module
		for _, r := range genbench.Recipes() {
			r.Seed += variantOffset(o.seed, v)
			c, m := recipeCase(r.Name, r, scale, tr, parent)
			cases, mods = append(cases, c), append(mods, m)
		}
		return cases, mods, nil
	}}
}

// industrialFamily is the industrial-style selection logic of the
// paper's §IV-B: several test points per variant.
func industrialFamily(o options) family {
	scale, points, variants := 0.05, 3, 16
	if o.small {
		scale, points, variants = 0.01, 1, 2
	}
	return family{variants: variants, build: func(v int, tr *tracer, parent int) ([]engineCase, []*rtlil.Module, error) {
		var cases []engineCase
		var mods []*rtlil.Module
		for p := 0; p < points; p++ {
			r := genbench.IndustrialRecipe(p)
			// Points share one recipe, so variants step by the point
			// count to keep every (variant, point) seed distinct.
			r.Seed += variantOffset(o.seed, v) * int64(points)
			c, m := recipeCase(fmt.Sprintf("industrial%d", p), r, scale, tr, parent)
			cases, mods = append(cases, c), append(mods, m)
		}
		return cases, mods, nil
	}}
}

// seqFamily is the register-sweep suite: the sequential recipes plus
// the Verilog corpus in testdata/corpus.
func seqFamily(o options) family {
	scale, variants := 0.25, 16
	if o.small {
		scale, variants = 0.05, 2
	}
	return family{variants: variants, build: func(v int, tr *tracer, parent int) ([]engineCase, []*rtlil.Module, error) {
		var cases []engineCase
		var mods []*rtlil.Module
		for _, r := range genbench.SeqRecipes() {
			r.Seed += variantOffset(o.seed, v)
			c, m := recipeCase(r.Name, r, scale, tr, parent)
			cases, mods = append(cases, c), append(mods, m)
		}
		start := time.Now()
		corpus, err := harness.LoadCorpus(filepath.Join(o.root, "testdata", "corpus"))
		tr.add("harness.LoadCorpus", parent, start, time.Since(start))
		if err != nil {
			return nil, nil, err
		}
		for _, c := range corpus {
			cases = append(cases, engineCase{slot: "corpus_" + c.Name, make: c.Module.Clone})
			mods = append(mods, c.Module)
		}
		return cases, mods, nil
	}}
}

// setupEngine generates the pool and each case's simulation reference.
func setupEngine(o options, fam family, tr *tracer) ([][]engineCase, error) {
	root := tr.add("setup", 0, time.Now(), 0)
	pool := make([][]engineCase, fam.variants)
	for v := range pool {
		cases, mods, err := fam.build(v, tr, root)
		if err != nil {
			return nil, err
		}
		for i := range cases {
			rng := rand.New(rand.NewSource(variantOffset(o.seed, v)<<8 + int64(i)))
			if cases[i].ref, err = newReference(mods[i], rng); err != nil {
				return nil, fmt.Errorf("simulating original %s: %w", cases[i].slot, err)
			}
		}
		pool[v] = cases
	}
	return pool, nil
}

// engineRun is one flow run of one case.
type engineRun struct {
	v, i  int
	dur   time.Duration
	alloc uint64
	// peakHeap is the largest live heap sampled during the run.
	peakHeap float64
	// hash is the output's canonical hash.
	hash string
	err  error
}

// outcomes is what the phases keep of each case's first run, checked
// as soon as it is produced: its output hash, simulation verdict and
// AIG area. Its report's counters are summed as they arrive, so no
// output or report outlives its run.
type outcomes struct {
	first    map[[2]int]firstRun
	counters map[string]float64
	iters    int
}

type firstRun struct {
	hash  string
	check error
	area  int
}

func newOutcomes() *outcomes {
	return &outcomes{first: map[[2]int]firstRun{}, counters: map[string]float64{}}
}

// record checks a case's first optimized output against its original
// by simulation and keeps its hash, verdict and area.
func (oc *outcomes) record(k [2]int, c engineCase, out *rtlil.Module, hash string, rep smartly.RunReport) error {
	area, err := smartly.Area(out)
	if err != nil {
		return fmt.Errorf("area of %s: %w", c.slot, err)
	}
	oc.first[k] = firstRun{hash: hash, check: c.ref.check(out), area: area}
	for _, p := range rep.Passes {
		for name, n := range p.Counters {
			oc.counters[name] += float64(n)
		}
	}
	for _, f := range rep.Fixpoints {
		oc.iters += f.Iterations
	}
	return nil
}

// enginePhase runs rounds over the pool until the phase has lasted
// secs and at least minRounds rounds ran. It returns every run plus
// the per-round runtime counters. The first output of each case is
// checked right after its run, outside the run's timed region.
func enginePhase(o options, flow *smartly.Flow, pool [][]engineCase, secs float64, minRounds int,
	oc *outcomes, tr *tracer) (runs []engineRun, rounds []roundStats) {
	var peak heapPeak
	defer peak.sample()()
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < secs; r++ {
		v := r % len(pool)
		rt0 := readRuntime(true)
		roundStart := time.Now()
		roundID := tr.add("round", 0, roundStart, 0)
		for i, c := range pool[v] {
			m := c.make()
			before := readRuntime(false)
			peak.restart(before)
			t0 := time.Now()
			rep, err := flow.Run(m, smartly.WithWorkers(o.workers), smartly.WithTimings())
			d := time.Since(t0)
			run := engineRun{v: v, i: i, dur: d, alloc: readRuntime(false).allocBytes - before.allocBytes,
				peakHeap: float64(peak.max.Load()), err: err}
			if tr != nil {
				id := tr.add("smartly.Flow.Run", roundID, t0, d)
				for _, p := range rep.Passes {
					tr.add(p.Name, id, t0, p.Duration)
				}
			}
			if err == nil {
				run.hash = rtlil.CanonicalHash(m)
				k := [2]int{v, i}
				if _, done := oc.first[k]; !done {
					run.err = oc.record(k, c, m, run.hash, rep)
				}
			}
			runs = append(runs, run)
		}
		rt1 := readRuntime(true)
		tr.setDur(roundID, time.Since(roundStart))
		rounds = append(rounds, roundStats{id: roundID, gcCycles: rt1.gcCycles - rt0.gcCycles,
			pauseNS: rt1.pauseNS - rt0.pauseNS, gcCPU: rt1.gcCPU - rt0.gcCPU, totalCPU: rt1.totalCPU - rt0.totalCPU})
	}
	return runs, rounds
}

// roundStats are one round's runtime counter deltas.
type roundStats struct {
	id                int
	gcCycles, pauseNS uint64
	gcCPU, totalCPU   float64
}

// runEngine sets the workload up setupRuns times, measures the last
// set-up for o.seconds (with --trace 1, an untraced pass over the pool
// and then a traced half) and then checks every output.
func runEngine(o options, fam family) (*report, error) {
	flow, err := smartly.NamedFlow("full")
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups, genTimes []float64
	var pool [][]engineCase
	for s := 0; s < setupRuns; s++ {
		st := newTracer()
		start := time.Now()
		if pool, err = setupEngine(o, fam, st); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(start)))
		genTimes = append(genTimes, seconds(st.selfTimes(1)["genbench.Generate"]))
	}

	oc := newOutcomes()
	rep := &report{values: map[string]float64{}}
	var runs []engineRun
	if o.trace {
		// The untraced half covers the pool, so the counters and the
		// output check see every case; the traced half measures the
		// leading variants, and the overhead compares the two halves on
		// the variants both ran.
		untraced, _ := enginePhase(o, flow, pool, o.seconds/2, len(pool), oc, nil)
		traced, rounds := enginePhase(o, flow, pool, o.seconds/2, min(3, len(pool)), oc, tr)
		runs = append(untraced, traced...)
		rep.spans = tr
		fillEngineLayers(rep.values, oc, rounds, tr)
		rep.values["genbench.generate_s"] = median(genTimes)
		measured := map[int]bool{}
		for _, r := range traced {
			measured[r.v] = true
		}
		var matched []engineRun
		for _, r := range untraced {
			if measured[r.v] {
				matched = append(matched, r)
			}
		}
		rep.values["trace.flow_overhead_frac"] = ratio(flowSeconds(pool, traced), flowSeconds(pool, matched)) - 1
	} else {
		runs, _ = enginePhase(o, flow, pool, o.seconds, len(pool), oc, nil)
	}

	area := checkEngine(pool, runs, oc, rep)
	rep.values["setup_s"] = median(setups)
	rep.values["flow_s"] = flowSeconds(pool, runs)
	rep.values["aig_area"] = float64(area)
	rep.values["alloc_mb"] = acrossSlots(pool, runs, func(r engineRun) float64 { return float64(r.alloc) }, add) / 1e6
	// Runs are sequential, so the process peak is the heaviest case's.
	rep.values["peak_heap_mb"] = acrossSlots(pool, runs, func(r engineRun) float64 { return r.peakHeap }, math.Max) / 1e6
	return rep, nil
}

// flowSeconds sums, over the case slots, each slot's interquartile
// mean flow time.
func flowSeconds(pool [][]engineCase, runs []engineRun) float64 {
	return acrossSlots(pool, runs, func(r engineRun) float64 { return seconds(r.dur) }, add)
}

func add(a, b float64) float64 { return a + b }

// acrossSlots combines, over the case slots, the interquartile mean of f
// over each slot's runs.
func acrossSlots(pool [][]engineCase, runs []engineRun, f func(engineRun) float64, combine func(a, b float64) float64) float64 {
	bySlot := map[string][]float64{}
	for _, r := range runs {
		bySlot[pool[r.v][r.i].slot] = append(bySlot[pool[r.v][r.i].slot], f(r))
	}
	var total float64
	for _, xs := range bySlot {
		total = combine(total, interquartileMean(xs))
	}
	return total
}

// checkEngine counts every run's outcome and returns the summed AIG
// area of the pool's optimized cases. The first optimized copy of each
// case was simulated against its original; every later run of the case
// must produce the same canonical netlist (the engine is
// deterministic). A run that errs or mismatches counts as failed.
func checkEngine(pool [][]engineCase, runs []engineRun, oc *outcomes, rep *report) int {
	area := 0
	for k, f := range oc.first {
		if f.check != nil {
			fmt.Fprintf(logOut, "check %s variant %d: %v\n", pool[k[0]][k[1]].slot, k[0], f.check)
		}
		area += f.area
	}
	for _, r := range runs {
		rep.attempted++
		if r.err != nil {
			fmt.Fprintf(logOut, "run %s variant %d: %v\n", pool[r.v][r.i].slot, r.v, r.err)
			rep.failed++
			continue
		}
		if f := oc.first[[2]int{r.v, r.i}]; f.check != nil || r.hash != f.hash {
			rep.failed++
		}
	}
	return area
}

// fillEngineLayers derives the engine per-layer metrics: pass self
// times and runtime counters are medians over the traced rounds;
// counters are summed over the first run of every pool case, so they
// repeat exactly for a seed.
func fillEngineLayers(vals map[string]float64, oc *outcomes, rounds []roundStats, tr *tracer) {
	passMetric := map[string]string{
		"smartly.Flow.Run": "smartly.flow_self_s",
		"opt_expr":         "opt.opt_expr_s",
		"opt_clean":        "opt.opt_clean_s",
		"smartly_satmux":   "core.satmux_s",
		"smartly_rebuild":  "core.rebuild_s",
		"opt_egraph":       "egraph.opt_egraph_s",
		"opt_dff":          "opt.opt_dff_s",
	}
	perRound := map[string][]float64{}
	var cycles, pauses []float64
	var gcCPU, totalCPU float64
	for _, rs := range rounds {
		self := tr.selfTimes(rs.id)
		for span, name := range passMetric {
			perRound[name] = append(perRound[name], seconds(self[span]))
		}
		cycles = append(cycles, float64(rs.gcCycles))
		pauses = append(pauses, float64(rs.pauseNS)/1e6)
		gcCPU += rs.gcCPU
		totalCPU += rs.totalCPU
	}
	for name, xs := range perRound {
		vals[name] = median(xs)
	}
	vals["go.gc_cycles"] = median(cycles)
	vals["go.gc_pause_ms"] = median(pauses)
	vals["go.gc_cpu_frac"] = ratio(gcCPU, totalCPU)

	fillCounters(vals, oc.counters)
	vals["opt.fixpoint_iters"] = float64(oc.iters)
}

// fillCounters maps summed pass counters onto the per-layer metrics.
func fillCounters(vals, sum map[string]float64) {
	vals["core.satmux.queries"] = sum["oracle_queries"]
	vals["core.satmux.sat_calls"] = sum["sat_calls"]
	vals["core.satmux.unknown"] = sum["oracle_unknown"]
	vals["core.satmux.sim_filter_ratio"] = ratio(sum["oracle_sim_filtered"], sum["oracle_queries"])
	vals["core.satmux.encode_reuse_ratio"] = ratio(sum["sat_encode_reuse"], sum["sat_encode_reuse"]+sum["sat_encodings"])
	vals["core.rebuild.trees_rebuilt"] = sum["trees_rebuilt"]
	vals["egraph.rules_applied"] = sum["egraph_rules_applied"]
	vals["egraph.nodes"] = sum["egraph_nodes"]
	vals["egraph.verified"] = sum["egraph_verified"]
	vals["egraph.verify_rejected"] = sum["egraph_verify_rejected"]
	vals["egraph.rewired_per_cell"] = ratio(sum["egraph_rewired"], sum["egraph_cells"])
	vals["dff.proved"] = sum["dff_proved"]
	vals["dff.verify_rejected"] = sum["dff_verify_rejected"]
	vals["dff.removed"] = sum["dff_removed"]
}
