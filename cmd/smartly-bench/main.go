// Command smartly-bench regenerates the paper's evaluation: Table II
// (AIG areas, Yosys vs smaRTLy), Table III (per-method reductions) and
// the §IV-B industrial summary — or measures an arbitrary flow set.
//
// Usage:
//
//	smartly-bench [-scale 1.0] [-table 2|3|all|none] [-industrial n] [-j n] [-check] [-v]
//	              [-json] [-replica n] [-design n] [-load n] [-sat] [-egraph] [-corpus dir] [-flow name|name=script]...
//
// Scale 1.0 runs the calibrated case sizes (minutes); smaller scales
// reproduce the table shape faster. The paper's absolute circuit sizes
// correspond to roughly scale 100.
//
// -flow selects the measured flows (repeatable): either a registered
// named flow ("full") or "name=script" with a flow script, e.g.
// -flow "tuned=fixpoint { opt_expr; satmux(conflicts=64); opt_clean }".
// Without -flow the paper's four pipelines run.
//
// The engine sections (the tables, -industrial, -sat, -egraph and
// -corpus) all run through harness.RunCases; -check proves every
// result of every engine section, and -corpus always does.
//
// -json replaces the tables with one machine-readable report on stdout
// (schema smartly-bench/v2): every engine section as its flows plus,
// per case and flow, the AIG area, state bits, netlist hash, wall time
// and pass counters. BENCH_baseline.json in the repository root holds
// the committed reference run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/genbench"
	"repro/internal/harness"
)

// flowList collects repeated -flow flags.
type flowList []string

func (f *flowList) String() string { return fmt.Sprint(*f) }

func (f *flowList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// benchConfig collects the CLI flags of one run.
type benchConfig struct {
	scale      float64
	table      string
	industrial int
	check      bool
	jobs       int
	verbose    bool
	jsonOut    bool
	replica    int
	design     int
	load       int
	sat        bool
	egraph     bool
	corpus     string
	flows      []string
}

func main() {
	var cfg benchConfig
	flag.Float64Var(&cfg.scale, "scale", 1.0, "benchmark scale factor")
	flag.StringVar(&cfg.table, "table", "all", "which table to regenerate: 2, 3, all, or none (\"\" also means none)")
	flag.IntVar(&cfg.industrial, "industrial", 0, "also run n industrial test points")
	flag.BoolVar(&cfg.check, "check", false, "equivalence-check every optimized netlist (slow)")
	flag.IntVar(&cfg.jobs, "j", 0, "case x flow runs and SAT-mux queries run concurrently (0 = all cores, 1 = sequential); results are identical for every value")
	flag.BoolVar(&cfg.verbose, "v", false, "log per-flow progress")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit one machine-readable JSON report instead of tables")
	flag.IntVar(&cfg.replica, "replica", 0, "also measure the two-replica shared cache tier (HTTP peer protocol) on an n-module design (0 = off)")
	flag.IntVar(&cfg.design, "design", 0, "also measure design-mode sharding cold/warm/incremental latency on an n-module design (0 = off)")
	flag.IntVar(&cfg.load, "load", 0, "also measure the daemon under n concurrent clients on a mixed cold/warm/design workload: throughput + p50/p95/p99 per class (0 = off)")
	flag.BoolVar(&cfg.sat, "sat", false, "also measure the SAT oracle (counters + wall-clock vs the sim_filter=false ablation) on the sat and full flows")
	flag.BoolVar(&cfg.egraph, "egraph", false, "also measure verified e-graph rewriting on the datapath benchmark set (yosys vs pre-egraph full vs datapath vs full)")
	flag.StringVar(&cfg.corpus, "corpus", "", "also measure an external benchmark-corpus directory (manifest.json + Verilog) under the yosys/seq/full flows, proving every result")
	var flows flowList
	flag.Var(&flows, "flow", "flow to measure: a named flow or name=script (repeatable; default: the paper's four pipelines)")
	flag.Parse()
	cfg.flows = flows

	if err := runBench(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smartly-bench:", err)
		os.Exit(1)
	}
}

func runBench(cfg benchConfig, out io.Writer) error {
	switch cfg.table {
	case "2", "3", "all", "none", "":
	default:
		return fmt.Errorf("-table %q: want 2, 3, all, none or \"\"", cfg.table)
	}
	opts := harness.Options{Scale: cfg.scale, Check: cfg.check, Jobs: cfg.jobs, Workers: cfg.jobs}
	if cfg.verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	custom := len(cfg.flows) > 0
	flows := harness.DefaultFlows()
	if custom {
		var err error
		if flows, err = harness.ParseFlows(cfg.flows); err != nil {
			return err
		}
	}
	// The serving sections run one daemon-side flow: the first -flow
	// spec when it is a bare registered name, else "full".
	daemonFlow := harness.FlowFull
	if custom && !strings.Contains(cfg.flows[0], "=") {
		daemonFlow = cfg.flows[0]
	}

	start := time.Now()
	rep := harness.BenchReport{Schema: harness.BenchSchema, Scale: cfg.scale}
	// text collects the human-readable sections in run order.
	var text []string
	// run measures one engine section and renders it.
	run := func(cases []harness.Case, flows []harness.FlowSpec, check bool,
		render ...func(harness.Section) string) (*harness.Section, error) {
		o := opts
		o.Flows, o.Check = flows, o.Check || check
		sec, err := harness.RunCases(cases, o)
		if err != nil {
			return nil, err
		}
		for _, r := range render {
			text = append(text, r(sec))
		}
		return &sec, nil
	}
	var err error
	if cfg.table == "2" || cfg.table == "3" || cfg.table == "all" {
		render := []func(harness.Section) string{harness.TableII, harness.TableIII}
		switch {
		case custom:
			render = []func(harness.Section) string{harness.TableFlows}
		case cfg.table == "2":
			render = render[:1]
		case cfg.table == "3":
			render = render[1:]
		}
		if rep.Tables, err = run(harness.RecipeCases(genbench.Recipes()), flows, false, render...); err != nil {
			return err
		}
	}
	if cfg.industrial > 0 {
		// The §IV-B summary hardcodes the yosys/full columns; custom
		// flow sets get the generic table instead.
		render := harness.IndustrialSummary
		if custom {
			render = func(s harness.Section) string { return "Industrial test points\n" + harness.TableFlows(s) }
		}
		if rep.Industrial, err = run(harness.IndustrialCases(cfg.industrial), flows, false, render); err != nil {
			return err
		}
	}
	if cfg.replica > 0 {
		rb, err := harness.RunReplicaBench(cfg.replica, daemonFlow, cfg.scale)
		if err != nil {
			return err
		}
		rep.Replica = &rb
		text = append(text, rb.String())
	}
	if cfg.design > 0 {
		db, err := harness.RunDesignBench(cfg.design, daemonFlow, cfg.scale, 2)
		if err != nil {
			return err
		}
		rep.Design = &db
		text = append(text, db.String())
	}
	if cfg.load > 0 {
		lb, err := harness.RunLoadBench(loadBenchCase, cfg.load, daemonFlow, cfg.scale, 2)
		if err != nil {
			return err
		}
		rep.Load = &lb
		text = append(text, lb.String())
	}
	if cfg.sat {
		satFlows, err := harness.SatFlows(harness.FlowSAT, harness.FlowFull)
		if err != nil {
			return err
		}
		if rep.Sat, err = run(harness.RecipeCases(genbench.Recipes()), satFlows, false, harness.SatTable); err != nil {
			return err
		}
		if err := harness.CheckSimFilter(*rep.Sat); err != nil {
			return err
		}
	}
	if cfg.egraph {
		if rep.Egraph, err = run(harness.RecipeCases(genbench.DatapathRecipes()), harness.EgraphFlows(), false, harness.EgraphTable); err != nil {
			return err
		}
	}
	if cfg.corpus != "" {
		cases, err := harness.CorpusCases(cfg.corpus)
		if err != nil {
			return err
		}
		if rep.Corpus, err = run(cases, harness.CorpusFlows(), true, harness.CorpusTable); err != nil {
			return err
		}
	}

	if cfg.jsonOut {
		rep.ElapsedMS = time.Since(start).Milliseconds()
		return rep.WriteJSON(out)
	}
	for _, t := range text {
		fmt.Fprintln(out, t)
	}
	return nil
}

// loadBenchCase is the fixed case of the -load concurrent smoke: the
// smallest public benchmark, so n clients' cold requests stay CI-sized.
const loadBenchCase = "ethernet"
