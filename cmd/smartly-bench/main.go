// Command smartly-bench regenerates the paper's evaluation: Table II
// (AIG areas, Yosys vs smaRTLy), Table III (per-method reductions) and
// the §IV-B industrial summary — or measures an arbitrary flow set.
//
// Usage:
//
//	smartly-bench [-scale 1.0] [-table 2|3|all|none] [-industrial n] [-j n] [-check] [-v]
//	              [-json] [-server] [-replica n] [-design n] [-load n] [-sat] [-egraph] [-corpus dir] [-flow name|name=script]...
//
// Scale 1.0 runs the calibrated case sizes (minutes); smaller scales
// reproduce the table shape faster. The paper's absolute circuit sizes
// correspond to roughly scale 100 — see EXPERIMENTS.md.
//
// -flow selects the measured flows (repeatable): either a registered
// named flow ("full") or "name=script" with a flow script, e.g.
// -flow "tuned=fixpoint { opt_expr; satmux(conflicts=64); opt_clean }".
// Without -flow the paper's four pipelines run.
//
// -json replaces the tables with one machine-readable report on stdout
// (schema smartly-bench/v1): per-case areas for every flow, reduction
// ratios vs the first flow, and wall times. BENCH_baseline.json in the
// repository root holds the committed reference run
// (-json -scale 0.25).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

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
	server     bool
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
	flag.IntVar(&cfg.jobs, "j", 0, "benchmark cases and SAT-mux queries run concurrently (0 = all cores, 1 = sequential); results are identical for every value")
	flag.BoolVar(&cfg.verbose, "v", false, "log per-flow progress")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit one machine-readable JSON report instead of tables")
	flag.BoolVar(&cfg.server, "server", false, "also measure serving-layer cold vs warm cache latency (in-process smartlyd)")
	flag.IntVar(&cfg.replica, "replica", 0, "also measure the two-replica shared cache tier (HTTP peer protocol) on an n-module design (0 = off)")
	flag.IntVar(&cfg.design, "design", 0, "also measure design-mode sharding cold/warm/incremental latency on an n-module design (0 = off)")
	flag.IntVar(&cfg.load, "load", 0, "also measure the daemon under n concurrent clients on a mixed cold/warm/design workload: throughput + p50/p95/p99 per class (0 = off)")
	flag.BoolVar(&cfg.sat, "sat", false, "also measure the SAT oracle (counters + wall-clock vs the sim_filter=false ablation) on the sat and full flows")
	flag.BoolVar(&cfg.egraph, "egraph", false, "also measure verified e-graph rewriting on the datapath benchmark set (yosys vs pre-egraph full vs datapath vs full)")
	flag.StringVar(&cfg.corpus, "corpus", "", "also measure an external benchmark-corpus directory (manifest.json + Verilog) under the yosys/seq/full flows")
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
	if custom {
		fs, err := harness.ParseFlows(cfg.flows)
		if err != nil {
			return err
		}
		opts.Flows = fs
	} else {
		opts.Flows = harness.DefaultFlows()
	}

	start := time.Now()
	var results, points []harness.CaseResult
	var industrialSummary string
	if cfg.table == "2" || cfg.table == "3" || cfg.table == "all" {
		var err error
		if results, err = harness.RunAll(opts); err != nil {
			return err
		}
	}
	if cfg.industrial > 0 {
		res, err := harness.RunIndustrial(cfg.industrial, opts)
		if err != nil {
			return err
		}
		points = res.Points
		if custom {
			// The §IV-B summary hardcodes the yosys/full columns;
			// custom flow sets get the generic table instead.
			industrialSummary = "Industrial test points\n" +
				harness.TableFlows(points, opts.Flows)
		} else {
			industrialSummary = res.IndustrialSummary()
		}
	}
	var serverBench *harness.ServerBench
	if cfg.server {
		sb, err := harness.RunServerBench(serverBenchCase, serverBenchFlow(cfg.flows), cfg.scale, 3)
		if err != nil {
			return err
		}
		serverBench = &sb
	}
	var replicaBench *harness.ReplicaBench
	if cfg.replica > 0 {
		rb, err := harness.RunReplicaBench(cfg.replica, serverBenchFlow(cfg.flows), cfg.scale)
		if err != nil {
			return err
		}
		replicaBench = &rb
	}
	var designBench *harness.DesignBench
	if cfg.design > 0 {
		db, err := harness.RunDesignBench(cfg.design, serverBenchFlow(cfg.flows), cfg.scale, 2)
		if err != nil {
			return err
		}
		designBench = &db
	}
	var loadBench *harness.LoadBench
	if cfg.load > 0 {
		lb, err := harness.RunLoadBench(loadBenchCase, cfg.load, serverBenchFlow(cfg.flows), cfg.scale, 2)
		if err != nil {
			return err
		}
		loadBench = &lb
	}
	var satBench *harness.SatBench
	if cfg.sat {
		sb, err := harness.RunSatBench([]string{harness.FlowSAT, harness.FlowFull}, cfg.scale)
		if err != nil {
			return err
		}
		satBench = &sb
	}
	var egraphBench *harness.EgraphBench
	if cfg.egraph {
		eb, err := harness.RunEgraphBench(cfg.scale)
		if err != nil {
			return err
		}
		egraphBench = &eb
	}
	var corpusBench *harness.CorpusBench
	if cfg.corpus != "" {
		cb, err := harness.RunCorpusBench(cfg.corpus)
		if err != nil {
			return err
		}
		corpusBench = &cb
	}

	if cfg.jsonOut {
		rep := harness.NewBenchReport(cfg.scale, opts.Flows, results, points, time.Since(start))
		rep.Server = serverBench
		rep.Replica = replicaBench
		rep.Design = designBench
		rep.Load = loadBench
		rep.Sat = satBench
		rep.Egraph = egraphBench
		rep.Corpus = corpusBench
		return rep.WriteJSON(out)
	}
	if results != nil {
		switch {
		case custom:
			fmt.Fprintln(out, harness.TableFlows(results, opts.Flows))
		default:
			if cfg.table != "3" {
				fmt.Fprintln(out, harness.TableII(results))
			}
			if cfg.table != "2" {
				fmt.Fprintln(out, harness.TableIII(results))
			}
		}
	}
	if industrialSummary != "" {
		fmt.Fprintln(out, industrialSummary)
	}
	if serverBench != nil {
		fmt.Fprintln(out, serverBench.String())
	}
	if replicaBench != nil {
		fmt.Fprintln(out, replicaBench.String())
	}
	if designBench != nil {
		fmt.Fprintln(out, designBench.String())
	}
	if loadBench != nil {
		fmt.Fprintln(out, loadBench.String())
	}
	if satBench != nil {
		fmt.Fprintln(out, satBench.String())
	}
	if egraphBench != nil {
		fmt.Fprintln(out, egraphBench.String())
	}
	if corpusBench != nil {
		fmt.Fprintln(out, corpusBench.String())
	}
	return nil
}

// serverBenchCase is the fixed case the -server latency smoke measures:
// the first public benchmark, so numbers are comparable across runs.
const serverBenchCase = "top_cache_axi"

// loadBenchCase is the fixed case of the -load concurrent smoke: the
// smallest public benchmark, so n clients' cold requests stay CI-sized.
const loadBenchCase = "ethernet"

// serverBenchFlow picks the daemon-side flow for -server: the first
// -flow spec when it is a bare registered name, else "full".
func serverBenchFlow(flowSpecs []string) string {
	if len(flowSpecs) > 0 && !strings.Contains(flowSpecs[0], "=") {
		return flowSpecs[0]
	}
	return "full"
}
