// Command smartly optimizes an RTL netlist with composable optimization
// flows.
//
// It reads a design from a Verilog source file (.v) or a JSON netlist
// (.json, as written by -o), runs the selected flow — a named pipeline
// or an arbitrary Yosys-style script — prints before/after statistics,
// AIG areas and the per-pass run report, and optionally writes the
// optimized netlist back out as JSON.
//
// Usage:
//
//	smartly [-flow yosys|sat|rebuild|full] [-script "opt_expr; satmux(conflicts=64); opt_clean"]
//	        [-remote http://host:8080] [-mode whole|design] [-j n] [-module-jobs n]
//	        [-timings] [-o out.json] [-check] design.v
//
// -script and -flow are mutually exclusive. With -remote the design is
// shipped to a smartlyd daemon (cmd/smartlyd) instead of being
// optimized in-process; everything else — areas, equivalence check,
// -o output — behaves the same.
//
// The script grammar is pass [ "(" key=value {"," key=value} ")" ]
// separated by ";", plus the fixpoint wrapper
// "fixpoint(iters=n) { ... }"; run with -passes to list the registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/client"
)

// options collects the CLI flags of one invocation.
type options struct {
	flowName   string
	script     string
	remote     string
	mode       string
	outPath    string
	check      bool
	quiet      bool
	timings    bool
	jobs       int
	moduleJobs int
}

func main() {
	var o options
	flag.StringVar(&o.flowName, "flow", "full", "named optimization flow: yosys|sat|rebuild|full")
	flag.StringVar(&o.script, "script", "", "run this flow script instead of a named flow (e.g. \"opt_expr; satmux(conflicts=64); opt_clean\")")
	flag.StringVar(&o.remote, "remote", "", "optimize via a smartlyd daemon at this base URL instead of in-process")
	listPasses := flag.Bool("passes", false, "list the registered passes and their options, then exit")
	flag.StringVar(&o.outPath, "o", "", "write optimized netlist as JSON to this path")
	flag.BoolVar(&o.check, "check", false, "equivalence-check the optimized netlist against the input")
	flag.BoolVar(&o.quiet, "q", false, "print only the final area line")
	flag.BoolVar(&o.timings, "timings", false, "include per-pass wall times in the run report")
	flag.IntVar(&o.jobs, "j", 0, "worker budget, split between concurrently optimized modules and parallel SAT-mux queries (0 = all cores, 1 = sequential)")
	flag.IntVar(&o.moduleJobs, "module-jobs", 0, "modules optimized concurrently, local runs only (0 = derive from -j; capped by -j; results identical for every value)")
	flag.StringVar(&o.mode, "mode", "", "with -remote: daemon cache granularity, whole (one entry per design) or design (per-module entries, incremental resubmits); empty = daemon default")
	flag.Parse()
	if *listPasses {
		printPasses()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: smartly [flags] design.v|design.json")
		flag.PrintDefaults()
		os.Exit(2)
	}
	flowSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "flow" {
			flowSet = true
		}
	})
	if err := checkFlowFlags(flowSet, o.script); err != nil {
		fmt.Fprintln(os.Stderr, "smartly:", err)
		os.Exit(2)
	}
	if o.mode != "" && o.remote == "" {
		fmt.Fprintln(os.Stderr, "smartly: -mode selects the daemon's cache granularity and needs -remote")
		os.Exit(2)
	}
	if o.moduleJobs != 0 && o.remote != "" {
		fmt.Fprintln(os.Stderr, "smartly: -module-jobs tunes the local shard scheduler; the daemon manages its own split (drop it, or tune -j)")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), o); err != nil {
		fmt.Fprintln(os.Stderr, "smartly:", err)
		os.Exit(1)
	}
}

// checkFlowFlags rejects contradictory flow selections: an explicit
// -flow combined with -script would silently ignore one of them.
func checkFlowFlags(flowSet bool, script string) error {
	if flowSet && script != "" {
		return fmt.Errorf("-flow and -script are mutually exclusive; pass a named flow (-flow full) OR a script (-script \"opt_expr; opt_clean\"), not both")
	}
	return nil
}

// printPasses renders the pass registry as a small reference table.
func printPasses() {
	fmt.Println("registered passes (compose with ';'):")
	for _, spec := range smartly.Passes() {
		fmt.Printf("  %-12s %s\n", spec.Name, spec.Summary)
		for _, o := range spec.Options {
			fmt.Printf("    %-22s %-6s default=%-5s %s\n", o.Key, o.Kind, o.Default, o.Help)
		}
	}
	fmt.Println("built-in wrapper:")
	fmt.Println("  fixpoint     repeat { body } until no pass reports a change")
	fmt.Printf("    %-22s %-6s default=%-5s %s\n", "iters", "int", "10", "maximum iterations")
	fmt.Println("named flows:", strings.Join(smartly.FlowNames(), ", "))
}

// selectFlow resolves the -script / -flow flags into a flow and a label
// for the report line.
func selectFlow(name, script string) (*smartly.Flow, string, error) {
	if script != "" {
		f, err := smartly.ParseFlow(script)
		if err != nil {
			return nil, "", err
		}
		return f, f.String(), nil
	}
	f, err := smartly.NamedFlow(name)
	if err != nil {
		return nil, "", err
	}
	return f, name, nil
}

// moduleInfo snapshots a module's pre-optimization state.
type moduleInfo struct {
	orig        *smartly.Module
	before      int
	beforeStats smartly.Stats
}

// snapshot records every module's "before" state (area, stats and — for
// -check — a clone of the netlist).
func snapshot(design *smartly.Design, check bool) (map[string]moduleInfo, error) {
	infos := make(map[string]moduleInfo, len(design.Modules()))
	for _, m := range design.Modules() {
		info := moduleInfo{beforeStats: smartly.CollectStats(m)}
		if check {
			info.orig = m.Clone()
		}
		var err error
		if info.before, err = smartly.Area(m); err != nil {
			return nil, fmt.Errorf("module %s: %w", m.Name, err)
		}
		infos[m.Name] = info
	}
	return infos, nil
}

func run(path string, o options) error {
	design, err := readDesign(path)
	if err != nil {
		return err
	}
	if o.remote != "" {
		return runRemote(path, design, o)
	}
	flow, label, err := selectFlow(o.flowName, o.script)
	if err != nil {
		return err
	}

	// Snapshot per-module "before" state, then optimize all modules
	// concurrently; the report map keeps the printout deterministic.
	infos, err := snapshot(design, o.check)
	if err != nil {
		return err
	}
	opts := []smartly.RunOption{smartly.WithWorkers(o.jobs), smartly.WithModuleJobs(o.moduleJobs)}
	if o.timings {
		opts = append(opts, smartly.WithTimings())
	}
	reports, err := flow.RunDesign(design, opts...)
	if err != nil {
		return err
	}
	for _, m := range design.Modules() {
		rep := reports[m.Name]
		err := renderModule(m, infos[m.Name], o, "flow="+label, func() {
			fmt.Print((&rep).String())
		})
		if err != nil {
			return err
		}
	}
	return writeOut(design, o)
}

// renderModule prints one module's post-optimization block — before
// stats, equivalence check, after stats, the run report (printReport)
// and the summary area line — shared by the local and remote paths.
func renderModule(m *smartly.Module, info moduleInfo, o options, suffix string, printReport func()) error {
	after, err := smartly.Area(m)
	if err != nil {
		return err
	}
	if !o.quiet {
		fmt.Printf("== module %s ==\n", m.Name)
		fmt.Print(info.beforeStats)
	}
	if o.check {
		if err := smartly.CheckEquivalence(info.orig, m); err != nil {
			return fmt.Errorf("module %s failed equivalence check: %w", m.Name, err)
		}
		if !o.quiet {
			fmt.Println("equivalence check passed")
		}
	}
	if !o.quiet {
		fmt.Println("after optimization:")
		fmt.Print(smartly.CollectStats(m))
		printReport()
	}
	printAreaLine(m.Name, info.before, after, suffix)
	return nil
}

// runRemote ships the design to a smartlyd daemon and renders the same
// area/check/output flow over the response.
func runRemote(path string, design *smartly.Design, o options) error {
	infos, err := snapshot(design, o.check)
	if err != nil {
		return err
	}
	flowName := o.flowName
	if o.script != "" {
		flowName = ""
	}
	var copts []client.RequestOption
	if o.jobs > 0 {
		copts = append(copts, client.WithWorkers(o.jobs))
	}
	if o.timings {
		copts = append(copts, client.WithTimings())
	}
	if o.mode != "" {
		copts = append(copts, client.WithMode(o.mode))
	}
	c := client.New(o.remote)
	out, resp, err := c.OptimizeDesign(context.Background(), design, flowName, o.script, copts...)
	if err != nil {
		return err
	}
	suffix := fmt.Sprintf("flow=%s, remote cache=%s", resp.Flow, resp.Cache)
	if resp.ModuleCache != nil {
		suffix += fmt.Sprintf(", module hits %d/%d",
			resp.ModuleCache.Hits, resp.ModuleCache.Hits+resp.ModuleCache.Misses)
	}
	for _, m := range out.Modules() {
		info, ok := infos[m.Name]
		if !ok {
			return fmt.Errorf("daemon returned unknown module %q", m.Name)
		}
		rep, hasRep := resp.Reports[m.Name]
		err := renderModule(m, info, o, suffix, func() {
			if !hasRep {
				return
			}
			fmt.Printf("changed=%v\n", rep.Changed)
			for _, p := range rep.Passes {
				fmt.Printf("  %-18s calls=%d counters=%v\n", p.Name, p.Calls, p.Counters)
			}
		})
		if err != nil {
			return err
		}
	}
	return writeOut(out, o)
}

// printAreaLine renders the one-line summary every mode ends with.
func printAreaLine(name string, before, after int, suffix string) {
	reduction := 0.0
	if before > 0 {
		reduction = 100 * float64(before-after) / float64(before)
	}
	fmt.Printf("%s: AIG area %d -> %d (%.2f%% reduction, %s)\n", name, before, after, reduction, suffix)
}

// writeOut writes the optimized design when -o was given.
func writeOut(design *smartly.Design, o options) error {
	if o.outPath == "" {
		return nil
	}
	f, err := os.Create(o.outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := smartly.WriteJSON(f, design); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Printf("wrote %s\n", o.outPath)
	}
	return nil
}

func readDesign(path string) (*smartly.Design, error) {
	if strings.HasSuffix(path, ".json") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return smartly.ReadJSON(f)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return smartly.ParseVerilog(string(data))
}
