// Command perfbench is the repository's benchmark. It runs one
// named workload from one process, checks every output the program
// produced, and prints its metrics, each with its unit, as the JSON
// object on the last line of standard output:
//
//	perfbench --workload table2 --seed 3 --seconds 20 --trace 0
//
// The engine workloads (table2, industrial, seq) call the optimization
// engine in process, one case at a time; serve_mix drives an
// in-process smartlyd behind loopback HTTP with a closed loop of
// clients. With --trace 0 the result carries the end-to-end metrics;
// with --trace 1 the run measures an untraced and then a traced part,
// and the result carries the per-layer metrics taken from the traced
// part plus the tracing overhead. README.md defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the checkout root: corpus inputs are read and trace files
	// written relative to it.
	root string
	// workers is the engine worker budget of every flow run, shared
	// equally by serve_mix's requests; clients is serve_mix's
	// closed-loop client count. Both are the machine's usable cores.
	workers int
	clients int
	// small shrinks every workload to test size.
	small bool
}

// spec names one metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints, on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"flow_s", "s"},
	{"aig_area", "count"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run prints, on every workload;
// the metrics of a layer the workload does not exercise (its idle
// list) read 0, and every other one must have been measured.
var perLayer = []spec{
	{"genbench.generate_s", "s"},
	{"smartly.flow_self_s", "s"},
	{"opt.opt_expr_s", "s"},
	{"opt.opt_clean_s", "s"},
	{"opt.fixpoint_iters", "count"},
	{"core.satmux_s", "s"},
	{"core.rebuild_s", "s"},
	{"core.satmux.queries", "count"},
	{"core.satmux.sat_calls", "count"},
	{"core.satmux.unknown", "count"},
	{"core.satmux.sim_filter_ratio", "ratio"},
	{"core.satmux.encode_reuse_ratio", "ratio"},
	{"core.rebuild.trees_rebuilt", "count"},
	{"egraph.opt_egraph_s", "s"},
	{"egraph.rules_applied", "count"},
	{"egraph.nodes", "count"},
	{"egraph.verified", "count"},
	{"egraph.verify_rejected", "count"},
	{"egraph.rewired_per_cell", "ratio"},
	{"opt.opt_dff_s", "s"},
	{"dff.proved", "count"},
	{"dff.verify_rejected", "count"},
	{"dff.removed", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cpu_frac", "ratio"},
	{"rtlil.read_json_ms.warm", "ms"},
	{"rtlil.read_json_ms.design", "ms"},
	{"rtlil.read_json_ms.cold", "ms"},
	{"rtlil.validate_ms.warm", "ms"},
	{"rtlil.validate_ms.design", "ms"},
	{"rtlil.validate_ms.cold", "ms"},
	{"rtlil.hash_ms.warm", "ms"},
	{"rtlil.hash_ms.design", "ms"},
	{"rtlil.hash_ms.cold", "ms"},
	{"rtlil.write_json_ms.warm", "ms"},
	{"rtlil.write_json_ms.design", "ms"},
	{"rtlil.write_json_ms.cold", "ms"},
	{"server.handler_ms.warm", "ms"},
	{"server.handler_ms.design", "ms"},
	{"server.handler_ms.cold", "ms"},
	{"server.outside_handler_ms.warm", "ms"},
	{"server.outside_handler_ms.design", "ms"},
	{"server.outside_handler_ms.cold", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p95_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.module_hits", "count"},
	{"cache.module_misses", "count"},
	{"cache.puts", "count"},
	{"api.request_encode_ms", "ms"},
	{"api.response_decode_ms", "ms"},
	{"serve.warm_p50_ms", "ms"},
	{"serve.warm_p95_ms", "ms"},
	{"serve.warm_count", "count"},
	{"serve.design_p50_ms", "ms"},
	{"serve.design_count", "count"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cold_count", "count"},
	{"serve.throughput_rps", "1/s"},
	{"trace.flow_overhead_frac", "ratio"},
	{"trace.warm_p50_overhead_frac", "ratio"},
}

// report is what a workload measured: operation counts plus metric
// values by name (end-to-end and per-layer alike).
type report struct {
	attempted int
	failed    int
	values    map[string]float64
	// spans is the traced part's span log (nil untraced).
	spans *tracer
}

// workload is one named workload.
type workload struct {
	run func(options) (*report, error)
	// idle lists the per-layer metrics the workload has no layer for,
	// by name or by a prefix ending in ".".
	idle []string
}

// engineIdle are the serving layers, which the engine workloads do not
// reach.
var engineIdle = []string{"rtlil.", "server.", "cache.", "api.", "serve.", "trace.warm_p50_overhead_frac"}

// workloads maps each workload name to its runner.
var workloads = map[string]workload{
	"table2":     {func(o options) (*report, error) { return runEngine(o, table2Family(o)) }, engineIdle},
	"industrial": {func(o options) (*report, error) { return runEngine(o, industrialFamily(o)) }, engineIdle},
	"seq":        {func(o options) (*report, error) { return runEngine(o, seqFamily(o)) }, engineIdle},
	// The server runs passes inside its handler, so no span separates
	// the facade's own time from theirs.
	"serve_mix": {runServe, []string{"smartly.flow_self_s"}},
}

// isIdle reports whether the workload does not exercise the metric.
func (w workload) isIdle(name string) bool {
	for _, p := range w.idle {
		if name == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(name, p)) {
			return true
		}
	}
	return false
}

// logOut receives diagnostics about failed operations.
var logOut io.Writer = os.Stderr

// setupRuns is how many times a run sets up its workload; setup_s is
// the median, and the last set-up is the one measured.
const setupRuns = 3

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Stdout.Write(out)
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 0, "workload seed; it offsets every recipe seed (0 reproduces the stock recipes)")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 measures an untraced and a traced part and prints the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seed < 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		return o, errors.New("--seed must be >= 0, --seconds > 0 and --trace 0 or 1")
	}
	o.trace = trace == 1
	o.workers = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	o.clients = o.workers
	return o, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes the workload and renders the human-readable lines, the
// environment stamp and the final JSON result line.
func run(o options) ([]byte, error) {
	w := workloads[o.workload]
	rep, err := w.run(o)
	if err != nil {
		return nil, err
	}
	env := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"clients": o.clients, "workers": o.workers,
	}
	if o.workload == "serve_mix" {
		env["request_workers"] = requestWorkers(o)
	}
	if rep.spans != nil {
		path, err := rep.spans.write(o, env)
		if err != nil {
			return nil, err
		}
		env["trace_file"] = path
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, map[string]metric{}}
	var buf bytes.Buffer
	envLine, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "env %s\n", envLine)
	fmt.Fprintf(&buf, "ops attempted=%d failed=%d failed_frac=%.4f\n",
		rep.attempted, rep.failed, float64(rep.failed)/math.Max(1, float64(rep.attempted)))
	for _, s := range specs {
		v, ok := rep.values[s.name]
		if !ok && !(o.trace && w.isIdle(s.name)) {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(&buf, "%-34s %14.6g %s\n", s.name, v, s.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	buf.Write(line)
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (rank ceil(q*n)).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// interquartileMean is the mean of xs without its lowest and highest
// quarter (the plain mean below four values).
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	var sum float64
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeStats samples the Go runtime counters the benchmark reports.
type runtimeStats struct {
	allocBytes uint64  // cumulative heap bytes allocated
	gcCycles   uint64  // completed GC cycles
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to the process
	pauseNS    uint64  // cumulative stop-the-world pause time
	liveHeap   uint64  // heap bytes the last GC cycle found reachable
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

// readRuntime samples the runtime counters. withPauses adds the pause
// total, which needs a brief stop-the-world, so timed code never asks
// for it.
func readRuntime(withPauses bool) runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	st := runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		liveHeap:   s[4].Value.Uint64(),
	}
	if withPauses {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st.pauseNS = ms.PauseTotalNs
	}
	return st
}

// heapPeak tracks the largest live heap observed: the bytes a GC cycle
// found reachable, sampled after every run or request. Unlike the
// resident set, it does not depend on when the runtime returns freed
// pages to the OS.
type heapPeak struct {
	max atomic.Uint64
	// keep makes the sampler record every sample in samples, which
	// may be read once the sampler stopped.
	keep    bool
	samples []float64
}

// observe records the live heap of the given sample.
func (p *heapPeak) observe(st runtimeStats) {
	for {
		cur := p.max.Load()
		if st.liveHeap <= cur || p.max.CompareAndSwap(cur, st.liveHeap) {
			return
		}
	}
}

// restart forgets the peak observed so far, starting again from the
// given sample.
func (p *heapPeak) restart(st runtimeStats) { p.max.Store(st.liveHeap) }

func (p *heapPeak) mb() float64 { return float64(p.max.Load()) / 1e6 }

// sample observes the live heap every few milliseconds, so the peak
// covers every GC cycle of the measured work, until the returned stop
// function is called; stop returns once the sampler has exited.
func (p *heapPeak) sample() (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				st := readRuntime(false)
				p.observe(st)
				if p.keep {
					p.samples = append(p.samples, float64(st.liveHeap))
				}
			}
		}
	}()
	return func() { close(done); <-exited }
}
