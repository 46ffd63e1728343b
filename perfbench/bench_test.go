package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	smartly "repro"
	"repro/internal/genbench"
	"repro/internal/rtlil"
)

func init() { logOut = io.Discard }

// testOptions is a test-sized run of the workload.
func testOptions(workload string, trace bool) options {
	return options{workload: workload, seed: 1, seconds: 0.2, trace: trace, root: "..",
		workers: 2, clients: 2, small: true}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult runs the workload and decodes the last output line.
func runResult(t *testing.T, o options) result {
	t.Helper()
	out, err := run(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v", o.workload, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", o.workload, o.trace, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// exercised names, per workload, per-layer metrics its choice rests on
// (BENCHMARK.json's `why`): a test-size traced run measures them above 0.
var exercised = map[string][]string{
	"table2":     {"egraph.opt_egraph_s", "egraph.nodes"},
	"industrial": {"core.satmux_s", "core.satmux.queries"},
	"seq":        {"opt.opt_dff_s", "dff.proved"},
	"serve_mix": {"rtlil.read_json_ms.warm", "server.handler_ms.warm", "server.outside_handler_ms.warm",
		"cache.hit_ratio", "cache.module_hits", "api.response_decode_ms"},
}

// Every metric BENCHMARK.json names is printed, with its unit, by every
// workload it names, and perfbench runs exactly those workloads.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(workloadNames(), ","); got != strings.Join(names, ",") {
		t.Fatalf("perfbench runs %s, BENCHMARK.json lists %s", got, strings.Join(names, ","))
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			r := runResult(t, testOptions(w, trace))
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w, m.Name)
				}
			}
			for _, name := range exercised[w] {
				if trace && r.Metrics[name].Value <= 0 {
					t.Errorf("%s: per-layer metric %s reads %v", w, name, r.Metrics[name].Value)
				}
			}
		}
	}
}

// aig_area and every engine counter repeat exactly across two runs of
// the same seed.
func TestAreaAndCountersRepeat(t *testing.T) {
	deterministic := func(name, unit string) bool {
		return name == "aig_area" || name == "opt.fixpoint_iters" ||
			((unit == "count" || unit == "ratio") &&
				(strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "egraph.") || strings.HasPrefix(name, "dff.")))
	}
	for _, w := range []string{"table2", "industrial", "seq", "serve_mix"} {
		for _, trace := range []bool{false, true} {
			a := runResult(t, testOptions(w, trace))
			b := runResult(t, testOptions(w, trace))
			for name, m := range a.Metrics {
				if deterministic(name, m.Unit) && m.Value != b.Metrics[name].Value {
					t.Errorf("%s: %s = %v then %v", w, name, m.Value, b.Metrics[name].Value)
				}
			}
		}
	}
}

// invertOutput corrupts the module: its first output port is driven
// through an inverter.
func invertOutput(m *rtlil.Module) {
	w := m.Outputs()[0]
	tap := m.AddWire("corrupt_tap", w.Width)
	retarget := func(s rtlil.SigSpec) {
		for i, b := range s {
			if b.Wire == w {
				s[i] = rtlil.SigBit{Wire: tap, Offset: b.Offset}
			}
		}
	}
	for _, c := range m.Cells() {
		retarget(c.Port("Y"))
		retarget(c.Port("Q"))
	}
	for _, cn := range m.Conns {
		retarget(cn.LHS)
	}
	m.Connect(w.Bits(), m.Not(tap.Bits()))
}

// A corrupted optimized netlist fails the engine output check, for a
// combinational and a register-bearing case.
func TestCorruptedEngineOutputCaught(t *testing.T) {
	flow, err := smartly.NamedFlow("full")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []genbench.Recipe{genbench.Recipes()[1], genbench.SeqRecipes()[2]} {
		orig := genbench.Generate(r, 0.02)
		ref, err := newReference(orig, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		out := orig.Clone()
		if _, err := flow.Run(out); err != nil {
			t.Fatal(err)
		}
		if err := ref.check(out); err != nil {
			t.Fatalf("%s: correct output rejected: %v", r.Name, err)
		}
		invertOutput(out)
		if err := ref.check(out); err == nil {
			t.Fatalf("%s: corrupted output passed the check", r.Name)
		}
		pool := [][]engineCase{{{slot: r.Name, make: orig.Clone, ref: ref}}}
		oc := newOutcomes()
		hash := rtlil.CanonicalHash(out)
		if err := oc.record([2]int{0, 0}, pool[0][0], out, hash, smartly.RunReport{}); err != nil {
			t.Fatal(err)
		}
		rep := &report{values: map[string]float64{}}
		checkEngine(pool, []engineRun{{hash: hash}}, oc, rep)
		if rep.failed != 1 {
			t.Fatalf("%s: corrupted run counted failed=%d, want 1", r.Name, rep.failed)
		}
	}
}

// A corrupted response design fails the serve_mix check.
func TestCorruptedResponseCaught(t *testing.T) {
	flow, err := smartly.NamedFlow("full")
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions("serve_mix", false)
	s, err := newServeSetup(o, flow, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	logs, _, _ := servePhase(s, 0.1, 0, false, nil)
	// The first warm reply now carries the corrupted design.
	var smp *serveSample
	for i := range logs[0].samples {
		if logs[0].samples[i].class == classWarm {
			smp = &logs[0].samples[i]
			break
		}
	}
	if smp == nil || smp.err != nil {
		t.Fatalf("no successful warm reply to corrupt (%+v)", smp)
	}
	d, err := rtlil.ReadJSON(bytes.NewReader(s.warm[smp.warm]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flow.RunDesign(d); err != nil {
		t.Fatal(err)
	}
	invertOutput(d.Modules()[0])
	raw, err := encodeDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	if smp.hash, smp.area, err = s.digest(raw); err != nil {
		t.Fatal(err)
	}
	rep := &report{values: map[string]float64{}}
	if _, err := s.check(logs, rep); err != nil && !strings.Contains(err.Error(), "no warm response") {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Fatalf("corrupted response counted failed=%d, want 1", rep.failed)
	}
}
