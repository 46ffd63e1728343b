package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cec"
	"repro/internal/opt"
)

const corpusDir = "../../testdata/corpus"

func TestLoadCorpus(t *testing.T) {
	cases, err := LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("got %d cases, want 3", len(cases))
	}
	for _, c := range cases {
		if c.Module == nil || c.Module.StateBits() == 0 {
			t.Errorf("case %s: expected a sequential module", c.Name)
		}
	}
}

func TestLoadCorpusErrors(t *testing.T) {
	if _, err := LoadCorpus(t.TempDir()); err == nil {
		t.Error("missing manifest should fail")
	}
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("manifest.json", `{"cases":[]}`)
	if _, err := LoadCorpus(dir); err == nil || !strings.Contains(err.Error(), "no cases") {
		t.Errorf("empty manifest: %v", err)
	}
	write("manifest.json", `{"cases":[{"name":"x","file":"x.v","top":"nope"}]}`)
	write("x.v", "module x(input a, output y);\n  assign y = a;\nendmodule\n")
	if _, err := LoadCorpus(dir); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("bad top: %v", err)
	}
}

// TestCorpusRoundTrip is the end-to-end corpus contract: every case
// parses, optimizes under the seq and full flows with nonzero
// register-sweep work, and each optimized netlist is proven
// sequentially equivalent to the original by k-induction.
func TestCorpusRoundTrip(t *testing.T) {
	cases, err := LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, flowName := range []string{"seq", FlowFull} {
		flow, err := opt.NamedFlow(flowName)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			c := c
			t.Run(flowName+"/"+c.Name, func(t *testing.T) {
				work := c.Module.Clone()
				ctx := opt.NewCtx(nil, opt.Config{})
				if _, err := flow.Run(ctx, work); err != nil {
					t.Fatal(err)
				}
				if err := work.Validate(); err != nil {
					t.Fatal(err)
				}
				rep := ctx.Report()
				removed := rep.Counter("opt_dff", "dff_removed")
				if removed == 0 {
					t.Error("expected the sweep to remove registers")
				}
				if work.StateBits() >= c.Module.StateBits() {
					t.Errorf("state bits %d -> %d: no reduction",
						c.Module.StateBits(), work.StateBits())
				}
				if err := cec.CheckSequential(c.Module, work, nil, nil); err != nil {
					t.Errorf("induction check: %v", err)
				}
			})
		}
	}
}

// TestRunCorpusBench runs the corpus section as smartly-bench does,
// with Check on: a failed k-induction proof of any flow's result fails
// the run.
func TestRunCorpusBench(t *testing.T) {
	cases, err := CorpusCases(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunCases(cases, Options{Flows: CorpusFlows(), Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cases) != 3 {
		t.Fatalf("got %d cases, want 3", len(s.Cases))
	}
	sawSweep := false
	for _, c := range s.Cases {
		if c.Original <= 0 || c.OriginalStateBits == 0 {
			t.Errorf("%s: bad original stats: %+v", c.Name, c)
		}
		seq := c.Runs["seq"]
		if seq.StateBits >= c.OriginalStateBits {
			t.Errorf("%s: registers %d -> %d: no sweep", c.Name, c.OriginalStateBits, seq.StateBits)
		}
		if seq.Counter("opt_dff", "dff_const")+seq.Counter("opt_dff", "dff_merged")+seq.Counter("opt_dff", "dff_unused") > 0 {
			sawSweep = true
		}
		if c.Area("seq") <= 0 || c.Area(FlowYosys) <= 0 || c.Area(FlowFull) <= 0 {
			t.Errorf("%s: missing flow areas: %+v", c.Name, c.Runs)
		}
	}
	if !sawSweep {
		t.Error("no corpus case reported dff counters")
	}
	if out := CorpusTable(s); !strings.Contains(out, "pipeline") || !strings.Contains(out, "RegsAft") {
		t.Errorf("CorpusTable = %q", out)
	}
}
