package harness

import (
	"encoding/json"
	"io"
	"time"
)

// BenchReport is the machine-readable output of cmd/smartly-bench
// -json: per-case areas for every flow, reduction ratios vs the
// baseline flow and wall times. The schema string versions the format
// so future PRs can evolve it without breaking consumers.
type BenchReport struct {
	Schema     string      `json:"schema"`
	Scale      float64     `json:"scale"`
	Flows      []string    `json:"flows"`
	Cases      []BenchCase `json:"cases"`
	Industrial []BenchCase `json:"industrial,omitempty"`
	// AvgRatioPct averages each flow's reduction vs the baseline flow
	// over the public benchmark cases.
	AvgRatioPct map[string]float64 `json:"avg_ratio_pct"`
	ElapsedMS   int64              `json:"elapsed_ms"`
	// Server holds the serving-layer warm-vs-cold cache latency smoke
	// (smartly-bench -server); absent when the mode did not run.
	Server *ServerBench `json:"server,omitempty"`
	// Replica holds the two-replica shared-cache-tier measurement
	// (smartly-bench -replica n): replica B's warm-hit rate on its first
	// pass over a design replica A computed; absent when the mode did
	// not run.
	Replica *ReplicaBench `json:"replica,omitempty"`
	// Design holds the design-mode sharding cold/warm/incremental
	// latency smoke (smartly-bench -design); absent when the mode did
	// not run.
	Design *DesignBench `json:"design,omitempty"`
	// Load holds the concurrent-load measurement (smartly-bench
	// -load n): throughput and p50/p95/p99 per workload class, with the
	// daemon's own histogram summary for cross-checking; absent when
	// the mode did not run.
	Load *LoadBench `json:"load,omitempty"`
	// Sat holds the SAT oracle's counters and its wall-clock against
	// the sim_filter=false ablation (smartly-bench -sat); absent when
	// the mode did not run.
	Sat *SatBench `json:"sat,omitempty"`
	// Egraph holds the verified e-graph rewriting measurement on the
	// datapath benchmark set (smartly-bench -egraph); absent when the
	// mode did not run.
	Egraph *EgraphBench `json:"egraph,omitempty"`
	// Corpus holds the external benchmark-corpus measurement
	// (smartly-bench -corpus <dir>): yosys/seq/full areas, register
	// sweep counters and the end-to-end induction proof per case;
	// absent when the mode did not run.
	Corpus *CorpusBench `json:"corpus,omitempty"`
}

// BenchCase is one benchmark case of a BenchReport.
type BenchCase struct {
	Name         string         `json:"name"`
	OriginalArea int            `json:"original_area"`
	Areas        map[string]int `json:"areas"`
	// RatiosPct is each flow's reduction vs the baseline (first) flow
	// in percent; the baseline itself is omitted.
	RatiosPct map[string]float64 `json:"ratios_pct"`
	ElapsedMS int64              `json:"elapsed_ms"`
}

// BenchSchema identifies the current report format.
const BenchSchema = "smartly-bench/v1"

func benchCase(r CaseResult, flows []FlowSpec) BenchCase {
	c := BenchCase{
		Name:         r.Name,
		OriginalArea: r.Original,
		Areas:        map[string]int{},
		RatiosPct:    map[string]float64{},
		ElapsedMS:    r.Elapsed.Milliseconds(),
	}
	base := flows[0].Name
	for _, f := range flows {
		c.Areas[f.Name] = r.Area(f.Name)
		if f.Name != base {
			c.RatiosPct[f.Name] = r.Ratio(base, f.Name)
		}
	}
	return c
}

// NewBenchReport assembles the machine-readable report from harness
// results. The first flow is the ratio baseline.
func NewBenchReport(scale float64, flows []FlowSpec, cases []CaseResult,
	industrial []CaseResult, elapsed time.Duration) BenchReport {
	if len(flows) == 0 {
		flows = DefaultFlows()
	}
	rep := BenchReport{
		Schema:      BenchSchema,
		Scale:       scale,
		AvgRatioPct: map[string]float64{},
		ElapsedMS:   elapsed.Milliseconds(),
	}
	for _, f := range flows {
		rep.Flows = append(rep.Flows, f.Name)
	}
	for _, r := range cases {
		rep.Cases = append(rep.Cases, benchCase(r, flows))
	}
	for _, r := range industrial {
		rep.Industrial = append(rep.Industrial, benchCase(r, flows))
	}
	base := flows[0].Name
	for _, f := range flows[1:] {
		rep.AvgRatioPct[f.Name] = avgOf(cases, func(c CaseResult) float64 {
			return c.Ratio(base, f.Name)
		})
	}
	return rep
}

// WriteJSON writes the report, indented for diff-friendly baselines.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
