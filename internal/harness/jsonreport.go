package harness

import (
	"encoding/json"
	"io"
)

// BenchReport is the machine-readable output of cmd/smartly-bench
// -json. Each engine section is one Section: the paper's tables, the
// industrial points, sat, egraph and corpus. The serving sections keep
// their own shapes. A section is absent when its mode did not run.
type BenchReport struct {
	Schema string  `json:"schema"`
	Scale  float64 `json:"scale"`
	// ElapsedMS is the whole run's wall-clock.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Tables holds the public benchmark set under the measured flows
	// (Tables II and III); Industrial the §IV-B test points.
	Tables     *Section `json:"tables,omitempty"`
	Industrial *Section `json:"industrial,omitempty"`
	// Sat, Egraph and Corpus are the -sat, -egraph and -corpus
	// sections (see SatFlows, EgraphFlows and CorpusCases).
	Sat    *Section `json:"sat,omitempty"`
	Egraph *Section `json:"egraph,omitempty"`
	Corpus *Section `json:"corpus,omitempty"`
	// Replica holds the two-replica shared-cache-tier measurement
	// (-replica n).
	Replica *ReplicaBench `json:"replica,omitempty"`
	// Design holds the design-mode sharding cold/warm/incremental
	// latency smoke (-design n).
	Design *DesignBench `json:"design,omitempty"`
	// Load holds the concurrent-load measurement (-load n): throughput
	// and p50/p95/p99 per workload class, with the daemon's own
	// histogram summary for cross-checking.
	Load *LoadBench `json:"load,omitempty"`
}

// BenchSchema identifies the current report format.
const BenchSchema = "smartly-bench/v2"

// WriteJSON writes the report, indented for diff-friendly baselines.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
