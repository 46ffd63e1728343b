package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
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

// namedSection is an engine section with its JSON name.
type namedSection struct {
	name string
	sec  *Section
}

// engineSections lists the report's engine sections in report order.
func (r BenchReport) engineSections() []namedSection {
	return []namedSection{
		{"tables", r.Tables}, {"industrial", r.Industrial},
		{"sat", r.Sat}, {"egraph", r.Egraph}, {"corpus", r.Corpus},
	}
}

// CompareReports is the bench's regression gate: it checks cur against
// the baseline base. Schema and scale must match, and in every engine
// section present in both reports each case and flow must be on both
// sides with the same netlist hash, AIG area and state bits. Wall times
// are reported, not gated: the summed elapsed_ms of every section and
// flow on both sides goes to w, followed by the summed stages_ms of
// every section, flow and pass stage when both reports carry stage
// times. The error names each mismatch by section, case and flow.
func CompareReports(base, cur BenchReport, w io.Writer) error {
	var diffs []string
	diff := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if cur.Schema != base.Schema {
		diff("schema %q, baseline %q", cur.Schema, base.Schema)
	}
	if cur.Scale != base.Scale {
		diff("scale %v, baseline %v", cur.Scale, base.Scale)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "section\tflow\tbaseline ms\tcurrent ms\tchange\t")
	var stageRows []string
	curSecs := cur.engineSections()
	for i, bs := range base.engineSections() {
		name, b, c := bs.name, bs.sec, curSecs[i].sec
		if b == nil || c == nil {
			continue
		}
		var flows []string // in both reports: the ones compared
		for _, f := range union(b.Flows, c.Flows) {
			switch {
			case !slices.Contains(b.Flows, f):
				diff("%s: flow %s missing from the baseline", name, f)
			case !slices.Contains(c.Flows, f):
				diff("%s: flow %s missing from the current run", name, f)
			default:
				flows = append(flows, f)
			}
		}
		baseMS, curMS := elapsedByFlow(b), elapsedByFlow(c)
		baseCases, curCases := casesByName(b), casesByName(c)
		for _, cn := range union(caseNames(b), caseNames(c)) {
			bc, inBase := baseCases[cn]
			cc, inCur := curCases[cn]
			if !inBase {
				diff("%s/%s: case missing from the baseline", name, cn)
				continue
			}
			if !inCur {
				diff("%s/%s: case missing from the current run", name, cn)
				continue
			}
			for _, f := range flows {
				br, inBase := bc.Runs[f]
				cr, inCur := cc.Runs[f]
				at := name + "/" + cn + "/" + f
				switch {
				case !inBase:
					diff("%s: run missing from the baseline", at)
				case !inCur:
					diff("%s: run missing from the current run", at)
				default:
					if cr.Hash != br.Hash {
						diff("%s: hash %s, baseline %s", at, cr.Hash, br.Hash)
					}
					if cr.Area != br.Area {
						diff("%s: area %d, baseline %d", at, cr.Area, br.Area)
					}
					if cr.StateBits != br.StateBits {
						diff("%s: state_bits %d, baseline %d", at, cr.StateBits, br.StateBits)
					}
				}
			}
		}
		baseStages, curStages := stagesByFlow(b), stagesByFlow(c)
		for _, f := range flows {
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%s\t\n", name, f, baseMS[f], curMS[f], change(baseMS[f], curMS[f]))
			for _, st := range sortedKeys(curStages[f]) {
				if bv, ok := baseStages[f][st]; ok {
					cv := curStages[f][st]
					stageRows = append(stageRows, fmt.Sprintf("%s\t%s\t%s\t%.1f\t%.1f\t%s\t", name, f, st, bv, cv, change(bv, cv)))
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(stageRows) > 0 {
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "section\tflow\tstage\tbaseline ms\tcurrent ms\tchange\t")
		for _, row := range stageRows {
			fmt.Fprintln(tw, row)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("report differs from the baseline in %d places:\n  %s",
			len(diffs), strings.Join(diffs, "\n  "))
	}
	return nil
}

// union returns a's elements, then b's elements missing from a.
func union(a, b []string) []string {
	out := slices.Clone(a)
	for _, s := range b {
		if !slices.Contains(a, s) {
			out = append(out, s)
		}
	}
	return out
}

// caseNames lists the section's case names in report order.
func caseNames(s *Section) []string {
	out := make([]string, len(s.Cases))
	for i, c := range s.Cases {
		out[i] = c.Name
	}
	return out
}

// elapsedByFlow sums the section's wall times per flow.
func elapsedByFlow(s *Section) map[string]float64 {
	out := map[string]float64{}
	for _, c := range s.Cases {
		for f, r := range c.Runs {
			out[f] += r.ElapsedMS
		}
	}
	return out
}

// stagesByFlow sums the section's stage times per flow, keyed
// "pass/stage".
func stagesByFlow(s *Section) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, c := range s.Cases {
		for f, r := range c.Runs {
			for pass, stages := range r.StagesMS {
				for st, ms := range stages {
					if out[f] == nil {
						out[f] = map[string]float64{}
					}
					out[f][pass+"/"+st] += ms
				}
			}
		}
	}
	return out
}

// change renders cur relative to base as a signed percentage.
func change(base, cur float64) string {
	if base <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-base)/base)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// casesByName indexes the section's cases by name.
func casesByName(s *Section) map[string]CaseResult {
	out := make(map[string]CaseResult, len(s.Cases))
	for _, c := range s.Cases {
		out[c.Name] = c
	}
	return out
}
