package harness

import (
	"fmt"
	"strings"
)

// Averages computes the per-column averages used in the tables' last row.
func Averages(results []CaseResult) CaseResult {
	avg := CaseResult{Name: "Average", Runs: map[string]FlowRun{}}
	n := len(results)
	if n == 0 {
		return avg
	}
	sums := map[string]int{}
	for _, r := range results {
		avg.Original += r.Original
		for k, v := range r.Runs {
			sums[k] += v.Area
		}
	}
	avg.Original /= n
	for k, v := range sums {
		avg.Runs[k] = FlowRun{Area: v / n}
	}
	return avg
}

// AvgRatio averages flow's extra reduction vs base over the cases, in
// percent.
func (s Section) AvgRatio(base, flow string) float64 {
	if len(s.Cases) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range s.Cases {
		sum += c.Ratio(base, flow)
	}
	return sum / float64(len(s.Cases))
}

// TableII renders the paper's Table II: Original / Yosys / smaRTLy
// areas and the extra-reduction ratio.
func TableII(s Section) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II: AIG areas, Yosys vs smaRTLy (scaled reproduction)\n")
	fmt.Fprintf(&sb, "%-15s %10s %10s %10s %8s\n", "Case", "Original", "Yosys", "smaRTLy", "Ratio")
	for _, r := range s.Cases {
		fmt.Fprintf(&sb, "%-15s %10d %10d %10d %7.2f%%\n",
			r.Name, r.Original, r.Area(FlowYosys), r.Area(FlowFull), r.RatioFull())
	}
	avg := Averages(s.Cases)
	fmt.Fprintf(&sb, "%-15s %10d %10d %10d %7.2f%%\n",
		avg.Name, avg.Original, avg.Area(FlowYosys), avg.Area(FlowFull), s.AvgRatio(FlowYosys, FlowFull))
	return sb.String()
}

// TableIII renders the paper's Table III: per-method reductions.
func TableIII(s Section) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table III: reduction by individual methods and combined\n")
	fmt.Fprintf(&sb, "%-15s %8s %8s %8s\n", "Case", "SAT", "Rebuild", "Full")
	for _, r := range s.Cases {
		fmt.Fprintf(&sb, "%-15s %7.2f%% %7.2f%% %7.2f%%\n",
			r.Name, r.RatioSAT(), r.RatioRebuild(), r.RatioFull())
	}
	fmt.Fprintf(&sb, "%-15s %7.2f%% %7.2f%% %7.2f%%\n", "Average",
		s.AvgRatio(FlowYosys, FlowSAT), s.AvgRatio(FlowYosys, FlowRebuild), s.AvgRatio(FlowYosys, FlowFull))
	return sb.String()
}

// TableFlows renders a generic area table for an arbitrary flow set:
// one column per flow plus the reduction of the last flow vs the first.
func TableFlows(s Section) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-15s %10s", "Case", "Original")
	for _, f := range s.Flows {
		fmt.Fprintf(&sb, " %10s", f)
	}
	if len(s.Flows) >= 2 {
		fmt.Fprintf(&sb, " %8s", "Ratio")
	}
	sb.WriteByte('\n')
	rows := append(append([]CaseResult{}, s.Cases...), Averages(s.Cases))
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-15s %10d", r.Name, r.Original)
		for _, f := range s.Flows {
			fmt.Fprintf(&sb, " %10d", r.Area(f))
		}
		if len(s.Flows) >= 2 {
			fmt.Fprintf(&sb, " %7.2f%%", r.Ratio(s.Flows[0], s.Flows[len(s.Flows)-1]))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// IndustrialSummary renders the §IV-B report.
func IndustrialSummary(s Section) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Industrial benchmark (scaled reproduction, %d test points)\n", len(s.Cases))
	fmt.Fprintf(&sb, "%-15s %10s %10s %10s %8s\n", "Point", "Original", "Yosys", "smaRTLy", "Extra")
	for _, p := range s.Cases {
		fmt.Fprintf(&sb, "%-15s %10d %10d %10d %7.2f%%\n",
			p.Name, p.Original, p.Area(FlowYosys), p.Area(FlowFull), p.RatioFull())
	}
	fmt.Fprintf(&sb, "smaRTLy removes %.1f%% more AIG area than Yosys (paper: 47.2%%)\n",
		s.AvgRatio(FlowYosys, FlowFull))
	return sb.String()
}
