// Package harness runs the paper's experiments end to end and the
// repository's other benchmark sections.
//
// One runner serves every engine section: RunCases takes a case set
// (Case: a name plus a builder for its module — a genbench recipe at a
// scale via RecipeCases and IndustrialCases, or a loaded corpus module
// via CorpusCases) and a flow set (Options.Flows), runs cases × flows
// on Options.Jobs workers with deterministic result merging, and
// returns a Section: per case and flow the AIG area, state bits,
// canonical netlist hash, wall time and run-report counters. With
// Options.Check every result is proved equivalent to its input, by
// k-induction when registers are involved. A section is then a case
// set, a flow set and a renderer:
//
//   - the paper's Tables II and III (TableII, TableIII, or TableFlows
//     for custom flows) and the §IV-B industrial summary
//     (IndustrialSummary) over DefaultFlows;
//   - egraph: EgraphFlows over the datapath recipes, EgraphTable;
//   - corpus: CorpusCases under CorpusFlows with Check on, CorpusTable.
//
// ParseFlows builds custom flows from CLI "name=script" specs.
//
// BenchReport (schema "smartly-bench/v2", written by cmd/smartly-bench
// -json) carries every engine section in that one shape, plus the
// serving sections: RunReplicaBench, RunDesignBench and RunLoadBench
// spin in-process smartlyd stacks, drive them through the client
// package and measure the shared cache tier, design-mode sharding and
// latency under concurrent load.
// BENCH_baseline.json in the repository root is the committed
// reference run.
package harness
