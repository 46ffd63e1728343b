package genbench

// Recipes returns the ten public-benchmark substitutes, one per case of
// the paper's Table II, with block mixes calibrated so the reduction
// ratios reproduce the table's shape: which technique wins on each case
// and roughly by how much.
//
// Calibration rationale per case (paper Table III):
//   - top_cache_axi: Rebuild dominates (24.91% vs SAT 0.01%) — almost
//     all optimization potential is sparse case chains.
//   - wb_conmax: SAT dominates (19.05% vs 4.65%) — interconnect matrix
//     full of dependent selection controls.
//   - mem_ctrl: nearly nothing left (0.53%) after a huge baseline
//     cleanup (94% by Yosys) — mostly redundant + plain blocks.
//   - wb_dma: SAT-heavy (11.52% vs 0.80%).
//   - pci_bridge32 / usb_funct / ac97_ctrl / tv80 / riscv / ethernet:
//     small single-digit mixes with the documented skews.
func Recipes() []Recipe {
	return []Recipe{
		{
			Name: "top_cache_axi", Seed: 101,
			PlainBlocks: 30, RedundantBlocks: 260, DepBlocks: 0,
			CaseBlocks: 420, SynergyBlocks: 0,
			CaseSelBits: [2]int{4, 5}, DataWidth: 8,
			PmuxFraction: 0.1, SparseTerminals: true, MaxTerminals: 4,
		},
		{
			Name: "pci_bridge32", Seed: 102,
			PlainBlocks: 120, RedundantBlocks: 35, DepBlocks: 0,
			CaseBlocks: 5, SynergyBlocks: 7,
			CaseSelBits: [2]int{3, 4}, DataWidth: 8,
			PmuxFraction: 0.3, SparseTerminals: true,
		},
		{
			Name: "wb_conmax", Seed: 103,
			PlainBlocks: 60, RedundantBlocks: 90, DepBlocks: 220,
			CaseBlocks: 20, SynergyBlocks: 4,
			CaseSelBits: [2]int{3, 4}, DataWidth: 8,
			PmuxFraction: 0.4, SparseTerminals: true,
		},
		{
			Name: "mem_ctrl", Seed: 104,
			PlainBlocks: 100, RedundantBlocks: 800, DepBlocks: 1,
			CaseBlocks: 4, SynergyBlocks: 0,
			CaseSelBits: [2]int{3, 3}, DataWidth: 8,
			PmuxFraction: 0.5, SparseTerminals: true, MaxTerminals: 3,
		},
		{
			Name: "wb_dma", Seed: 105,
			PlainBlocks: 65, RedundantBlocks: 220, DepBlocks: 90,
			CaseBlocks: 1, SynergyBlocks: 1,
			CaseSelBits: [2]int{3, 3}, DataWidth: 8,
			PmuxFraction: 0.4, SparseTerminals: false,
		},
		{
			Name: "tv80", Seed: 106,
			PlainBlocks: 90, RedundantBlocks: 650, DepBlocks: 2,
			CaseBlocks: 4, SynergyBlocks: 1,
			CaseSelBits: [2]int{3, 4}, DataWidth: 8,
			PmuxFraction: 0.5, SparseTerminals: true,
		},
		{
			Name: "usb_funct", Seed: 107,
			PlainBlocks: 170, RedundantBlocks: 90, DepBlocks: 5,
			CaseBlocks: 1, SynergyBlocks: 1,
			CaseSelBits: [2]int{3, 4}, DataWidth: 8,
			PmuxFraction: 0.4, SparseTerminals: false,
		},
		{
			Name: "ethernet", Seed: 108,
			PlainBlocks: 210, RedundantBlocks: 12, DepBlocks: 1,
			CaseBlocks: 2, SynergyBlocks: 0,
			CaseSelBits: [2]int{3, 3}, DataWidth: 8,
			PmuxFraction: 0.5, SparseTerminals: true, MaxTerminals: 3,
		},
		{
			Name: "riscv", Seed: 109,
			PlainBlocks: 170, RedundantBlocks: 110, DepBlocks: 1,
			CaseBlocks: 3, SynergyBlocks: 0,
			CaseSelBits: [2]int{4, 5}, DataWidth: 8,
			PmuxFraction: 0.5, SparseTerminals: true, MaxTerminals: 5,
		},
		{
			Name: "ac97_ctrl", Seed: 110,
			PlainBlocks: 120, RedundantBlocks: 4, DepBlocks: 0,
			CaseBlocks: 4, SynergyBlocks: 1,
			CaseSelBits: [2]int{3, 4}, DataWidth: 8,
			PmuxFraction: 0.4, SparseTerminals: true,
		},
	}
}

// IndustrialRecipe builds the industrial-benchmark substitute: selection
// circuits dominate (high mux/pmux fraction), controls are logically
// dependent rather than identical so the Yosys baseline barely fires,
// and case trees are large and sparse. The paper reports smaRTLy
// removing 47.2% more AIG area than Yosys on this class.
func IndustrialRecipe(point int) Recipe {
	return Recipe{
		Name: "industrial", Seed: 9000 + int64(point),
		PlainBlocks: 20, RedundantBlocks: 10, DepBlocks: 420,
		CaseBlocks: 170, SynergyBlocks: 30,
		CaseSelBits: [2]int{4, 5}, DataWidth: 10,
		PmuxFraction: 0.4, SparseTerminals: true,
		MaxTerminals: 4, DepChainLen: 4,
	}
}

// DatapathRecipes returns the datapath benchmark cases targeting the
// opt_egraph pass: word-level arithmetic redundancy (shared-operand
// MAC chains, common-coefficient FIR taps, mirrored comparator trees)
// that neither the Yosys baseline nor the muxtree-centric smaRTLy
// flows can touch. They are kept out of Recipes() so the Table II/III
// calibration is unchanged.
//
// DataWidth stays at 5 bits deliberately: the per-cone equivalence
// proofs opt_egraph runs involve multiplier miters, which are
// exponential in width for the naive CDCL solver (about 100ms at 5
// bits, seconds at 6, out of reach at 8). Narrow words keep verified
// extraction in the millisecond range per proof.
func DatapathRecipes() []Recipe {
	return []Recipe{
		{
			Name: "mac_chain", Seed: 201,
			PlainBlocks: 20, MacBlocks: 60, FirBlocks: 10, CmpBlocks: 10,
			DataWidth: 5,
		},
		{
			Name: "fir_shared", Seed: 202,
			PlainBlocks: 15, MacBlocks: 10, FirBlocks: 70, CmpBlocks: 5,
			DataWidth: 5,
		},
		{
			Name: "cmp_forest", Seed: 203,
			PlainBlocks: 15, MacBlocks: 5, FirBlocks: 5, CmpBlocks: 70,
			DataWidth: 5,
		},
	}
}
