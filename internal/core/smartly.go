package core

import (
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// SmartlyPass is the full smaRTLy optimization: SAT-based redundancy
// elimination followed by muxtree restructuring. The paper observes the
// two "work together to reduce more areas" (restructuring shortens trees
// and simplifies control ports, shrinking the sub-graphs the SAT stage
// sees), so the combination is iterated.
type SmartlyPass struct {
	SatOpts     SatMuxOptions
	RebuildOpts RebuildOptions

	satmux  SatMuxPass
	rebuild RebuildPass
}

// Name implements opt.Pass.
func (p *SmartlyPass) Name() string { return "smartly" }

// Composite implements opt.Composite: the satmux and rebuild children
// run through a nested RunScript and report their own counters, so the
// wrapper must not be double-counted in the run report.
func (p *SmartlyPass) Composite() {}

// Run implements opt.Pass. The child pass instances persist across Run
// calls; their Run methods reset their own counters.
func (p *SmartlyPass) Run(c *opt.Ctx, m *rtlil.Module) (opt.Result, error) {
	p.satmux.Opts = p.SatOpts
	p.rebuild.Opts = p.RebuildOpts
	return opt.RunScript(c, m, &p.satmux, &p.rebuild)
}

// SatStats returns the redundancy-elimination counters of the last Run.
func (p *SmartlyPass) SatStats() SatMuxStats { return p.satmux.LastStats }

// RebuildStats returns the restructuring counters of the last Run.
func (p *SmartlyPass) RebuildStats() RebuildStats { return p.rebuild.LastStats }
