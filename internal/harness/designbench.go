package harness

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/client"
	"repro/internal/genbench"
	"repro/internal/rtlil"
	"repro/internal/server"
	"repro/internal/server/api"
)

// DesignBench measures the serving layer's design-mode sharding on a
// generated multi-module design across the three request shapes that
// matter at scale: cold (no cache), warm (identical resubmission, every
// module hits) and incremental (one module mutated, exactly one module
// re-optimizes). It is attached to the bench JSON under "design" so CI
// tracks the incremental-resubmit speedup alongside the area numbers.
type DesignBench struct {
	Name    string  `json:"name"`
	Modules int     `json:"modules"`
	Flow    string  `json:"flow"`
	Scale   float64 `json:"scale"`
	Rounds  int     `json:"rounds"`
	// ColdMS/WarmMS/IncrementalMS are best-of-rounds latencies of the
	// three request shapes.
	ColdMS        float64 `json:"cold_ms"`
	WarmMS        float64 `json:"warm_ms"`
	IncrementalMS float64 `json:"incremental_ms"`
	// WarmSpeedup is ColdMS/WarmMS; IncrementalSpeedup is
	// ColdMS/IncrementalMS — the payoff of re-optimizing one module
	// instead of the whole design.
	WarmSpeedup        float64 `json:"warm_speedup"`
	IncrementalSpeedup float64 `json:"incremental_speedup"`
}

// RunDesignBench generates a modules-module design, spins up an
// in-process serving stack and measures cold, warm and incremental
// design-mode latency over the given number of rounds (min 1). Every
// round's per-module cache outcomes are asserted, so the bench doubles
// as an end-to-end check of the incremental-resubmit contract.
func RunDesignBench(modules int, flow string, scale float64, rounds int) (DesignBench, error) {
	if modules < 1 {
		modules = 8
	}
	out := DesignBench{Name: "design_shard", Modules: modules, Flow: flow, Scale: scale, Rounds: rounds}
	if out.Rounds < 1 {
		out.Rounds = 1
	}
	recipe := genbench.DesignRecipe{Name: out.Name, Modules: modules, Seed: 42}
	d := genbench.GenerateDesign(recipe, scale)
	encode := func() ([]byte, error) {
		var buf bytes.Buffer
		if err := rtlil.WriteJSON(&buf, d); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	designJSON, err := encode()
	if err != nil {
		return out, err
	}

	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	cl := client.New(ts.URL)

	post := func(body []byte, noCache bool) (time.Duration, *api.OptimizeResponse, error) {
		req := api.OptimizeRequest{Design: body, Flow: flow, Mode: api.ModeDesign, NoCache: noCache}
		start := time.Now()
		resp, err := cl.Optimize(context.Background(), req)
		return time.Since(start), resp, err
	}
	best := func(slot *float64, el time.Duration) {
		if ms := toMS(el); *slot == 0 || ms < *slot {
			*slot = ms
		}
	}

	// Cold rounds bypass the cache entirely: every module pays the full
	// optimization.
	for i := 0; i < out.Rounds; i++ {
		el, resp, err := post(designJSON, true)
		if err != nil {
			return out, fmt.Errorf("harness: cold round %d: %w", i, err)
		}
		if resp.Cache != "bypass" {
			return out, fmt.Errorf("harness: cold round %d served as %q", i, resp.Cache)
		}
		best(&out.ColdMS, el)
	}
	// One priming request fills the module tier (all misses), then every
	// warm round must hit on every module.
	if _, resp, err := post(designJSON, false); err != nil {
		return out, fmt.Errorf("harness: priming request: %w", err)
	} else if err := wantModuleCache(resp, 0, modules); err != nil {
		return out, fmt.Errorf("harness: priming request: %w", err)
	}
	for i := 0; i < out.Rounds; i++ {
		el, resp, err := post(designJSON, false)
		if err != nil {
			return out, fmt.Errorf("harness: warm round %d: %w", i, err)
		}
		if err := wantModuleCache(resp, modules, 0); err != nil {
			return out, fmt.Errorf("harness: warm round %d: %w", i, err)
		}
		best(&out.WarmMS, el)
	}
	// Incremental rounds mutate one module per round (a fresh generation
	// each time, so exactly one module misses) and resubmit.
	for i := 0; i < out.Rounds; i++ {
		genbench.MutateModule(d, recipe, scale, i%modules, i+1)
		body, err := encode()
		if err != nil {
			return out, err
		}
		el, resp, err := post(body, false)
		if err != nil {
			return out, fmt.Errorf("harness: incremental round %d: %w", i, err)
		}
		if err := wantModuleCache(resp, modules-1, 1); err != nil {
			return out, fmt.Errorf("harness: incremental round %d: %w", i, err)
		}
		best(&out.IncrementalMS, el)
	}
	if out.WarmMS > 0 {
		out.WarmSpeedup = out.ColdMS / out.WarmMS
	}
	if out.IncrementalMS > 0 {
		out.IncrementalSpeedup = out.ColdMS / out.IncrementalMS
	}
	return out, nil
}

// wantModuleCache checks a design-mode response's per-module outcome.
func wantModuleCache(resp *api.OptimizeResponse, hits, misses int) error {
	if resp.Mode != api.ModeDesign {
		return fmt.Errorf("served in mode %q, want %q", resp.Mode, api.ModeDesign)
	}
	if resp.ModuleCache == nil {
		return fmt.Errorf("response has no module cache stats")
	}
	if resp.ModuleCache.Hits != hits || resp.ModuleCache.Misses != misses {
		return fmt.Errorf("module cache hits=%d misses=%d, want hits=%d misses=%d",
			resp.ModuleCache.Hits, resp.ModuleCache.Misses, hits, misses)
	}
	return nil
}

// String renders the bench result for the human-readable table mode.
func (b DesignBench) String() string {
	return fmt.Sprintf(
		"Design-mode sharding latency (%d modules, flow=%s, scale=%g, best of %d):\n"+
			"  cold %.3fms  warm %.3fms (%.1fx)  incremental %.3fms (%.1fx)\n",
		b.Modules, b.Flow, b.Scale, b.Rounds,
		b.ColdMS, b.WarmMS, b.WarmSpeedup, b.IncrementalMS, b.IncrementalSpeedup)
}
