package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/opt"
	"repro/internal/server/api"
)

// Design-mode sharding: instead of caching one payload per design, the
// request's modules are fanned out to a bounded worker pool and each
// module is cached under its own content-addressed key
// (cache.ModuleKey: canonical module hash + normalized flow + option
// set). A warm resubmission with one edited module re-optimizes only
// that module and refills the other entries from cache — the
// incremental-resubmit contract documented in docs/api.md. The merge is
// deterministic: module results land in design order, so the response
// design and reports are bit-identical to the whole-design path.

// modPayload is the cacheable unit of design-mode sharding: one
// optimized module (as a single-module design in the wire JSON format)
// plus its run report.
type modPayload struct {
	Module json.RawMessage `json:"module"`
	Report api.Report      `json:"report"`
}

// moduleOut is the outcome of one module's shard.
type moduleOut struct {
	name   string
	mod    *smartly.Module
	report api.Report
	status string // "hit", "miss" or "bypass"
	err    error
}

// serveDesign produces a design-mode response for a request that holds
// a run slot.
func (s *Server) serveDesign(pr *request) (*api.OptimizeResponse, error) {
	start := time.Now()
	mods := pr.design.Modules()
	workers := s.requestWorkers(pr)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	moduleJobs, perModule := opt.SplitWorkers(workers, len(mods))
	outs := make([]moduleOut, len(mods))
	opt.ForEach(s.runCtx, moduleJobs, len(mods), func(i int) {
		outs[i] = s.serveModule(pr, i, perModule)
	})
	stats := api.ModuleCacheStats{}
	byModule := make(map[string]string, len(mods))
	for i := range outs {
		if outs[i].err != nil {
			return nil, fmt.Errorf("module %s: %w", mods[i].Name, outs[i].err)
		}
		byModule[outs[i].name] = outs[i].status
		if outs[i].status == "hit" {
			stats.Hits++
		} else {
			stats.Misses++
		}
	}
	if err := s.runCtx.Err(); err != nil {
		return nil, err
	}
	// Deterministic merge: every shard's module (cached or freshly
	// computed, both canonical JSON round-trips) replaces the request's
	// module at its design-order position.
	reports := make(map[string]api.Report, len(mods))
	for i := range outs {
		pr.design.ReplaceModule(outs[i].mod)
		reports[outs[i].name] = outs[i].report
	}
	var buf bytes.Buffer
	if err := smartly.WriteJSON(&buf, pr.design); err != nil {
		return nil, err
	}
	resp := &api.OptimizeResponse{
		Key:           pr.key.ID(),
		Cache:         aggregateStatus(pr.req.NoCache, stats, len(mods)),
		Mode:          api.ModeDesign,
		CacheByModule: byModule,
		ModuleCache:   &stats,
		Flow:          pr.key.Flow,
		ElapsedMS:     float64(time.Since(start)) / float64(time.Millisecond),
		Design:        buf.Bytes(),
		Reports:       reports,
	}
	s.logf("optimize flow=%q key=%s mode=design modules=%d hits=%d misses=%d elapsed=%s",
		pr.key.Flow, pr.key.ID()[:12], len(mods), stats.Hits, stats.Misses,
		time.Since(start).Round(time.Microsecond))
	return resp, nil
}

// aggregateStatus folds the per-module outcomes into the top-level
// Cache field: "hit" when every module hit, "miss" when none did,
// "partial" otherwise ("bypass" under NoCache).
func aggregateStatus(noCache bool, stats api.ModuleCacheStats, modules int) string {
	switch {
	case noCache:
		return "bypass"
	case stats.Hits == modules:
		return "hit"
	case stats.Hits == 0:
		return "miss"
	default:
		return "partial"
	}
}

// serveModule serves one module shard: from the module tier, a
// coalesced in-flight computation, or its own run under the split
// worker budget. Cache semantics (coalescing, evict-and-recompute-once
// on undecodable payloads) are shared with the whole-design path via
// serveCached.
func (s *Server) serveModule(pr *request, i, perModule int) moduleOut {
	m := pr.design.Modules()[i]
	out := moduleOut{name: m.Name}
	key := cache.ModuleKey{
		Module:  smartly.Hash(m),
		Flow:    pr.key.Flow,
		Options: pr.key.Options,
	}
	compute := func() ([]byte, error) {
		return s.computeGuarded(func() ([]byte, error) { return s.computeModule(pr, m, perModule) })
	}
	decode := func(raw []byte) error {
		var err error
		out.mod, out.report, err = decodeModPayload(raw, m.Name)
		return err
	}
	out.status, out.err = s.serveCached(pr.req.NoCache, key.ID(), compute, decode)
	return out
}

// computeModule optimizes one module in place under the per-module
// worker budget and serializes its cacheable payload. The module
// belongs to this request's private design, so in-place mutation is
// safe; the caller replaces it with the decoded payload either way.
func (s *Server) computeModule(pr *request, m *smartly.Module, perModule int) ([]byte, error) {
	opts := []smartly.RunOption{
		smartly.WithContext(s.runCtx),
		smartly.WithWorkers(perModule),
	}
	opts = append(opts, progressOption(pr, m.Name)...)
	if pr.req.Timings {
		opts = append(opts, smartly.WithTimings())
	}
	rep, err := pr.flow.Run(m, opts...)
	if err != nil {
		return nil, err
	}
	one := smartly.NewDesign()
	one.AddModule(m)
	var buf bytes.Buffer
	if err := smartly.WriteJSON(&buf, one); err != nil {
		return nil, err
	}
	return json.Marshal(modPayload{Module: buf.Bytes(), Report: fromRunReport(rep)})
}

// decodeModPayload decodes one cached module payload and checks it
// carries exactly the expected module (the module hash keys the entry,
// and the hash covers the name, so a mismatch means a damaged entry).
func decodeModPayload(raw []byte, name string) (*smartly.Module, api.Report, error) {
	var p modPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, api.Report{}, err
	}
	d, err := smartly.ReadJSON(bytes.NewReader(p.Module))
	if err != nil {
		return nil, api.Report{}, err
	}
	if len(d.Modules()) != 1 || d.Modules()[0].Name != name {
		return nil, api.Report{}, fmt.Errorf("payload holds %d modules, want module %q", len(d.Modules()), name)
	}
	return d.Modules()[0], p.Report, nil
}
