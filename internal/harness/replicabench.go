package harness

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/client"
	"repro/internal/cache"
	"repro/internal/genbench"
	"repro/internal/rtlil"
	"repro/internal/server"
	"repro/internal/server/api"
)

// ReplicaBench measures the shared cache tier across a two-replica
// fleet: replica A computes a multi-module design cold, then replica B
// — whose cache consults A over the HTTP peer protocol — sees the same
// design for the first time. The figure that matters is replica B's
// warm-hit rate on that first pass: with a working shared tier it is
// ~100% (every module resolves through the peer instead of
// recomputing), and the acceptance floor is 80%. Attached to the bench
// JSON under "replica" so CI tracks fleet cache effectiveness.
type ReplicaBench struct {
	Name    string  `json:"name"`
	Modules int     `json:"modules"`
	Flow    string  `json:"flow"`
	Scale   float64 `json:"scale"`
	// ColdMS is replica A's cold first pass; PeerWarmMS is replica B's
	// first pass over the peer-shared cache; LocalWarmMS is replica B's
	// second pass (everything promoted locally).
	ColdMS      float64 `json:"cold_ms"`
	PeerWarmMS  float64 `json:"peer_warm_ms"`
	LocalWarmMS float64 `json:"local_warm_ms"`
	// WarmHitRate is replica B's first-pass module hit rate in [0, 1].
	WarmHitRate float64 `json:"warm_hit_rate"`
	// PeerSpeedup is ColdMS/PeerWarmMS.
	PeerSpeedup float64 `json:"peer_speedup"`
	// RemoteHits/RemoteErrors are replica B's remote-tier counters after
	// the run.
	RemoteHits   uint64 `json:"remote_hits"`
	RemoteErrors uint64 `json:"remote_errors"`
}

// RunReplicaBench generates a modules-module design and runs the
// two-replica scenario: A cold, B through A's cache peer endpoints,
// then B again locally. Design mode shards the cache per module, so the
// warm-hit rate is a real rate rather than a single all-or-nothing
// entry.
func RunReplicaBench(modules int, flow string, scale float64) (ReplicaBench, error) {
	if modules < 1 {
		modules = 8
	}
	out := ReplicaBench{Name: "replica_shared_cache", Modules: modules, Flow: flow, Scale: scale}
	recipe := genbench.DesignRecipe{Name: out.Name, Modules: modules, Seed: 1905}
	d := genbench.GenerateDesign(recipe, scale)
	var buf bytes.Buffer
	if err := rtlil.WriteJSON(&buf, d); err != nil {
		return out, err
	}
	designJSON := buf.Bytes()

	sA := server.New(server.Config{DefaultMode: api.ModeDesign})
	tsA := httptest.NewServer(sA.Handler())
	defer func() {
		tsA.Close()
		sA.Close()
	}()
	cacheB, err := cache.New(0, "")
	if err != nil {
		return out, err
	}
	cacheB.SetRemote(cache.NewHTTPPeer(tsA.URL, 0))
	sB := server.New(server.Config{DefaultMode: api.ModeDesign, Cache: cacheB})
	tsB := httptest.NewServer(sB.Handler())
	defer func() {
		tsB.Close()
		sB.Close()
	}()

	post := func(url string) (float64, *api.OptimizeResponse, error) {
		start := time.Now()
		resp, err := client.New(url).Optimize(context.Background(), api.OptimizeRequest{Design: designJSON, Flow: flow})
		return toMS(time.Since(start)), resp, err
	}

	// Replica A computes everything.
	ms, resp, err := post(tsA.URL)
	if err != nil {
		return out, fmt.Errorf("harness: replica A cold pass: %w", err)
	}
	if resp.ModuleCache == nil || resp.ModuleCache.Misses != modules {
		return out, fmt.Errorf("harness: replica A cold pass stats %+v, want %d misses", resp.ModuleCache, modules)
	}
	out.ColdMS = ms

	// Replica B's first sight of the design: the shared tier answers.
	ms, resp, err = post(tsB.URL)
	if err != nil {
		return out, fmt.Errorf("harness: replica B peer-warm pass: %w", err)
	}
	out.PeerWarmMS = ms
	if resp.ModuleCache != nil {
		out.WarmHitRate = float64(resp.ModuleCache.Hits) / float64(modules)
	}
	if out.PeerWarmMS > 0 {
		out.PeerSpeedup = out.ColdMS / out.PeerWarmMS
	}

	// Replica B again: the peer refill was promoted into B's own tiers.
	ms, resp, err = post(tsB.URL)
	if err != nil {
		return out, fmt.Errorf("harness: replica B local-warm pass: %w", err)
	}
	if resp.Cache != "hit" {
		return out, fmt.Errorf("harness: replica B local-warm pass served as %q, want hit", resp.Cache)
	}
	out.LocalWarmMS = ms

	st := cacheB.Stats()
	out.RemoteHits = st.RemoteHits
	out.RemoteErrors = st.RemoteErrors
	if out.WarmHitRate < 0.8 {
		return out, fmt.Errorf("harness: replica B warm-hit rate %.0f%% below the 80%% floor",
			100*out.WarmHitRate)
	}
	return out, nil
}

// String renders the bench result for the human-readable table mode.
func (b ReplicaBench) String() string {
	return fmt.Sprintf(
		"Two-replica shared cache (%d modules, flow=%s, scale=%g):\n"+
			"  cold %.3fms  peer-warm %.3fms (%.1fx, hit rate %.0f%%)  local-warm %.3fms  remote hits %d errors %d\n",
		b.Modules, b.Flow, b.Scale, b.ColdMS, b.PeerWarmMS, b.PeerSpeedup,
		100*b.WarmHitRate, b.LocalWarmMS, b.RemoteHits, b.RemoteErrors)
}
