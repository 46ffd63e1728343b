package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/genbench"
	"repro/internal/rtlil"
	"repro/internal/server/api"
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// genDesignJSON generates a deterministic multi-module design and
// returns it as wire bytes plus its recipe (for mutations).
func genDesignJSON(t *testing.T, modules int, seed int64) ([]byte, genbench.DesignRecipe) {
	t.Helper()
	r := genbench.DesignRecipe{Modules: modules, Seed: seed}
	d := genbench.GenerateDesign(r, 0.02)
	var buf bytes.Buffer
	if err := rtlil.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

// mutateDesignJSON re-encodes the design with module index i replaced
// by generation gen.
func mutateDesignJSON(t *testing.T, r genbench.DesignRecipe, i, gen int) []byte {
	t.Helper()
	d := genbench.GenerateDesign(r, 0.02)
	genbench.MutateModule(d, r, 0.02, i, gen)
	var buf bytes.Buffer
	if err := rtlil.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeHash parses response netlist bytes and returns the canonical
// design hash — the serialization-independent identity the sharded and
// whole paths must agree on (their raw bytes differ only in JSON net-id
// labeling).
func decodeHash(t *testing.T, raw []byte) string {
	t.Helper()
	d, err := smartly.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return smartly.HashDesign(d)
}

// TestDesignModeMatchesWholeMode: design-mode sharding must serve a
// bit-identical design (canonical hash) and identical per-module
// counters to both the whole-design path and a local RunDesign, for
// several worker budgets.
func TestDesignModeMatchesWholeMode(t *testing.T) {
	designJSON, _ := genDesignJSON(t, 4, 21)
	_, ts := newTestServer(t, Config{})

	local, err := smartly.ReadJSON(bytes.NewReader(designJSON))
	if err != nil {
		t.Fatal(err)
	}
	flow, err := smartly.NamedFlow("yosys")
	if err != nil {
		t.Fatal(err)
	}
	localReports, err := flow.RunDesign(local)
	if err != nil {
		t.Fatal(err)
	}
	var localOut bytes.Buffer
	if err := smartly.WriteJSON(&localOut, local); err != nil {
		t.Fatal(err)
	}

	whole, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	if code != http.StatusOK {
		t.Fatalf("whole mode: status %d", code)
	}
	if whole.Mode != api.ModeWhole {
		t.Errorf("whole mode served as %q", whole.Mode)
	}
	for _, workers := range []int{0, 1, 3} {
		resp, code := postOptimize(t, ts.URL, api.OptimizeRequest{
			Design: designJSON, Flow: "yosys", Mode: api.ModeDesign,
			Workers: workers, NoCache: true, // bypass: force a fresh sharded run each time
		})
		if code != http.StatusOK {
			t.Fatalf("design mode workers=%d: status %d", workers, code)
		}
		if resp.Mode != api.ModeDesign {
			t.Errorf("design mode served as %q", resp.Mode)
		}
		if got, want := decodeHash(t, resp.Design), decodeHash(t, localOut.Bytes()); got != want {
			t.Errorf("workers=%d: design-mode netlist hash %s, local run %s", workers, got, want)
		}
		if got, want := decodeHash(t, resp.Design), decodeHash(t, whole.Design); got != want {
			t.Errorf("workers=%d: design-mode netlist hash %s, whole mode %s", workers, got, want)
		}
		for mod, localRep := range localReports {
			want := fromRunReport(localRep)
			got, ok := resp.Reports[mod]
			if !ok {
				t.Errorf("workers=%d: no report for module %s", workers, mod)
				continue
			}
			if !reflect.DeepEqual(got.Counters(), want.Counters()) {
				t.Errorf("workers=%d module %s: counters %v, want %v", workers, mod, got.Counters(), want.Counters())
			}
		}
	}
}

// TestDesignModeIncrementalResubmit is the incremental-resubmit
// contract end to end at the server layer: a warm resubmission hits on
// every module; mutating exactly one module re-optimizes only that
// module.
func TestDesignModeIncrementalResubmit(t *testing.T) {
	const modules = 8
	designJSON, recipe := genDesignJSON(t, modules, 33)
	_, ts := newTestServer(t, Config{})

	post := func(body []byte) *api.OptimizeResponse {
		t.Helper()
		resp, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: body, Flow: "yosys", Mode: api.ModeDesign})
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		return resp
	}

	cold := post(designJSON)
	if cold.Cache != "miss" || cold.ModuleCache == nil || cold.ModuleCache.Misses != modules {
		t.Fatalf("cold: cache=%q stats=%+v, want miss with %d misses", cold.Cache, cold.ModuleCache, modules)
	}
	warm := post(designJSON)
	if warm.Cache != "hit" || warm.ModuleCache.Hits != modules {
		t.Fatalf("warm: cache=%q stats=%+v, want hit with %d hits", warm.Cache, warm.ModuleCache, modules)
	}
	if !bytes.Equal(compactJSON(t, warm.Design), compactJSON(t, cold.Design)) {
		t.Error("warm response netlist differs from cold")
	}

	incr := post(mutateDesignJSON(t, recipe, 2, 1))
	if incr.Cache != "partial" {
		t.Errorf("incremental: cache=%q, want partial", incr.Cache)
	}
	if incr.ModuleCache.Hits != modules-1 || incr.ModuleCache.Misses != 1 {
		t.Errorf("incremental: stats=%+v, want %d hits 1 miss", incr.ModuleCache, modules-1)
	}
	for name, status := range incr.CacheByModule {
		wantStatus := "hit"
		if name == "m02_wb_conmax" {
			wantStatus = "miss"
		}
		if status != wantStatus {
			t.Errorf("incremental: module %s status %q, want %q", name, status, wantStatus)
		}
	}
}

// TestDesignModeBadMode: an unknown mode is a 400.
func TestDesignModeBadMode(t *testing.T) {
	designJSON, _ := genDesignJSON(t, 1, 1)
	_, ts := newTestServer(t, Config{})
	_, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Mode: "bogus"})
	if code != http.StatusBadRequest {
		t.Errorf("bogus mode: status %d, want 400", code)
	}
}

// TestDesignModeDefaultMode: a server configured with DefaultMode
// design shards requests that set no mode.
func TestDesignModeDefaultMode(t *testing.T) {
	designJSON, _ := genDesignJSON(t, 2, 9)
	_, ts := newTestServer(t, Config{DefaultMode: api.ModeDesign})
	resp, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Mode != api.ModeDesign || resp.ModuleCache == nil {
		t.Errorf("default-mode response mode=%q stats=%+v, want design mode", resp.Mode, resp.ModuleCache)
	}
}

// TestDesignModeConcurrentWarmHits hammers a primed module tier from
// many goroutines; every response must be a full hit with identical
// bytes (run under -race in CI).
func TestDesignModeConcurrentWarmHits(t *testing.T) {
	const modules = 4
	designJSON, _ := genDesignJSON(t, modules, 17)
	_, ts := newTestServer(t, Config{Jobs: 4, QueueDepth: 64})

	prime, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys", Mode: api.ModeDesign})
	if code != http.StatusOK {
		t.Fatalf("prime: status %d", code)
	}
	want := compactJSON(t, prime.Design)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys", Mode: api.ModeDesign})
			if code != http.StatusOK {
				errs <- "bad status"
				return
			}
			if resp.Cache != "hit" || resp.ModuleCache.Hits != modules {
				errs <- "warm request not a full hit"
				return
			}
			if !bytes.Equal(compactJSON(t, resp.Design), want) {
				errs <- "warm bytes differ"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestDesignModeCancelLeavesCacheUsable cancels a design-mode run
// mid-shard (server Close) and checks the shared cache directory still
// serves a fresh server correctly: entries are either absent (miss,
// recompute) or valid — never corrupt.
func TestDesignModeCancelLeavesCacheUsable(t *testing.T) {
	const modules = 6
	designJSON, _ := genDesignJSON(t, modules, 55)
	dir := t.TempDir()

	c1, err := cache.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Cache: c1, Jobs: 2})
	ctx, cancelReq := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts1.URL+"/v1/optimize",
			bytes.NewReader(mustMarshal(t, api.OptimizeRequest{Design: designJSON, Flow: "full", Mode: api.ModeDesign})))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Let some shards start, then kill the run context mid-design.
	time.Sleep(50 * time.Millisecond)
	s1.Close()
	cancelReq()
	<-done

	// A fresh server over the same disk tier must serve the design
	// correctly: whatever the canceled run left behind is either a
	// valid entry (hit) or nothing (miss + recompute).
	c2, err := cache.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Cache: c2})
	resp, code := postOptimize(t, ts2.URL, api.OptimizeRequest{Design: designJSON, Flow: "full", Mode: api.ModeDesign})
	if code != http.StatusOK {
		t.Fatalf("post-cancel request: status %d", code)
	}
	if resp.ModuleCache == nil || resp.ModuleCache.Hits+resp.ModuleCache.Misses != modules {
		t.Fatalf("post-cancel stats %+v, want %d modules accounted", resp.ModuleCache, modules)
	}
	// And the bytes must match a cache-bypassing reference run.
	ref, code := postOptimize(t, ts2.URL, api.OptimizeRequest{Design: designJSON, Flow: "full", Mode: api.ModeDesign, NoCache: true})
	if code != http.StatusOK {
		t.Fatalf("reference run: status %d", code)
	}
	if !bytes.Equal(compactJSON(t, resp.Design), compactJSON(t, ref.Design)) {
		t.Error("post-cancel cached design differs from reference run")
	}
}

// TestCorruptCachedPayloadFailsSoft plants undecodable bytes under both
// a whole-design key and a module key; the server must evict and
// recompute (a slow miss), not fail the request. A whole-mode
// resubmission meets the poisoned entry on either path: through the
// memo (the exact bytes of the priming request) or not (the same
// design re-indented), and both count the same lookups.
func TestCorruptCachedPayloadFailsSoft(t *testing.T) {
	designJSON, _ := genDesignJSON(t, 2, 3)
	s, ts := newTestServer(t, Config{})

	// Learn the real keys from a clean run, then poison them.
	whole, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	if code != http.StatusOK {
		t.Fatalf("priming whole: status %d", code)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, designJSON, "", "\t"); err != nil {
		t.Fatal(err)
	}
	var deltas []cache.Stats
	for _, c := range []struct {
		path   string
		design []byte
	}{{"slow", spaced.Bytes()}, {"fast", designJSON}} {
		s.Cache().Put(whole.Key, []byte("not json"))
		before := s.Cache().Stats()
		code, body := postRaw(t, s.Handler(), rawBody(c.design, `"flow":"yosys"`))
		if code != http.StatusOK {
			t.Fatalf("%s path, whole mode with poisoned entry: status %d (%s), want 200", c.path, code, body)
		}
		after := s.Cache().Stats()
		var resp api.OptimizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cache != "miss" {
			t.Errorf("%s path: poisoned whole entry served as %q, want miss (recomputed)", c.path, resp.Cache)
		}
		if !bytes.Equal(resp.Design, whole.Design) {
			t.Errorf("%s path: recomputed whole-design bytes differ", c.path)
		}
		deltas = append(deltas, cache.Stats{
			Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses, Puts: after.Puts - before.Puts,
		})
	}
	// One hit reads the poisoned entry, one miss recomputes it.
	for i, d := range deltas {
		if d != (cache.Stats{Hits: 1, Misses: 1, Puts: 1}) {
			t.Errorf("%s path counted %+v, want one hit, one miss and one put", []string{"slow", "fast"}[i], d)
		}
	}

	// Module tier: poison every module entry via the cache's own keys.
	d, err := smartly.ReadJSON(bytes.NewReader(designJSON))
	if err != nil {
		t.Fatal(err)
	}
	flow, err := smartly.NamedFlow("yosys")
	if err != nil {
		t.Fatal(err)
	}
	prime, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys", Mode: api.ModeDesign})
	if code != http.StatusOK {
		t.Fatalf("priming design mode: status %d", code)
	}
	for _, m := range d.Modules() {
		key := cache.ModuleKey{Module: smartly.Hash(m), Flow: flow.Canonical()}
		s.Cache().Put(key.ID(), []byte("{broken"))
	}
	resp, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys", Mode: api.ModeDesign})
	if code != http.StatusOK {
		t.Fatalf("design mode with poisoned modules: status %d, want 200", code)
	}
	if resp.ModuleCache.Misses != 2 {
		t.Errorf("poisoned module entries: stats %+v, want 2 misses (recomputed)", resp.ModuleCache)
	}
	if !bytes.Equal(compactJSON(t, resp.Design), compactJSON(t, prime.Design)) {
		t.Error("recomputed module-sharded bytes differ")
	}
}
