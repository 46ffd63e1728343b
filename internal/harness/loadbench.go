package harness

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/client"
	"repro/internal/genbench"
	"repro/internal/rtlil"
	"repro/internal/server"
	"repro/internal/server/api"
)

// LoadBench measures the serving layer under concurrent load: n
// clients drive a mixed workload — cold whole-design requests (cache
// bypassed, the full optimization runs), warm requests (result-cache
// hits) and warm design-mode resubmissions (module-sharded hits) —
// against one in-process smartlyd, and the bench reports throughput
// plus client-side p50/p95/p99 per class. ServerSync carries the
// daemon's own optimize-latency histogram summary over the same
// requests, so the harness (and its e2e test) can cross-check the
// /metrics instrumentation against sort-based client-side truth. It is
// attached to the bench JSON under "load".
type LoadBench struct {
	Case    string  `json:"case"`
	Flow    string  `json:"flow"`
	Scale   float64 `json:"scale"`
	Clients int     `json:"clients"`
	// Rounds is how many times each client repeats the per-round
	// schedule (one cold, three warm, one design-mode warm request).
	Rounds int `json:"rounds"`
	// Modules is the module count of the design-mode workload.
	Modules int `json:"modules"`
	// ElapsedMS is the measured phase's wall clock (priming excluded);
	// ThroughputRPS is completed requests per second across clients.
	ElapsedMS     float64 `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Classes holds client-side latency percentiles per workload class
	// ("cold", "warm", "design"), plus "all" — every request of the
	// run including the two priming requests, the exact population the
	// server's sync histogram observed.
	Classes []LoadClass `json:"classes"`
	// ServerSync is the daemon's optimize_sync latency summary from
	// /healthz after the run: histogram-estimated percentiles over the
	// same requests the "all" class measured from the client side.
	ServerSync api.LatencySummary `json:"server_sync"`
	// Stages splits ServerSync by request stage, in api.RequestStages
	// order: a warm request skips parse, validate and hash, which is
	// where its time went before.
	Stages []LoadStage `json:"stages"`
}

// LoadStage is the daemon's digest of one request stage over the run:
// how many requests ran it, the histogram-estimated p50/p99 and the
// exact sum.
type LoadStage struct {
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	SumMS float64 `json:"sum_ms"`
}

// LoadClass is one workload class's client-side latency digest.
type LoadClass struct {
	Class    string  `json:"class"`
	Requests int     `json:"requests"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// loadSchedule is each client's per-round request mix: mostly warm
// traffic with a cold and a design-mode request threaded through, the
// shape a fleet cache sees in steady state.
var loadSchedule = []string{"cold", "warm", "warm", "design", "warm"}

// RunLoadBench generates the workload designs, spins up one in-process
// serving stack and drives it with the given number of concurrent
// clients for the given rounds (min 1; clients < 1 defaults to 4).
func RunLoadBench(caseName string, clients int, flow string, scale float64, rounds int) (LoadBench, error) {
	if clients < 1 {
		clients = 4
	}
	if rounds < 1 {
		rounds = 1
	}
	const modules = 4
	out := LoadBench{
		Case: caseName, Flow: flow, Scale: scale,
		Clients: clients, Rounds: rounds, Modules: modules,
	}

	var recipe *genbench.Recipe
	for _, r := range genbench.Recipes() {
		if r.Name == caseName {
			recipe = &r
			break
		}
	}
	if recipe == nil {
		return out, fmt.Errorf("harness: unknown benchmark case %q for load bench", caseName)
	}
	m := genbench.Generate(*recipe, scale)
	d := rtlil.NewDesign()
	d.AddModule(m)
	var buf bytes.Buffer
	if err := rtlil.WriteJSON(&buf, d); err != nil {
		return out, err
	}
	wholeJSON := buf.Bytes()
	shard := genbench.GenerateDesign(genbench.DesignRecipe{Name: "load_shard", Modules: modules, Seed: 43}, scale)
	buf.Reset()
	if err := rtlil.WriteJSON(&buf, shard); err != nil {
		return out, err
	}
	shardJSON := buf.Bytes()

	// The queue must absorb every client at once: the bench measures
	// latency under saturation, not the 503 path.
	s := server.New(server.Config{QueueDepth: 4*clients + 16})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	cl := client.New(ts.URL)

	var mu sync.Mutex
	latencies := map[string][]float64{}
	record := func(class string, el time.Duration) {
		mu.Lock()
		latencies[class] = append(latencies[class], toMS(el))
		latencies["all"] = append(latencies["all"], toMS(el))
		mu.Unlock()
	}
	post := func(class string) error {
		req := api.OptimizeRequest{Design: wholeJSON, Flow: flow}
		switch class {
		case "cold":
			req.NoCache = true
		case "design":
			req.Design = shardJSON
			req.Mode = api.ModeDesign
		}
		start := time.Now()
		resp, err := cl.Optimize(context.Background(), req)
		el := time.Since(start)
		if err != nil {
			return fmt.Errorf("harness: %s request: %w", class, err)
		}
		switch class {
		case "cold":
			if resp.Cache != "bypass" {
				return fmt.Errorf("harness: cold request served as %q", resp.Cache)
			}
		case "warm":
			if resp.Cache != "hit" {
				return fmt.Errorf("harness: warm request served as %q, want hit", resp.Cache)
			}
		case "design":
			if err := wantModuleCache(resp, modules, 0); err != nil {
				return fmt.Errorf("harness: design request: %w", err)
			}
		}
		record(class, el)
		return nil
	}

	// Priming: one whole-mode miss and one design-mode all-miss fill
	// the cache, so every later warm request must hit. Their latencies
	// land in "all" only — the server's histogram sees them too.
	for _, prime := range []api.OptimizeRequest{
		{Design: wholeJSON, Flow: flow},
		{Design: shardJSON, Flow: flow, Mode: api.ModeDesign},
	} {
		start := time.Now()
		resp, err := cl.Optimize(context.Background(), prime)
		el := time.Since(start)
		if err != nil {
			return out, fmt.Errorf("harness: priming request: %w", err)
		}
		if resp.Cache == "hit" {
			return out, fmt.Errorf("harness: priming request unexpectedly hit")
		}
		mu.Lock()
		latencies["all"] = append(latencies["all"], toMS(el))
		mu.Unlock()
	}

	errc := make(chan error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, class := range loadSchedule {
					if err := post(class); err != nil {
						errc <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	if err := <-errc; err != nil {
		return out, err
	}

	measured := clients * rounds * len(loadSchedule)
	out.ElapsedMS = toMS(elapsed)
	out.ThroughputRPS = float64(measured) / elapsed.Seconds()
	for _, class := range []string{"cold", "warm", "design", "all"} {
		out.Classes = append(out.Classes, digestClass(class, latencies[class]))
	}

	// The daemon's own view of the same run, for the cross-check.
	health, err := cl.Health(context.Background())
	if err != nil {
		return out, err
	}
	if health.Metrics == nil {
		return out, fmt.Errorf("harness: /healthz has no metrics summary")
	}
	out.ServerSync = health.Metrics.OptimizeSync
	for _, name := range api.RequestStages {
		st, ok := health.Metrics.Stages[name]
		if !ok {
			return out, fmt.Errorf("harness: /healthz has no %q stage", name)
		}
		out.Stages = append(out.Stages, LoadStage{
			Stage: name, Count: st.Count, P50MS: st.P50MS, P99MS: st.P99MS, SumMS: st.SumMS,
		})
	}
	return out, nil
}

// Stage returns the named stage digest (nil when absent).
func (b LoadBench) Stage(name string) *LoadStage {
	for i := range b.Stages {
		if b.Stages[i].Stage == name {
			return &b.Stages[i]
		}
	}
	return nil
}

// digestClass sorts one class's samples and reads the percentiles the
// exact way (rank = ceil(q*n)) — the reference the histogram estimates
// are judged against.
func digestClass(class string, ms []float64) LoadClass {
	out := LoadClass{Class: class, Requests: len(ms)}
	if len(ms) == 0 {
		return out
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		return sorted[rank-1]
	}
	out.P50MS = at(0.50)
	out.P95MS = at(0.95)
	out.P99MS = at(0.99)
	out.MaxMS = sorted[len(sorted)-1]
	return out
}

// Class returns the named class digest (nil when absent).
func (b LoadBench) Class(name string) *LoadClass {
	for i := range b.Classes {
		if b.Classes[i].Class == name {
			return &b.Classes[i]
		}
	}
	return nil
}

// String renders the bench result for the human-readable table mode.
func (b LoadBench) String() string {
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "Concurrent load (%s, flow=%s, scale=%g, %d clients x %d rounds): %.1f req/s over %.0fms\n",
		b.Case, b.Flow, b.Scale, b.Clients, b.Rounds, b.ThroughputRPS, b.ElapsedMS)
	for _, c := range b.Classes {
		fmt.Fprintf(&sb, "  %-6s n=%-4d p50 %8.3fms  p95 %8.3fms  p99 %8.3fms  max %8.3fms\n",
			c.Class, c.Requests, c.P50MS, c.P95MS, c.P99MS, c.MaxMS)
	}
	fmt.Fprintf(&sb, "  server optimize_sync: n=%d p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		b.ServerSync.Count, b.ServerSync.P50MS, b.ServerSync.P95MS, b.ServerSync.P99MS, b.ServerSync.MaxMS)
	for _, st := range b.Stages {
		fmt.Fprintf(&sb, "    stage %-8s n=%-4d p50 %8.3fms  p99 %8.3fms\n", st.Stage, st.Count, st.P50MS, st.P99MS)
	}
	return sb.String()
}
