package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/server/api"
)

// testDesignJSON parses a testdata case and returns it as JSON netlist
// bytes — the exact body a client would submit.
func testDesignJSON(t testing.TB, path string) []byte {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := smartly.ParseVerilog(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := smartly.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loopDesignJSON is a one-module netlist whose two cells form a
// combinational loop: y = a & ~y.
func loopDesignJSON(t *testing.T) []byte {
	t.Helper()
	m := smartly.NewModule("loop")
	a := m.AddInput("a", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	m.Connect(y, m.And(a, m.Not(y)))
	d := smartly.NewDesign()
	d.AddModule(m)
	var buf bytes.Buffer
	if err := smartly.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		// A poller can see a job finished while its goroutine is still
		// persisting the terminal record; wait for every admitted job so
		// no record lands after the test's TempDir is removed.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("admitted work still running 30s after Close: %v", err)
		}
	})
	return s, ts
}

// postOptimize submits one optimize request and decodes the response.
func postOptimize(t *testing.T, url string, req api.OptimizeRequest) (*api.OptimizeResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e api.Error
		json.NewDecoder(resp.Body).Decode(&e)
		t.Logf("optimize error: %s", e.Error)
		return nil, resp.StatusCode
	}
	var out api.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

// TestOptimizeMatchesLocalRun is the acceptance check: for every flow
// in the named-flow registry, POST /v1/optimize returns bit-identical
// netlist bytes and identical counters to a local Flow.RunDesign over
// the same submitted JSON.
func TestOptimizeMatchesLocalRun(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, ts := newTestServer(t, Config{})

	for _, name := range smartly.FlowNames() {
		// Local reference run over the same wire bytes the server sees.
		local, err := smartly.ReadJSON(bytes.NewReader(designJSON))
		if err != nil {
			t.Fatal(err)
		}
		flow, err := smartly.NamedFlow(name)
		if err != nil {
			t.Fatal(err)
		}
		localReports, err := flow.RunDesign(local)
		if err != nil {
			t.Fatalf("flow %s: local run: %v", name, err)
		}
		var localOut bytes.Buffer
		if err := smartly.WriteJSON(&localOut, local); err != nil {
			t.Fatal(err)
		}

		resp, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: name})
		if code != http.StatusOK {
			t.Fatalf("flow %s: status %d", name, code)
		}
		// The wire carries compact JSON; compare compacted bytes.
		if !bytes.Equal(compactJSON(t, resp.Design), compactJSON(t, localOut.Bytes())) {
			t.Errorf("flow %s: served netlist differs from local run", name)
		}
		for mod, localRep := range localReports {
			want := fromRunReport(localRep)
			got, ok := resp.Reports[mod]
			if !ok {
				t.Errorf("flow %s: no report for module %s", name, mod)
				continue
			}
			if !reflect.DeepEqual(got.Counters(), want.Counters()) {
				t.Errorf("flow %s/%s: counters differ: got %v want %v",
					name, mod, got.Counters(), want.Counters())
			}
			if got.Changed != want.Changed {
				t.Errorf("flow %s/%s: changed %v want %v", name, mod, got.Changed, want.Changed)
			}
		}
	}
}

func TestRepeatedRequestHitsCache(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	s, ts := newTestServer(t, Config{})

	first, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	if code != http.StatusOK || first.Cache != "miss" {
		t.Fatalf("first request: status %d cache %q", code, first.Cache)
	}
	second, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	if code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if second.Cache != "hit" {
		t.Errorf("second request cache = %q, want hit", second.Cache)
	}
	if second.Key != first.Key {
		t.Errorf("keys differ: %s vs %s", first.Key, second.Key)
	}
	if !bytes.Equal(first.Design, second.Design) {
		t.Error("cached response netlist differs")
	}
	if st := s.Cache().Stats(); st.Hits < 1 {
		t.Errorf("cache hit counter not incremented: %+v", st)
	}
}

// TestCacheKeyCanonicalization submits the same logical request in
// different spellings (shuffled JSON object keys, reordered/noisy flow
// script) and expects one cache entry; a changed option must miss.
func TestCacheKeyCanonicalization(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	doc1 := []byte(`{"creator":"x","modules":{"top":{
	  "ports":{"a":{"direction":"input","bits":[2]},"y":{"direction":"output","bits":[3]}},
	  "netnames":{"a":{"bits":[2]},"y":{"bits":[3]}},
	  "cells":{"n0":{"type":"$not","parameters":{"WIDTH":1},"connections":{"A":[2],"Y":[3]}}}}}}`)
	doc2 := []byte(`{"modules":{"top":{
	  "cells":{"n0":{"connections":{"Y":[3],"A":[2]},"parameters":{"WIDTH":1},"type":"$not"}},
	  "netnames":{"y":{"bits":[3]},"a":{"bits":[2]}},
	  "ports":{"y":{"bits":[3],"direction":"output"},"a":{"bits":[2],"direction":"input"}}}},
	  "creator":"x"}`)

	first, code := postOptimize(t, ts.URL, api.OptimizeRequest{
		Design: doc1, Script: "satmux(conflicts=64, depth=4); opt_clean"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Different JSON key order, different option order and spelling,
	// extra whitespace: must be the same cache entry.
	second, code := postOptimize(t, ts.URL, api.OptimizeRequest{
		Design: doc2, Script: "satmux( depth = 4 ,conflicts=064) ; opt_clean;"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if second.Key != first.Key {
		t.Errorf("canonically equal requests got different keys:\n  %s\n  %s", first.Key, second.Key)
	}
	if second.Cache != "hit" {
		t.Errorf("canonically equal request was a %q, want hit", second.Cache)
	}

	// A different option value must not share the entry.
	third, code := postOptimize(t, ts.URL, api.OptimizeRequest{
		Design: doc1, Script: "satmux(conflicts=65, depth=4); opt_clean"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if third.Key == first.Key || third.Cache != "miss" {
		t.Errorf("different options shared the entry: key %s cache %q", third.Key, third.Cache)
	}
	// Timings change the payload, so they key separately too.
	timed, code := postOptimize(t, ts.URL, api.OptimizeRequest{
		Design: doc1, Script: "satmux(conflicts=64, depth=4); opt_clean", Timings: true})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if timed.Key == first.Key {
		t.Error("timings did not change the cache key")
	}
	if st := s.Cache().Stats(); st.Entries != 3 {
		t.Errorf("expected 3 distinct entries, stats %+v", st)
	}
}

func TestOptimizeErrors(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, ts := newTestServer(t, Config{})

	post := func(req api.OptimizeRequest) (int, string) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e api.Error
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}

	if code, msg := post(api.OptimizeRequest{Flow: "full"}); code != http.StatusBadRequest ||
		!strings.Contains(msg, "no design") {
		t.Errorf("missing design: %d %q", code, msg)
	}
	if code, msg := post(api.OptimizeRequest{Design: designJSON, Flow: "bogus"}); code != http.StatusBadRequest ||
		!strings.Contains(msg, "bogus") {
		t.Errorf("unknown flow: %d %q", code, msg)
	}
	if code, msg := post(api.OptimizeRequest{Design: designJSON, Script: "satmux(gain=2)"}); code != http.StatusBadRequest ||
		!strings.Contains(msg, "unknown option") {
		t.Errorf("bad script: %d %q", code, msg)
	}
	// No script can skip a proof: "verify" is an unknown option.
	if code, msg := post(api.OptimizeRequest{Design: designJSON, Script: "opt_egraph(verify=false)"}); code != http.StatusBadRequest ||
		!strings.Contains(msg, `unknown option "verify"`) {
		t.Errorf("proof switch: %d %q", code, msg)
	}
	if code, msg := post(api.OptimizeRequest{Design: designJSON, Flow: "full", Script: "opt_clean"}); code != http.StatusBadRequest ||
		!strings.Contains(msg, "both") {
		t.Errorf("flow+script: %d %q", code, msg)
	}
	if code, _ := post(api.OptimizeRequest{Design: []byte(`{"modules":{}}`)}); code != http.StatusBadRequest {
		t.Errorf("empty design: %d", code)
	}
	// A well-formed module with a combinational loop fails the flow, in
	// either cache granularity, and the input is at fault.
	loop := loopDesignJSON(t)
	for _, mode := range []string{api.ModeWhole, api.ModeDesign} {
		if code, msg := post(api.OptimizeRequest{Design: loop, Flow: "yosys", Mode: mode}); code != http.StatusBadRequest ||
			!strings.Contains(msg, "combinational loop") {
			t.Errorf("combinational loop, mode %s: %d %q", mode, code, msg)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d", resp.StatusCode)
	}
}

// TestMalformedDesignsRejectedNotPanic: netlists that decode but break
// IR invariants (or panic the engine) must produce JSON error
// responses, and the server must keep serving afterwards — a panic
// must never wedge the key's in-flight entry.
func TestMalformedDesignsRejectedNotPanic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	malformed := map[string]string{
		"zero-width wire": `{"modules":{"top":{"ports":{},"netnames":{"w":{"bits":[]}},"cells":{}}}}`,
		"width mismatch": `{"modules":{"top":{"ports":{},
		  "netnames":{"a":{"bits":[2]},"b":{"bits":[3,4]}},
		  "cells":{},"connections":[[[2],[3,4]]]}}}`,
		"empty mux connections": `{"modules":{"top":{"ports":{},
		  "netnames":{"a":{"bits":[2]}},
		  "cells":{"c":{"type":"$mux","parameters":{},"connections":{}}}}}}`,
	}
	for name, doc := range malformed {
		// Twice: a panicking first request must not wedge the second.
		for i := 0; i < 2; i++ {
			body, _ := json.Marshal(api.OptimizeRequest{Design: []byte(doc), Flow: "yosys"})
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s (attempt %d): transport error %v (handler panicked?)", name, i, err)
			}
			var e api.Error
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode < 400 || e.Error == "" {
				t.Errorf("%s (attempt %d): status %d error %q", name, i, resp.StatusCode, e.Error)
			}
		}
	}
	// The server still works.
	good, code := postOptimize(t, ts.URL, api.OptimizeRequest{
		Design: testDesignJSON(t, "../../testdata/fig3.v"), Flow: "yosys"})
	if code != http.StatusOK || good == nil {
		t.Fatalf("healthy request after malformed ones: status %d", code)
	}
}

func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1, QueueDepth: 1})
	// Occupy the whole queue: one token in the run semaphore plus the
	// single admission, as an in-flight slow request would.
	s.sem <- struct{}{}
	release, err := s.admit()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { release(); <-s.sem }()

	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	if code != http.StatusServiceUnavailable {
		t.Errorf("saturated server answered %d, want 503", code)
	}
}

func TestAsyncJobRoundTrip(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	s, ts := newTestServer(t, Config{})

	sync, code := postOptimize(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "full"})
	if code != http.StatusOK {
		t.Fatalf("sync run: %d", code)
	}

	body, _ := json.Marshal(api.OptimizeRequest{Design: designJSON, Flow: "full", Async: true})
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job api.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("async submit: %d %+v", resp.StatusCode, job)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Errorf("Location = %q", loc)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if job.State == api.JobDone || job.State == api.JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 30s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != api.JobDone || job.Result == nil {
		t.Fatalf("job finished as %s (error %q)", job.State, job.Error)
	}
	// The async result was served from the cache the sync run filled,
	// and is byte-identical to it.
	if job.Result.Cache != "hit" {
		t.Errorf("async result cache = %q, want hit", job.Result.Cache)
	}
	if !bytes.Equal(job.Result.Design, sync.Design) {
		t.Error("async netlist differs from sync run")
	}

	// Graceful drain finds no work left.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestRegistryEndpointsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var flows []api.FlowInfo
	getJSON(t, ts.URL+"/v1/flows", &flows)
	names := map[string]bool{}
	for _, f := range flows {
		names[f.Name] = true
		if f.Script == "" || f.Canonical == "" {
			t.Errorf("flow %s has empty script/canonical", f.Name)
		}
	}
	for _, want := range []string{"yosys", "sat", "rebuild", "full"} {
		if !names[want] {
			t.Errorf("flow %s missing from /v1/flows", want)
		}
	}

	var passes []api.PassInfo
	getJSON(t, ts.URL+"/v1/passes", &passes)
	found := map[string]api.PassInfo{}
	for _, p := range passes {
		found[p.Name] = p
	}
	if p, ok := found["satmux"]; !ok || len(p.Options) == 0 {
		t.Errorf("satmux missing or optionless in /v1/passes: %+v", p)
	}

	var h api.Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Errorf("healthz status %q", h.Status)
	}
	if h.Cache.MaxBytes == 0 {
		t.Errorf("healthz cache stats empty: %+v", h.Cache)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestDiskTierAcrossServers restarts the server over the same cache
// directory and expects a warm start.
func TestDiskTierAcrossServers(t *testing.T) {
	dir := t.TempDir()
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")

	c1, err := cache.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Cache: c1})
	first, code := postOptimize(t, ts1.URL, api.OptimizeRequest{Design: designJSON, Flow: "full"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}

	c2, err := cache.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Cache: c2})
	second, code := postOptimize(t, ts2.URL, api.OptimizeRequest{Design: designJSON, Flow: "full"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if second.Cache != "hit" {
		t.Errorf("restarted server cache = %q, want hit from disk tier", second.Cache)
	}
	if !bytes.Equal(first.Design, second.Design) {
		t.Error("disk-tier payload differs")
	}
}

// compactJSON normalizes JSON bytes for byte-level comparison.
func compactJSON(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
