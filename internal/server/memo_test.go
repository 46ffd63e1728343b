package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/server/api"
)

// rawBody builds an optimize request body around the design bytes as
// given: json.Marshal of an OptimizeRequest would compact them.
func rawBody(design []byte, fields string) []byte {
	return []byte(fmt.Sprintf(`{"design":%s,%s}`, design, fields))
}

// postRaw posts one optimize body and returns the status and the
// response body.
func postRaw(t testing.TB, h http.Handler, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// marshalBody is what encoding the decoded response again gives: the
// body json.Marshal would write for it.
func marshalBody(t *testing.T, body []byte, zeroElapsed bool) (*api.OptimizeResponse, []byte) {
	t.Helper()
	var resp api.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if zeroElapsed {
		resp.ElapsedMS = 0
	}
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return &resp, append(out, '\n')
}

// TestSyncBodyIsMarshal is the wire-byte check of the whole-mode
// writer: for a miss, a fast-path hit, a slow-path hit and a bypass,
// with and without timings, the spliced body is json.Marshal of the
// decoded response plus a newline, and the fast path's body equals
// the slow path's apart from elapsed_ms.
func TestSyncBodyIsMarshal(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	// The same design in other bytes: the memo misses it, the cache
	// key does not.
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, designJSON, "", "\t"); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(spaced.Bytes(), designJSON) {
		t.Fatal("re-indenting left the design bytes as they were")
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()

	for _, timings := range []bool{false, true} {
		fields := fmt.Sprintf(`"flow":"yosys","timings":%t`, timings)
		bodies := map[string][]byte{}
		for _, c := range []struct {
			name, cache string
			design      []byte
			noCache     bool
		}{
			{"miss", "miss", designJSON, false},
			{"fast hit", "hit", designJSON, false},
			{"slow hit", "hit", spaced.Bytes(), false},
			{"bypass", "bypass", designJSON, true},
		} {
			code, body := postRaw(t, h, rawBody(c.design, fmt.Sprintf(`%s,"no_cache":%t`, fields, c.noCache)))
			if code != http.StatusOK {
				t.Fatalf("timings=%t %s: status %d: %s", timings, c.name, code, body)
			}
			resp, want := marshalBody(t, body, false)
			if !bytes.Equal(body, want) {
				t.Errorf("timings=%t %s: body\n%s\nis not json.Marshal of itself\n%s", timings, c.name, body, want)
			}
			if resp.Cache != c.cache || resp.Mode != api.ModeWhole {
				t.Errorf("timings=%t %s: cache %q mode %q, want %q whole", timings, c.name, resp.Cache, resp.Mode, c.cache)
			}
			if timings != (resp.Reports["fig3"].DurationNS > 0) {
				t.Errorf("timings=%t %s: report duration %d", timings, c.name, resp.Reports["fig3"].DurationNS)
			}
			_, bodies[c.name] = marshalBody(t, body, true)
		}
		if !bytes.Equal(bodies["fast hit"], bodies["slow hit"]) {
			t.Errorf("timings=%t: fast-path body\n%s\ndiffers from the slow path's\n%s", timings, bodies["fast hit"], bodies["slow hit"])
		}
		miss, _ := marshalBody(t, bodies["miss"], true)
		bypass, _ := marshalBody(t, bodies["bypass"], true)
		if !bytes.Equal(miss.Design, bypass.Design) {
			t.Errorf("timings=%t: bypass design differs from the miss's", timings)
		}
	}

	// Each request ran its stages, and they sum to its span: two memo
	// misses (miss, slow hit) per timings value parse, the fast hits do
	// not, the bypasses parse without consulting the memo.
	m := s.metricsSummary()
	if got := m.Stages["memo"].Count; got != 6 {
		t.Errorf("memo stage count %d, want 6", got)
	}
	if got := m.Stages["parse"].Count; got != 6 {
		t.Errorf("parse stage count %d, want 6", got)
	}
	var sum float64
	for _, name := range api.RequestStages {
		sum += m.Stages[name].SumMS
	}
	if span := m.OptimizeSync.SumMS; span+1e-6 < sum || span > sum+1e-6 {
		t.Errorf("stage sums %.6fms differ from the sync span sum %.6fms", sum, span)
	}
}

// TestMemoFastPathAdmission: a memo hit takes the same admission and
// run slot as any sync request, so a client that gives up in the queue
// gets 499 and a draining server 503.
func TestMemoFastPathAdmission(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	s := New(Config{Jobs: 1})
	defer s.Close()
	body := rawBody(designJSON, `"flow":"yosys"`)
	if code, out := postRaw(t, s.Handler(), body); code != http.StatusOK {
		t.Fatalf("priming: status %d: %s", code, out)
	}
	var req api.OptimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	key, ok := s.memo.get(memoDigest(req, api.ModeWhole))
	if !ok {
		t.Fatal("priming request left no memo entry")
	}

	s.sem <- struct{}{} // occupy the only run slot
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	_, _, err := s.serveMemo(ctx, key, newStageClock())
	<-s.sem
	if got := errStatus(err); got != statusClientClosedRequest {
		t.Errorf("fast path with the client gone: %v (status %d), want 499", err, got)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, out := postRaw(t, s.Handler(), body); code != http.StatusServiceUnavailable {
		t.Errorf("fast path on a draining server: status %d (%s), want 503", code, out)
	}
}

// TestMemoFallbackCountsOnce: a memo hit whose entry left the cache
// falls back to the slow path, which recomputes it; the cache counts
// that one miss once.
func TestMemoFallbackCountsOnce(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	s := New(Config{})
	defer s.Close()
	body := rawBody(designJSON, `"flow":"yosys"`)
	code, out := postRaw(t, s.Handler(), body)
	if code != http.StatusOK {
		t.Fatalf("priming: status %d: %s", code, out)
	}
	var prime api.OptimizeResponse
	if err := json.Unmarshal(out, &prime); err != nil {
		t.Fatal(err)
	}
	s.Cache().Delete(prime.Key)
	before := s.Cache().Stats()
	code, out = postRaw(t, s.Handler(), body)
	after := s.Cache().Stats()
	if code != http.StatusOK {
		t.Fatalf("resubmission: status %d: %s", code, out)
	}
	resp, _ := marshalBody(t, out, false)
	if resp.Cache != "miss" || !bytes.Equal(resp.Design, prime.Design) {
		t.Errorf("resubmission of an evicted entry served as %q (same design: %v), want a recomputed miss",
			resp.Cache, bytes.Equal(resp.Design, prime.Design))
	}
	if d := (cache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}); d != (cache.Stats{Misses: 1}) {
		t.Errorf("fallback counted %+v, want one miss", d)
	}
	if m := s.metricsSummary(); m.Stages["memo"].Count != 2 || m.Stages["parse"].Count != 2 {
		t.Errorf("memo %d, parse %d: want both requests through the memo, and both parsed",
			m.Stages["memo"].Count, m.Stages["parse"].Count)
	}
}

// TestKeyMemoBounded: the memo keeps its newest memoEntries digests,
// and no entry whose flow script is beyond memoMaxFlow.
func TestKeyMemoBounded(t *testing.T) {
	var m keyMemo
	digest := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte(fmt.Sprint(i))) }
	for i := 0; i < memoEntries+10; i++ {
		m.put(digest(i), cache.Key{Netlist: fmt.Sprint(i)})
	}
	if len(m.keys) != memoEntries {
		t.Fatalf("memo holds %d entries, want %d", len(m.keys), memoEntries)
	}
	for _, i := range []int{0, 9} {
		if _, ok := m.get(digest(i)); ok {
			t.Errorf("entry %d survived %d newer ones", i, memoEntries)
		}
	}
	for _, i := range []int{10, memoEntries + 9} {
		if k, ok := m.get(digest(i)); !ok || k.Netlist != fmt.Sprint(i) {
			t.Errorf("entry %d: %+v %v", i, k, ok)
		}
	}
	m.put(digest(-1), cache.Key{Flow: strings.Repeat("x", memoMaxFlow+1)})
	if _, ok := m.get(digest(-1)); ok {
		t.Error("memoized a key whose flow exceeds memoMaxFlow")
	}
}

// TestDecodePayloadRejects: what does not have the payload layout, or
// is not valid JSON inside it, does not decode.
func TestDecodePayloadRejects(t *testing.T) {
	for _, raw := range []string{
		``, `not json`, `{broken`, `{"design":`, `{"design":{}`,
		`{"design":{},"reports":{}`, `{"design":{},"reports":{}}x`,
		`{"design":{"a":tru},"reports":{}}`, `{"design":{"a":"}"},"reports":[1]}`,
		`{"reports":{},"design":{}}`, `{"design":null,"reports":{}}`,
		`{"design":{"a":"\"}"},"reports":{"m":{"changed":"yes"}}}`,
	} {
		if _, err := decodePayload([]byte(raw), &api.OptimizeResponse{}); err == nil {
			t.Errorf("payload %q decoded", raw)
		}
	}
	var resp api.OptimizeResponse
	raw := `{"design":{"a":"\\\"}{[","b":[{}]},"reports":{"m":{"changed":true}}}`
	reports, err := decodePayload([]byte(raw), &resp)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Design) != `{"a":"\\\"}{[","b":[{}]}` || string(reports) != `{"m":{"changed":true}}` || !resp.Reports["m"].Changed {
		t.Errorf("split %q into design %q, reports %q (%+v)", raw, resp.Design, reports, resp.Reports)
	}
}

// FuzzOptimizeHandler posts arbitrary designs under the yosys flow
// (bounded work) in any mode, with and without timings and the cache,
// twice each. No answer may be a 5xx other than 503; the second answer
// must have the first's status and, on 200, its key and design bytes,
// served from the cache unless no_cache is set.
func FuzzOptimizeHandler(f *testing.F) {
	// Compact seeds, as clients send them: the minimizer would run a
	// whole optimization for every whitespace byte of an indented one.
	seed := func(path string) []byte {
		var buf bytes.Buffer
		if err := json.Compact(&buf, testDesignJSON(f, "../../testdata/"+path)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, path := range []string{"fig3.v", "case4.v", "seqpipe.v", "seqconst.v", "corpus/fsm.v"} {
		f.Add(seed(path), "", false, false)
	}
	f.Add(seed("fig3.v"), api.ModeDesign, true, false)
	f.Add(seed("case4.v"), api.ModeWhole, false, true)
	f.Add([]byte(`{"modules":{}}`), "", false, false)
	f.Add([]byte(`null`), "bogus", false, false)
	c, err := cache.New(8<<20, "")
	if err != nil {
		f.Fatal(err)
	}
	s := New(Config{Cache: c, Jobs: 1, Workers: 1})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, design []byte, mode string, timings, noCache bool) {
		modeJSON, _ := json.Marshal(mode)
		body := rawBody(design, fmt.Sprintf(`"flow":"yosys","mode":%s,"timings":%t,"no_cache":%t`, modeJSON, timings, noCache))
		code1, out1 := postRaw(t, h, body)
		code2, out2 := postRaw(t, h, body)
		for _, a := range []struct {
			code int
			out  []byte
		}{{code1, out1}, {code2, out2}} {
			if a.code >= 500 && a.code != http.StatusServiceUnavailable {
				t.Fatalf("status %d: %s", a.code, a.out)
			}
		}
		if code1 != code2 {
			t.Fatalf("status %d, then %d on the same body (%s / %s)", code1, code2, out1, out2)
		}
		if code1 != http.StatusOK {
			return
		}
		var r1, r2 api.OptimizeResponse
		for _, d := range []struct {
			out []byte
			r   *api.OptimizeResponse
		}{{out1, &r1}, {out2, &r2}} {
			if err := json.Unmarshal(d.out, d.r); err != nil {
				t.Fatalf("decoding %q: %v", d.out, err)
			}
		}
		if r1.Key != r2.Key || !bytes.Equal(r1.Design, r2.Design) {
			t.Fatalf("resubmission answered key %s, design %q; first %s, %q", r2.Key, r2.Design, r1.Key, r1.Design)
		}
		want := "hit"
		if noCache {
			want = "bypass"
		}
		if r2.Cache != want {
			t.Fatalf("resubmission served as %q, want %q", r2.Cache, want)
		}
	})
}
