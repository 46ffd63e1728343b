package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/server/api"
)

// postAsync submits one async optimize request and returns the 202 job.
func postAsync(t *testing.T, url string, req api.OptimizeRequest) api.Job {
	t.Helper()
	req.Async = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job api.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("async submit: %d %+v", resp.StatusCode, job)
	}
	return job
}

// pollJob polls one job until it reaches a terminal state.
func pollJob(t *testing.T, url, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job api.Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch job.State {
		case api.JobDone, api.JobFailed, api.JobResultEvicted:
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManyAsyncJobsRehydrateFromStore is the regression test for the
// silent async result loss: well past maxRetainedResults concurrent
// jobs, every single one must still poll as done with a non-nil result
// — the durable store re-hydrates what the in-memory pruner dropped.
func TestManyAsyncJobsRehydrateFromStore(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, ts := newTestServer(t, Config{
		Jobs: 2, QueueDepth: 64, JobsDir: filepath.Join(t.TempDir(), "jobs"),
	})

	const n = maxRetainedResults + 8 // 40 > the 32 retained payloads
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := api.OptimizeRequest{Design: designJSON, Flow: "yosys", Async: true}
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var job api.Job
			if json.NewDecoder(resp.Body).Decode(&job) == nil {
				ids[i] = job.ID
			}
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			t.Fatalf("job %d was not accepted", i)
		}
	}
	for _, id := range ids {
		j := pollJob(t, ts.URL, id)
		if j.State != api.JobDone {
			t.Fatalf("job %s finished as %s (%s)", id, j.State, j.Error)
		}
		if j.Result == nil {
			t.Fatalf("job %s is done with a nil result (payload lost)", id)
		}
	}
}

// TestEvictedResultsDistinctStateWithoutStore: with no durable store,
// pruned payloads cannot re-hydrate — the job must then report the
// distinct result_evicted state, and no poll may ever observe "done"
// with a nil result.
func TestEvictedResultsDistinctStateWithoutStore(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, ts := newTestServer(t, Config{Jobs: 2, QueueDepth: 64})

	const n = maxRetainedResults + 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = postAsync(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"}).ID
	}
	evicted := 0
	for _, id := range ids {
		j := pollJob(t, ts.URL, id)
		switch j.State {
		case api.JobDone:
			if j.Result == nil {
				t.Fatalf("job %s: done with nil result — the silent-loss bug", id)
			}
		case api.JobResultEvicted:
			evicted++
			if j.Result != nil {
				t.Errorf("job %s: result_evicted but carries a result", id)
			}
			if j.Error == "" {
				t.Errorf("job %s: result_evicted without an explanatory error", id)
			}
		default:
			t.Fatalf("job %s finished as %s (%s)", id, j.State, j.Error)
		}
	}
	if evicted == 0 {
		t.Fatalf("no job reported result_evicted across %d jobs (retention %d)", n, maxRetainedResults)
	}
}

// TestDrainStopsAdmission is the regression test for the drain
// livelock: Drain must complete while clients keep submitting, because
// it stops admission first — the pre-fix code waited on a WaitGroup
// that a steady request stream kept bumping forever.
func TestDrainStopsAdmission(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	s, ts := newTestServer(t, Config{Jobs: 2})

	// A steady stream of submitters, the workload that livelocked Drain.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the stream establish

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain under a steady request stream: %v", err)
	}
	close(stop)
	wg.Wait()

	// A draining server refuses new work with 503.
	body, _ := json.Marshal(api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server answered %d, want 503", resp.StatusCode)
	}
}

// TestClientGoneMapsTo499: a sync request abandoned by its own client
// while waiting for a run slot must surface as errClientGone (499), not
// as the 503 that makes a healthy server look unavailable; server
// shutdown keeps mapping to 503.
func TestClientGoneMapsTo499(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	s.sem <- struct{}{} // occupy the only run slot
	defer func() { <-s.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	_, err := s.runSlot(ctx)
	var gone errClientGone
	if !errors.As(err, &gone) {
		t.Fatalf("runSlot returned %v, want errClientGone", err)
	}
	if got := errStatus(err); got != statusClientClosedRequest {
		t.Errorf("errStatus = %d, want 499", got)
	}
	// Shutdown cancellation still reads as unavailability.
	if got := errStatus(fmt.Errorf("module m: %w", context.Canceled)); got != http.StatusServiceUnavailable {
		t.Errorf("errStatus(server cancel) = %d, want 503", got)
	}
}

// failWriter fails every write, as a client that hung up mid-response
// does.
type failWriter struct{ header http.Header }

func (f *failWriter) Header() http.Header       { return f.header }
func (f *failWriter) WriteHeader(int)           {}
func (f *failWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

func TestWriteJSONLogsEncodeFailure(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	s := New(Config{Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	defer s.Close()
	s.writeJSON(&failWriter{header: http.Header{}}, http.StatusOK, api.Error{Error: "x"})
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "writing response") {
			return
		}
	}
	t.Errorf("encode failure not logged; logs: %q", logs)
}

// TestJobEventsStream: the SSE endpoint streams lifecycle transitions
// and per-pass progress in seq order, replays history to late
// subscribers, resumes past Last-Event-ID without duplicates, and ends
// at the terminal state.
func TestJobEventsStream(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, ts := newTestServer(t, Config{})

	// NoCache forces a real computation, so pass events must appear.
	job := postAsync(t, ts.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys", NoCache: true})
	evs := readEvents(t, ts.URL, job.ID, 0)

	var states []string
	passes, lastSeq := 0, 0
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case api.EventState:
			states = append(states, ev.State)
		case api.EventPass:
			passes++
			if ev.Pass == "" || ev.Module == "" || ev.Calls < 1 {
				t.Errorf("malformed pass event: %+v", ev)
			}
		}
	}
	want := []string{api.JobQueued, api.JobRunning, api.JobDone}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Errorf("lifecycle %v, want %v", states, want)
	}
	if passes == 0 {
		t.Error("no pass events from an uncached computation")
	}

	// Resuming past the first half replays only the rest.
	mid := evs[len(evs)/2].Seq
	tail := readEvents(t, ts.URL, job.ID, mid)
	if len(tail) != len(evs)-len(evs)/2-1 {
		t.Errorf("resume after seq %d replayed %d events, want %d", mid, len(tail), len(evs)-len(evs)/2-1)
	}
	for _, ev := range tail {
		if ev.Seq <= mid {
			t.Errorf("resume re-delivered seq %d <= %d", ev.Seq, mid)
		}
	}

	// Unknown jobs 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events of unknown job: %d, want 404", resp.StatusCode)
	}
}

// readEvents consumes one SSE stream to its server-side close.
func readEvents(t *testing.T, url, id string, after int) []api.JobEvent {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", url, id, after), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var evs []api.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.JobEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestCachePeerEndpoints exercises the wire protocol replicas share
// entries over: framed GET/PUT with checksum validation, on the plain
// hex content-hash ids the protocol is restricted to.
func TestCachePeerEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	idA := strings.Repeat("ab", 32) // well-formed 64-char hex ids
	idB := strings.Repeat("cd", 32)
	idAbsent := strings.Repeat("ef", 32)

	resp, err := http.Get(ts.URL + "/v1/cache/" + idAbsent)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("absent entry: %d, want 404", resp.StatusCode)
	}

	put := func(id string, body []byte) int {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+id, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(idA, cache.Frame([]byte("payload"))); code != http.StatusNoContent {
		t.Fatalf("put: %d, want 204", code)
	}
	if code := put(idB, []byte("unframed junk")); code != http.StatusBadRequest {
		t.Errorf("malformed put: %d, want 400", code)
	}

	resp, err = http.Get(ts.URL + "/v1/cache/" + idA)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after put: %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	val, ok := cache.Unframe(buf.Bytes())
	if !ok || string(val) != "payload" {
		t.Fatalf("served entry unframed=%v %q", ok, val)
	}
}

// TestCachePeerRejectsNonHashIDs: the unauthenticated peer endpoints
// must refuse any id that is not a plain hex content hash *before* any
// tier sees it. ServeMux percent-decodes path values, so a crafted
// "..%2f..%2f" id reaches the handler carrying real traversal segments
// — pre-fix, PUT wrote attacker-controlled bytes to arbitrary
// daemon-writable paths through the disk tier's filepath.Join.
func TestCachePeerRejectsNonHashIDs(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	c, err := cache.New(0, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: c})

	evil := []string{
		"..%2f..%2f..%2ftmp%2fpwned",              // decoded: ../../../tmp/pwned
		"..%5c..%5cpwned",                         // backslash flavor
		"%2e%2e%2fjobs%2fpwned",                   // fully encoded dots
		"short",                                   // not a hash at all
		strings.Repeat("ab", 32) + "%2fx",         // valid hash + trailing segment
		strings.ToUpper(strings.Repeat("ab", 32)), // uppercase hex is not canonical
	}
	for _, id := range evil {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+id,
			bytes.NewReader(cache.Frame([]byte("owned"))))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %s: %d, want 400", id, resp.StatusCode)
		}
		getResp, err := http.Get(ts.URL + "/v1/cache/" + id)
		if err != nil {
			t.Fatal(err)
		}
		getResp.Body.Close()
		if getResp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: %d, want 400", id, getResp.StatusCode)
		}
	}
	// Nothing escaped the cache directory: the tempdir holds only the
	// (empty) cache tree, and no "pwned" file exists anywhere under it.
	root := filepath.Dir(cacheDir)
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if strings.Contains(path, "pwned") || (!info.IsDir() && strings.Contains(path, "owned")) {
			t.Errorf("traversal artifact on disk: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEventResumeAcrossRestart: event ids are epoch-qualified so a
// subscriber resuming with a pre-restart Last-Event-ID cannot skip the
// adopted job's events — the restarted daemon's stream starts over at
// seq 1 under a higher epoch, and a stale position must replay it from
// the start. Pre-fix, the seq counter silently restarted at 1 and a
// resume past any pre-restart seq waited forever on events that would
// never come.
func TestEventResumeAcrossRestart(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	jobsDir := filepath.Join(t.TempDir(), "jobs")

	s1, ts1 := newTestServer(t, Config{JobsDir: jobsDir})
	job := postAsync(t, ts1.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys", NoCache: true})
	if st := pollJob(t, ts1.URL, job.ID); st.State != api.JobDone {
		t.Fatalf("job finished as %s (%s)", st.State, st.Error)
	}
	evs1 := readEvents(t, ts1.URL, job.ID, 0)
	if len(evs1) < 3 {
		t.Fatalf("first incarnation streamed %d events", len(evs1))
	}
	for _, ev := range evs1 {
		if ev.Epoch != 1 {
			t.Fatalf("fresh job event with epoch %d, want 1", ev.Epoch)
		}
	}
	last := evs1[len(evs1)-1]
	s1.Close()

	_, ts2 := newTestServer(t, Config{JobsDir: jobsDir})
	// Resume with the pre-restart position, epoch-qualified the way the
	// SSE ids carried it. The adopted (done) job's stream holds exactly
	// one terminal event at epoch 2, seq 1 — far "behind" last.Seq — and
	// the stale-epoch position must still receive it.
	req, err := http.NewRequest(http.MethodGet, ts2.URL+"/v1/jobs/"+job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprintf("%d-%d", last.Epoch, last.Seq))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs2 []api.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.JobEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		evs2 = append(evs2, ev)
	}
	if len(evs2) == 0 {
		t.Fatal("stale-epoch resume delivered no events (the pre-fix hang)")
	}
	final := evs2[len(evs2)-1]
	if final.Epoch != last.Epoch+1 || final.Type != api.EventState || final.State != api.JobDone {
		t.Errorf("post-restart terminal event %+v, want epoch %d done", final, last.Epoch+1)
	}
}

// TestTwoReplicasSharedCacheTier: replica B, pointed at replica A via
// the HTTP peer protocol, serves A's computation as a cache hit on its
// own first request — the fleet-warm path.
func TestTwoReplicasSharedCacheTier(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	_, tsA := newTestServer(t, Config{})

	cacheB, err := cache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	cacheB.SetRemote(cache.NewHTTPPeer(tsA.URL, 0))
	sB, tsB := newTestServer(t, Config{Cache: cacheB})

	// Replica A computes.
	respA, code := postOptimize(t, tsA.URL, api.OptimizeRequest{Design: designJSON, Flow: "full"})
	if code != http.StatusOK || respA.Cache != "miss" {
		t.Fatalf("replica A: %d cache=%q", code, respA.Cache)
	}
	// Replica B's first sight of the design is a hit through the peer.
	respB, code := postOptimize(t, tsB.URL, api.OptimizeRequest{Design: designJSON, Flow: "full"})
	if code != http.StatusOK {
		t.Fatalf("replica B: %d", code)
	}
	if respB.Cache != "hit" {
		t.Errorf("replica B cache = %q, want hit via peer", respB.Cache)
	}
	if !bytes.Equal(respA.Design, respB.Design) {
		t.Error("replicas served different netlists for one key")
	}
	if st := sB.Cache().Stats(); st.RemoteHits < 1 {
		t.Errorf("replica B remote stats %+v, want >= 1 remote hit", st)
	}
}

// TestJobRecoveryAcrossServers: a server over an existing job store
// re-serves finished jobs under their original ids and re-runs queued
// records left by an interrupted predecessor (the in-process half of
// the kill -9 e2e in cmd/smartlyd).
func TestJobRecoveryAcrossServers(t *testing.T) {
	designJSON := testDesignJSON(t, "../../testdata/fig3.v")
	jobsDir := filepath.Join(t.TempDir(), "jobs")

	s1, ts1 := newTestServer(t, Config{JobsDir: jobsDir})
	job := postAsync(t, ts1.URL, api.OptimizeRequest{Design: designJSON, Flow: "yosys"})
	finished := pollJob(t, ts1.URL, job.ID)
	if finished.State != api.JobDone || finished.Result == nil {
		t.Fatalf("job finished as %s", finished.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s1.Drain(ctx)
	s1.Close()

	// Plant a queued record, as a daemon killed before running it would
	// leave behind.
	reqRaw, _ := json.Marshal(api.OptimizeRequest{Design: designJSON, Flow: "full"})
	rec := jobRecord{ID: "0123456789abcdef", State: api.JobQueued,
		SubmittedAt: time.Now(), Request: reqRaw}
	raw, _ := json.Marshal(rec)
	if err := os.WriteFile(filepath.Join(jobsDir, rec.ID+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{JobsDir: jobsDir})
	// The finished job re-serves its payload under the original id.
	replayed := pollJob(t, ts2.URL, job.ID)
	if replayed.State != api.JobDone || replayed.Result == nil {
		t.Fatalf("recovered job %s: %s (result nil=%v)", job.ID, replayed.State, replayed.Result == nil)
	}
	if !bytes.Equal(replayed.Result.Design, finished.Result.Design) {
		t.Error("recovered result differs from the original")
	}
	// The queued record runs to completion.
	requeued := pollJob(t, ts2.URL, rec.ID)
	if requeued.State != api.JobDone || requeued.Result == nil {
		t.Fatalf("re-queued job: %s (%s)", requeued.State, requeued.Error)
	}
}
