package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	smartly "repro"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/genbench"
	"repro/internal/rtlil"
	"repro/internal/server"
	"repro/internal/server/api"
)

// serve_mix drives one in-process smartlyd (server.New behind real
// loopback HTTP) with a closed loop of o.clients clients: each sends a
// request, waits for the reply and sends the next, as client.Wait and
// `smartly -remote` callers do. A client's cycle is one no_cache cold
// request on a ~0.5 MB warm design, three warm whole-design hits on it,
// and one design-mode resubmission of a 4-module design with one module
// regenerated (a fresh generation each cycle, so the module tier
// answers a partial hit), in a seeded random order per cycle.
// Successive cycles rotate through a pool of warm designs, all cached
// at set-up: what one draw of the recipes costs to optimize varies by
// ~8% from seed to seed, and a run that averages over the pool's
// draws keeps that out of the run-to-run spread. Each request gets an
// equal share of the worker budget, so the clients together never run
// more engine workers than there are cores. flow_s is
// the interquartile mean of the cycle times (each the sum of the
// cycle's round trips), so a fast path for hits that costs misses
// shows. Whether a client's cold request overlaps the other client's
// splits cycle times into two modes of similar weight, so a median
// jumps between them from run to run where the interquartile mean does
// not.

// Request classes.
const (
	classWarm   = "warm"
	classDesign = "design"
	classCold   = "cold"
)

// cycle is each client's request mix: the per-round mix of the
// repository's load bench (harness.RunLoadBench), which calls it the
// shape a fleet cache sees in steady state. No traffic measurement
// backs the ratio; it weights cold, warm and design time in flow_s.
// Each cycle sends it in a fresh seeded order: in a fixed order the
// clients fall into step or out of step for a whole run (their cold
// requests overlapping or not), and the run's cycle time then takes
// one of two values ~30% apart.
var cycle = []string{classCold, classWarm, classWarm, classDesign, classWarm}

// tailSamples is how many warm replies a traced phase wants beyond the
// warm p95, so that the p95 is not set by a handful of samples.
const tailSamples = 10

// serveSizes scales the served designs.
type serveSizes struct {
	// The warm pool holds warmDesigns designs, each holding every
	// Table II recipe warmVariants times at warmScale; the design-mode
	// design has designModules modules at designScale.
	warmScale     float64
	warmDesigns   int
	warmVariants  int
	designScale   float64
	designModules int
	// minWarm is how many warm replies a traced phase runs for at
	// least.
	minWarm int
}

func sizesFor(o options) serveSizes {
	if o.small {
		return serveSizes{warmScale: 0.005, warmDesigns: 2, warmVariants: 1, designScale: 0.005, designModules: 4}
	}
	return serveSizes{warmScale: 0.004, warmDesigns: 8, warmVariants: 1, designScale: 0.01, designModules: 4,
		minWarm: 20 * tailSamples}
}

// requestWorkers is the engine worker budget of each request: the
// clients' equal shares of o.workers.
func requestWorkers(o options) int { return max(1, o.workers/o.clients) }

// serveSetup is one set-up: designs and a primed server.
type serveSetup struct {
	o     options
	sz    serveSizes
	flow  *smartly.Flow
	srv   *server.Server
	ts    *httptest.Server
	httpc *http.Client
	cl    *client.Client

	// warm holds the request body of each warm design.
	warm     [][]byte
	dr       genbench.DesignRecipe
	base     *rtlil.Design
	baseJSON []byte
	// nextGen numbers design-mode generations (1, 2, ...).
	nextGen atomic.Int64
	peak    heapPeak

	// digests maps the sha256 of each distinct response design to its
	// canonical hash and AIG area, so a response repeated byte for byte
	// (every warm and cold one) is decoded once.
	digestMu sync.Mutex
	digests  map[[32]byte]digest
}

type digest struct {
	hash string
	area int
}

func (s *serveSetup) close() {
	s.httpc.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

func encodeDesign(d *rtlil.Design) ([]byte, error) {
	var buf bytes.Buffer
	err := rtlil.WriteJSON(&buf, d)
	return buf.Bytes(), err
}

func newServeSetup(o options, flow *smartly.Flow, tr *tracer) (*serveSetup, error) {
	s := &serveSetup{o: o, sz: sizesFor(o), flow: flow, digests: map[[32]byte]digest{}}
	s.peak.keep = true
	root := tr.add("setup", 0, time.Now(), 0)
	// Warm design k holds pool variants k*warmVariants and up.
	for k := 0; k < s.sz.warmDesigns; k++ {
		warm := rtlil.NewDesign()
		for j := 0; j < s.sz.warmVariants; j++ {
			v := k*s.sz.warmVariants + j
			for _, r := range genbench.Recipes() {
				r.Seed += variantOffset(o.seed, v)
				m := generate(r, s.sz.warmScale, tr, root)
				m.Name = fmt.Sprintf("%s_v%d", r.Name, v)
				warm.AddModule(m)
			}
		}
		body, err := encodeDesign(warm)
		if err != nil {
			return nil, err
		}
		s.warm = append(s.warm, body)
	}

	s.dr = genbench.DesignRecipe{Name: "serve_mix", Modules: s.sz.designModules, Seed: 43 + variantOffset(o.seed, 0)}
	start := time.Now()
	s.base = genbench.GenerateDesign(s.dr, s.sz.designScale)
	tr.add("genbench.GenerateDesign", root, start, time.Since(start))
	var err error
	if s.baseJSON, err = encodeDesign(s.base); err != nil {
		return nil, err
	}

	// The queue absorbs every client at once: the benchmark measures
	// latency under load, not the 503 path.
	s.srv = server.New(server.Config{Workers: o.workers, QueueDepth: 4*o.clients + 16})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.clients}}
	s.cl = client.New(s.ts.URL)
	s.cl.SetHTTPClient(s.httpc)

	// Priming fills the whole-design entries and the module tier, so
	// warm requests hit and design requests hit all but one module.
	ctx := context.Background()
	for k, body := range s.warm {
		if resp, err := s.cl.Optimize(ctx, s.request(classWarm, body)); err != nil || resp.Cache != "miss" {
			s.close()
			return nil, fmt.Errorf("priming warm design %d: cache=%v err=%v", k, cacheOf(resp), err)
		}
	}
	prime := s.request(classDesign, s.baseJSON)
	if resp, err := s.cl.Optimize(ctx, prime); err != nil || resp.Cache != "miss" {
		s.close()
		return nil, fmt.Errorf("priming the design-mode design: cache=%v err=%v", cacheOf(resp), err)
	}
	return s, nil
}

// localRun decodes the design in body and optimizes it in process:
// the reference for a response to a request carrying those bytes.
func (s *serveSetup) localRun(body []byte) (*rtlil.Design, error) {
	d, err := rtlil.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	_, err = s.flow.RunDesign(d, smartly.WithWorkers(s.o.workers))
	return d, err
}

func cacheOf(r *api.OptimizeResponse) string {
	if r == nil {
		return ""
	}
	return r.Cache
}

// request builds a request of the class carrying the design in body.
func (s *serveSetup) request(class string, body []byte) api.OptimizeRequest {
	req := api.OptimizeRequest{Design: body, Flow: "full", Workers: requestWorkers(s.o)}
	switch class {
	case classCold:
		req.NoCache = true
	case classDesign:
		req.Mode = api.ModeDesign
	}
	return req
}

// mutated returns generation gen of the design-mode design: the base
// with module gen%modules regenerated.
func (s *serveSetup) mutated(gen int) *rtlil.Design {
	d := rtlil.NewDesign()
	for _, m := range s.base.Modules() {
		d.AddModule(m)
	}
	genbench.MutateModule(d, s.dr, s.sz.designScale, gen%s.sz.designModules, gen)
	return d
}

// serveSample is one request's outcome.
type serveSample struct {
	class string
	// warm indexes the warm design of a warm or cold request; gen is a
	// design request's generation.
	warm    int
	gen     int
	rtt     time.Duration
	handler time.Duration
	err     error
	// resp is the response without its design and, unless the request
	// asked for timings, without its reports.
	resp *api.OptimizeResponse
	// hash is the canonical hash of the response design, area its AIG
	// area.
	hash string
	area int
	// design is the response design, kept for the first reply of each
	// class in a traced phase (the stage re-timing reads it).
	design []byte
}

// clientLog is what one client recorded.
type clientLog struct {
	samples []serveSample
	cycles  []time.Duration
}

// servePhase runs the closed loop for secs and, when minWarm > 0,
// until that many warm replies arrived. It returns each client's log,
// the phase wall time and the heap bytes allocated.
func servePhase(s *serveSetup, secs float64, minWarm int64, timings bool, tr *tracer) ([]*clientLog, time.Duration, uint64) {
	logs := make([]*clientLog, s.o.clients)
	ctx := context.Background()
	defer s.peak.sample()()
	a0 := readRuntime(false).allocBytes
	start := time.Now()
	var warm atomic.Int64
	var wg sync.WaitGroup
	for c := range logs {
		log := &clientLog{}
		logs[c] = log
		rng := rand.New(rand.NewSource(s.o.seed<<8 + int64(c)))
		order := append([]string(nil), cycle...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			kept := map[string]bool{}
			for n := c; time.Since(start).Seconds() < secs || warm.Load() < minWarm; n++ {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				// The design-mode request body is built before the cycle,
				// and the cycle time sums round trips only, so the
				// benchmark's own work between requests stays out of it.
				gen := int(s.nextGen.Add(1))
				body, bodyErr := s.designBody(gen)
				k := n % len(s.warm)
				var total time.Duration
				for _, class := range order {
					smp := serveSample{class: class, warm: k}
					reqBody := s.warm[k]
					if class == classDesign {
						smp.gen, smp.err = gen, bodyErr
						reqBody = body
					}
					if smp.err == nil {
						s.send(ctx, &smp, reqBody, timings, timings && !kept[class], tr)
					}
					kept[class] = kept[class] || smp.design != nil
					if class == classWarm && smp.err == nil {
						warm.Add(1)
					}
					total += smp.rtt
					log.samples = append(log.samples, smp)
				}
				log.cycles = append(log.cycles, total)
			}
		}()
	}
	wg.Wait()
	return logs, time.Since(start), readRuntime(false).allocBytes - a0
}

// designBody is the request body of design-mode generation gen.
func (s *serveSetup) designBody(gen int) ([]byte, error) {
	return encodeDesign(s.mutated(gen))
}

// send issues the sample's request carrying the design in body and
// records its outcome. The response design is reduced to its canonical
// hash and area as it arrives, outside the round trip; keep keeps the
// design bytes too.
func (s *serveSetup) send(ctx context.Context, smp *serveSample, body []byte, timings, keep bool, tr *tracer) {
	req := s.request(smp.class, body)
	req.Timings = timings && smp.class == classCold
	t0 := time.Now()
	resp, err := s.cl.Optimize(ctx, req)
	smp.rtt = time.Since(t0)
	if err != nil {
		smp.err = err
		return
	}
	smp.handler = time.Duration(resp.ElapsedMS * float64(time.Millisecond))
	id := tr.add("client.Optimize", 0, t0, smp.rtt)
	tr.add("server.optimize."+smp.class, id, t0, smp.handler)
	if smp.hash, smp.area, err = s.digest(resp.Design); err != nil {
		smp.err = fmt.Errorf("response design: %w", err)
		return
	}
	if keep {
		smp.design = resp.Design
	} else {
		resp.CacheByModule = nil
		if !req.Timings {
			resp.Reports = nil
		}
	}
	resp.Design = nil
	smp.resp = resp
}

// digest returns the canonical hash and AIG area of a response design,
// decoding each distinct byte string once.
func (s *serveSetup) digest(design []byte) (string, int, error) {
	key := sha256.Sum256(design)
	s.digestMu.Lock()
	dg, ok := s.digests[key]
	s.digestMu.Unlock()
	if ok {
		return dg.hash, dg.area, nil
	}
	d, err := rtlil.ReadJSON(bytes.NewReader(design))
	if err != nil {
		return "", 0, err
	}
	if dg.area, err = designArea(d); err != nil {
		return "", 0, err
	}
	dg.hash = rtlil.CanonicalHashDesign(d)
	s.digestMu.Lock()
	s.digests[key] = dg
	s.digestMu.Unlock()
	return dg.hash, dg.area, nil
}

// runServe measures serve_mix.
func runServe(o options) (*report, error) {
	flow, err := smartly.NamedFlow("full")
	if err != nil {
		return nil, err
	}
	var setups, genTimes []float64
	var s *serveSetup
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.close()
		}
		st := newTracer()
		start := time.Now()
		if s, err = newServeSetup(o, flow, st); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(start)))
		genTimes = append(genTimes, seconds(st.selfTimes(1)["genbench.Generate"]+st.selfTimes(1)["genbench.GenerateDesign"]))
	}
	defer s.close()

	rep := &report{values: map[string]float64{}}
	var logs []*clientLog
	if o.trace {
		// The untraced quarter only anchors the overhead; the traced
		// three quarters run on until the warm p95 has tailSamples
		// samples beyond it.
		tr := newTracer()
		untraced, _, _ := servePhase(s, o.seconds/4, 0, false, nil)
		c0 := s.srv.Cache().Stats()
		r0 := readRuntime(true)
		traced, wall, _ := servePhase(s, o.seconds*3/4, int64(s.sz.minWarm), true, tr)
		r1 := readRuntime(true)
		c1 := s.srv.Cache().Stats()
		rep.spans = tr
		if err := s.fillServeLayers(rep.values, traced, wall, c0, c1, r0, r1); err != nil {
			return nil, err
		}
		rep.values["genbench.generate_s"] = median(genTimes)
		rep.values["trace.flow_overhead_frac"] = ratio(cycleSeconds(traced), cycleSeconds(untraced)) - 1
		rep.values["trace.warm_p50_overhead_frac"] = ratio(classQuantile(traced, classWarm, 0.5), classQuantile(untraced, classWarm, 0.5)) - 1
		logs = append(untraced, traced...)
	} else {
		var alloc uint64
		logs, _, alloc = servePhase(s, o.seconds, 0, false, nil)
		n := 0
		for _, l := range logs {
			n += len(l.cycles)
		}
		rep.values["alloc_mb"] = ratio(float64(alloc), float64(n)) / 1e6
		rep.values["flow_s"] = cycleSeconds(logs)
	}
	area, err := s.check(logs, rep)
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = median(setups)
	rep.values["aig_area"] = float64(area)
	// The phase's largest sample follows single GC cycles that happen to
	// meet both clients' heaviest moments; a high quantile of the
	// samples does not.
	rep.values["peak_heap_mb"] = quantile(s.peak.samples, 0.95) / 1e6
	return rep, nil
}

// cycleSeconds is the interquartile mean client cycle time.
func cycleSeconds(logs []*clientLog) float64 {
	var xs []float64
	for _, l := range logs {
		for _, c := range l.cycles {
			xs = append(xs, seconds(c))
		}
	}
	return interquartileMean(xs)
}

// classQuantile is the q-quantile of the class's round-trip times, in
// milliseconds, over successful requests.
func classQuantile(logs []*clientLog, class string, q float64) float64 {
	return quantile(classValues(logs, class, func(s serveSample) float64 { return millis(s.rtt) }), q)
}

func classValues(logs []*clientLog, class string, f func(serveSample) float64) []float64 {
	var xs []float64
	for _, l := range logs {
		for _, s := range l.samples {
			if s.class == class && s.err == nil {
				xs = append(xs, f(s))
			}
		}
	}
	return xs
}

// check verifies every response: the cache outcome its class implies,
// and a design whose canonical hash equals a local `full` run of the
// same request bytes. It returns the AIG area of the warm responses,
// summed over the warm designs.
func (s *serveSetup) check(logs []*clientLog, rep *report) (int, error) {
	warmRefs := map[int]string{} // warm design -> reference hash
	refs := map[int]string{}     // design generation -> reference hash
	var baseOpt []*rtlil.Module  // the locally optimized base modules
	ref := func(smp serveSample) (string, error) {
		if smp.class != classDesign {
			if h, ok := warmRefs[smp.warm]; ok {
				return h, nil
			}
			local, err := s.localRun(s.warm[smp.warm])
			if err != nil {
				return "", err
			}
			warmRefs[smp.warm] = rtlil.CanonicalHashDesign(local)
			return warmRefs[smp.warm], nil
		}
		if h, ok := refs[smp.gen]; ok {
			return h, nil
		}
		if baseOpt == nil {
			local, err := s.localRun(s.baseJSON)
			if err != nil {
				return "", err
			}
			baseOpt = local.Modules()
		}
		body, err := s.designBody(smp.gen)
		if err != nil {
			return "", err
		}
		local, err := s.localRun(body)
		if err != nil {
			return "", err
		}
		i := smp.gen % s.sz.designModules
		opt := rtlil.NewDesign()
		for j, b := range baseOpt {
			if j == i {
				b = local.Modules()[i]
			}
			opt.AddModule(b)
		}
		refs[smp.gen] = rtlil.CanonicalHashDesign(opt)
		return refs[smp.gen], nil
	}
	areas := map[int]int{} // warm design -> area of its response
	for _, l := range logs {
		for _, smp := range l.samples {
			rep.attempted++
			if err := smp.err; err != nil {
				fmt.Fprintf(logOut, "%s request: %v\n", smp.class, err)
				rep.failed++
				continue
			}
			if err := cacheOutcome(smp); err != nil {
				fmt.Fprintf(logOut, "%s request: %v\n", smp.class, err)
				rep.failed++
				continue
			}
			want, err := ref(smp)
			if err != nil {
				return 0, err
			}
			if smp.hash != want {
				fmt.Fprintf(logOut, "%s response (warm design %d, generation %d) differs from the local run\n",
					smp.class, smp.warm, smp.gen)
				rep.failed++
				continue
			}
			if _, ok := areas[smp.warm]; smp.class == classWarm && !ok {
				areas[smp.warm] = smp.area
			}
		}
	}
	area := 0
	for k := range s.warm {
		a, ok := areas[k]
		if !ok {
			return 0, fmt.Errorf("no warm response passed the check for warm design %d", k)
		}
		area += a
	}
	return area, nil
}

// cacheOutcome checks the cache answer the request's class implies.
func cacheOutcome(smp serveSample) error {
	r := smp.resp
	switch smp.class {
	case classWarm:
		if r.Cache != "hit" {
			return fmt.Errorf("served as %q, want hit", r.Cache)
		}
	case classCold:
		if r.Cache != "bypass" {
			return fmt.Errorf("served as %q, want bypass", r.Cache)
		}
	case classDesign:
		if r.Cache != "partial" || r.ModuleCache == nil || r.ModuleCache.Misses != 1 {
			return fmt.Errorf("served as %q (%+v), want a partial hit missing one module", r.Cache, r.ModuleCache)
		}
	}
	return nil
}

func designArea(d *rtlil.Design) (int, error) {
	sum := 0
	for _, m := range d.Modules() {
		a, err := smartly.Area(m)
		if err != nil {
			return 0, err
		}
		sum += a
	}
	return sum, nil
}

// fillServeLayers derives the serving per-layer metrics from the
// traced phase.
func (s *serveSetup) fillServeLayers(vals map[string]float64, logs []*clientLog, wall time.Duration,
	c0, c1 cache.Stats, r0, r1 runtimeStats) error {
	n, cycles := 0, 0
	for _, l := range logs {
		n += len(l.samples)
		cycles += len(l.cycles)
	}
	for _, class := range []string{classWarm, classDesign, classCold} {
		rtt := classValues(logs, class, func(s serveSample) float64 { return millis(s.rtt) })
		handler := classValues(logs, class, func(s serveSample) float64 { return millis(s.handler) })
		outside := classValues(logs, class, func(s serveSample) float64 { return millis(s.rtt - s.handler) })
		vals["serve."+class+"_p50_ms"] = median(rtt)
		vals["serve."+class+"_count"] = float64(len(rtt))
		vals["server.handler_ms."+class] = median(handler)
		vals["server.outside_handler_ms."+class] = median(outside)
	}
	vals["serve.warm_p95_ms"] = classQuantile(logs, classWarm, 0.95)
	vals["serve.throughput_rps"] = ratio(float64(n), wall.Seconds())

	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	vals["cache.hit_ratio"] = ratio(hits, hits+misses)
	vals["cache.puts"] = float64(c1.Puts - c0.Puts)
	for _, l := range logs {
		for _, smp := range l.samples {
			if smp.err == nil && smp.resp.ModuleCache != nil {
				vals["cache.module_hits"] += float64(smp.resp.ModuleCache.Hits)
				vals["cache.module_misses"] += float64(smp.resp.ModuleCache.Misses)
			}
		}
	}

	vals["go.gc_cycles"] = ratio(float64(r1.gcCycles-r0.gcCycles), float64(cycles))
	vals["go.gc_pause_ms"] = ratio(float64(r1.pauseNS-r0.pauseNS)/1e6, float64(cycles))
	vals["go.gc_cpu_frac"] = ratio(r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU)

	h, err := s.cl.Health(context.Background())
	if err != nil {
		return err
	}
	if h.Metrics != nil {
		vals["server.queue_wait_p50_ms"] = h.Metrics.QueueWait.P50MS
		vals["server.queue_wait_p95_ms"] = h.Metrics.QueueWait.P95MS
	}

	// Engine stages of the cold requests, which ran `full` with
	// timings: pass times (summed over modules, which the server
	// optimizes concurrently, so they can exceed the handler span) are
	// medians over cold requests; counters come from the first cold
	// request (they repeat exactly).
	passMetric := map[string]string{
		"opt_expr": "opt.opt_expr_s", "opt_clean": "opt.opt_clean_s",
		"smartly_satmux": "core.satmux_s", "smartly_rebuild": "core.rebuild_s",
		"opt_egraph": "egraph.opt_egraph_s", "opt_dff": "opt.opt_dff_s",
	}
	perReq := map[string][]float64{}
	var counters map[string]float64
	iters := 0
	for _, l := range logs {
		for _, smp := range l.samples {
			if smp.class != classCold || smp.err != nil {
				continue
			}
			byPass := map[string]float64{}
			first := counters == nil
			if first {
				counters = map[string]float64{}
			}
			for _, r := range smp.resp.Reports {
				for _, p := range r.Passes {
					byPass[p.Name] += seconds(time.Duration(p.DurationNS))
					if first {
						for k, v := range p.Counters {
							counters[k] += float64(v)
						}
					}
				}
				if first {
					for _, f := range r.Fixpoints {
						iters += f.Iterations
					}
				}
			}
			for pass, name := range passMetric {
				perReq[name] = append(perReq[name], byPass[pass])
			}
		}
	}
	for name, xs := range perReq {
		vals[name] = median(xs)
	}
	fillCounters(vals, counters)
	vals["opt.fixpoint_iters"] = float64(iters)

	return s.fillStageTimes(vals, logs)
}

// stageReps is how often each serving-path stage is re-timed.
const stageReps = 5

// fillStageTimes re-times the request path's rtlil stages on the exact
// bytes of one request per class (decode, validate and hash the
// request design, encode the response design) and the API's request
// encode and response decode on a warm request, each the median of
// stageReps runs.
func (s *serveSetup) fillStageTimes(vals map[string]float64, logs []*clientLog) error {
	type pair struct {
		body, optimized []byte
		resp            *api.OptimizeResponse
	}
	var byClass = map[string]*pair{}
	for _, l := range logs {
		for _, smp := range l.samples {
			if smp.err != nil || smp.design == nil || byClass[smp.class] != nil {
				continue
			}
			p := &pair{body: s.warm[smp.warm], optimized: smp.design, resp: smp.resp}
			if smp.class == classDesign {
				var err error
				if p.body, err = s.designBody(smp.gen); err != nil {
					return err
				}
			}
			byClass[smp.class] = p
		}
	}
	timeIt := func(f func() error) (float64, error) {
		var xs []float64
		for k := 0; k < stageReps; k++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			xs = append(xs, millis(time.Since(t0)))
		}
		return median(xs), nil
	}
	for class, p := range byClass {
		var d *rtlil.Design
		read, err := timeIt(func() (err error) {
			d, err = rtlil.ReadJSON(bytes.NewReader(p.body))
			return err
		})
		if err != nil {
			return err
		}
		validate, err := timeIt(func() error {
			for _, m := range d.Modules() {
				if err := m.Validate(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		hash, _ := timeIt(func() error { rtlil.CanonicalHashDesign(d); return nil })
		opt, err := rtlil.ReadJSON(bytes.NewReader(p.optimized))
		if err != nil {
			return err
		}
		write, err := timeIt(func() error { _, err := encodeDesign(opt); return err })
		if err != nil {
			return err
		}
		vals["rtlil.read_json_ms."+class] = read
		vals["rtlil.validate_ms."+class] = validate
		vals["rtlil.hash_ms."+class] = hash
		vals["rtlil.write_json_ms."+class] = write
	}
	if p := byClass[classWarm]; p != nil {
		req := s.request(classWarm, p.body)
		enc, err := timeIt(func() error { _, err := json.Marshal(req); return err })
		if err != nil {
			return err
		}
		resp := *p.resp
		resp.Design = p.optimized
		raw, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		dec, err := timeIt(func() error { var r api.OptimizeResponse; return json.Unmarshal(raw, &r) })
		if err != nil {
			return err
		}
		vals["api.request_encode_ms"] = enc
		vals["api.response_decode_ms"] = dec
	}
	return nil
}
