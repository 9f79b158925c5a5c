package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/simcache"
	"killi/internal/simserver"
)

// The service mix: a small key set of run jobs that the daemon's retained
// registry serves from memory (hot), and about 2% fresh-seed run jobs that
// simulate and write the result cache (cold). Two closed-loop clients each
// wait for their reply before sending the next request.
const (
	simdRequestsPerCU = 1200
	simdVoltage       = 0.625
	simdHotKeys       = 8
	simdColdPer10k    = 200
	simdSetups        = 9
	// simdTraceRequests is the fixed request count of each traced phase.
	simdTraceRequests = 4000
)

var (
	simdWorkloads = []string{"xsbench", "nekbone", "quicksilver", "fft"}
	simdSchemes   = []string{"killi-1:64", "msecc", "killi-1:16", "dected"}
)

// spanHeader and opHeader carry a traced request's client span id and
// request id to the server-side span.
const (
	spanHeader = "X-Perfbench-Span"
	opHeader   = "X-Perfbench-Op"
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func runJob(workloadName, scheme string, seed uint64) simserver.JobRequest {
	return simserver.JobRequest{
		Kind: simserver.KindRun, Workload: workloadName, Scheme: scheme,
		Voltage: simdVoltage, RequestsPerCU: simdRequestsPerCU, Seed: seed,
	}
}

// hotJobs returns the seed's hot key set: simdHotKeys distinct
// (workload, scheme) run jobs.
func hotJobs(seed uint64) []simserver.JobRequest {
	var pairs [][2]string
	for _, w := range simdWorkloads {
		for _, s := range simdSchemes {
			pairs = append(pairs, [2]string{w, s})
		}
	}
	for i := len(pairs) - 1; i > 0; i-- {
		j := int(mix64(seed^uint64(i)*0x9e3779b97f4a7c15) % uint64(i+1))
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	jobs := make([]simserver.JobRequest, simdHotKeys)
	for i := range jobs {
		jobs[i] = runJob(pairs[i][0], pairs[i][1], seed)
	}
	return jobs
}

// mixAt returns request i of the seed's mix and the index of its hot key,
// or -1 for a cold request. Cold requests use seed+1+i, so each is a key
// no other request of the run shares.
func mixAt(seed uint64, hot []simserver.JobRequest, i int) (simserver.JobRequest, int) {
	x := mix64(mix64(seed) + uint64(i)*0x9e3779b97f4a7c15)
	if x%10000 < simdColdPer10k {
		w := simdWorkloads[(x>>20)%uint64(len(simdWorkloads))]
		s := simdSchemes[(x>>28)%uint64(len(simdSchemes))]
		return runJob(w, s, seed+1+uint64(i)), -1
	}
	k := int((x >> 20) % uint64(len(hot)))
	return hot[k], k
}

// runResult renders a simulation the way a run job reports it.
func runResult(res gpu.Result) simserver.RunResult {
	return simserver.RunResult{
		Cycles: res.Cycles, Instructions: res.Instructions, L2Misses: res.L2Misses,
		L2Accesses: res.L2Accesses, MemAccesses: res.MemAccesses,
		DisabledLines: res.DisabledLines, L2MPKI: res.MPKI(),
	}
}

// jobConfig is the experiments config a run job executes with.
func jobConfig(req simserver.JobRequest) experiments.Config {
	return experiments.Config{
		Voltage: req.Voltage, RequestsPerCU: req.RequestsPerCU, Seed: req.Seed,
		WarmupKernels: req.WarmupKernels, Parallelism: 1, Shards: 1,
	}
}

// reference computes a run job's result directly, without the service.
func reference(ctx context.Context, req simserver.JobRequest) (simserver.RunResult, error) {
	res, err := experiments.RunOneNamed(ctx, jobConfig(req), req.Workload, req.Scheme, req.Voltage)
	return runResult(res), err
}

// simdServer is one job server with a fresh cache directory, behind a
// loopback HTTP server.
type simdServer struct {
	srv    *simserver.Server
	web    *httptest.Server
	client *http.Client
	hot    []simserver.JobRequest
	keys   []string // hot job keys, from priming
}

// startServer starts a server (its handler wrapped when wrap is non-nil)
// and primes the hot key set through it, so those jobs are retained.
func startServer(ctx context.Context, e *env, wrap func(http.Handler) http.Handler) (*simdServer, error) {
	dir, err := e.tempDir("simcache")
	if err != nil {
		return nil, err
	}
	srv, err := simserver.New(simserver.Config{CacheDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &simdServer{
		srv:    srv,
		web:    httptest.NewServer(h),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}},
		hot:    hotJobs(e.seed),
	}
	for _, req := range s.hot {
		out, err := s.post(ctx, req, 0, "")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("priming %s/%s: %w", req.Workload, req.Scheme, err)
		}
		s.keys = append(s.keys, out.Key)
	}
	return s, nil
}

func (s *simdServer) close() {
	s.web.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Close(ctx)
}

// post sends one job over HTTP and decodes the reply; span and op are the
// client span id and request id a traced server attributes its own span
// to (0 and "" when untraced).
func (s *simdServer) post(ctx context.Context, req simserver.JobRequest, span int, op string) (*simserver.JobResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.web.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hreq.Header.Set(spanHeader, strconv.Itoa(span))
		hreq.Header.Set(opHeader, op)
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out simserver.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// outcome is one request's result.
type outcome struct {
	i   int
	hot int // hot key index, -1 for a cold request
	lat time.Duration
	res simserver.RunResult
	key string
	err error
}

// drive runs the closed loop: each client takes the next request index,
// sends it, and waits for the reply. With n > 0 exactly requests [0, n)
// are sent; otherwise clients stop taking new requests once the budget
// has elapsed. Outcomes come back in request order.
func drive(seed uint64, hot []simserver.JobRequest, n int, budget time.Duration,
	send func(i int, req simserver.JobRequest) (*simserver.JobResult, error)) ([]outcome, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for {
				i := int(next.Add(1) - 1)
				if (n > 0 && i >= n) || (n == 0 && time.Since(start) >= budget) {
					break
				}
				req, k := mixAt(seed, hot, i)
				t0 := time.Now()
				out, err := send(i, req)
				o := outcome{i: i, hot: k, lat: time.Since(t0), err: err}
				switch {
				case err != nil:
				case out.Run == nil:
					o.err = fmt.Errorf("reply carries no run result")
				default:
					o.res, o.key = *out.Run, out.Key
				}
				mine = append(mine, o)
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(outs, func(a, b int) bool { return outs[a].i < outs[b].i })
	return outs, wall
}

// checkOutcomes tallies every request: it fails on an error, on a hot reply
// that differs from the hot key's reference or primed key, and on a cold
// reply that differs from coldWant (when given).
func checkOutcomes(r *report, s *simdServer, outs []outcome, hotRefs []simserver.RunResult, coldWant map[int]simserver.RunResult) {
	for _, o := range outs {
		switch {
		case o.err != nil:
			r.fail(1, "request %d: %v", o.i, o.err)
		case o.hot >= 0:
			r.check(1, o.res == hotRefs[o.hot] && o.key == s.keys[o.hot],
				"request %d (hot key %d): reply %+v key %.12s, want %+v key %.12s", o.i, o.hot, o.res, o.key, hotRefs[o.hot], s.keys[o.hot])
		case coldWant != nil:
			want := coldWant[o.i]
			r.check(1, o.res == want, "request %d (cold): reply %+v, want %+v", o.i, o.res, want)
		default:
			r.ok(1)
		}
	}
}

// hotReferences computes every hot job's result directly.
func hotReferences(ctx context.Context, hot []simserver.JobRequest) ([]simserver.RunResult, error) {
	refs := make([]simserver.RunResult, len(hot))
	err := forEach(len(hot), func(i int) error {
		var err error
		refs[i], err = reference(ctx, hot[i])
		return err
	})
	return refs, err
}

// coldReferences computes every successful cold request's result directly
// with experiments.RunOneNamed.
func coldReferences(ctx context.Context, seed uint64, hot []simserver.JobRequest, outs []outcome) (map[int]simserver.RunResult, error) {
	var cold []int
	for _, o := range outs {
		if o.hot < 0 && o.err == nil {
			cold = append(cold, o.i)
		}
	}
	refs := make([]simserver.RunResult, len(cold))
	err := forEach(len(cold), func(j int) error {
		req, _ := mixAt(seed, hot, cold[j])
		var err error
		refs[j], err = reference(ctx, req)
		return err
	})
	want := make(map[int]simserver.RunResult, len(cold))
	for j, i := range cold {
		want[i] = refs[j]
	}
	return want, err
}

// latencies splits successful requests' latencies (ms) into hot and cold.
func latencies(outs []outcome) (hot, cold []float64) {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		ms := float64(o.lat.Nanoseconds()) / 1e6
		if o.hot >= 0 {
			hot = append(hot, ms)
		} else {
			cold = append(cold, ms)
		}
	}
	return hot, cold
}

// reportPercentile prints a latency percentile when enough samples lie
// beyond it, and says so when they do not.
func reportPercentile(r *report, name string, xs []float64, q float64, what string) {
	v, ok := percentile(xs, q)
	if !ok {
		r.note("%s not reported: %d samples leave fewer than %d beyond p%g", name, len(xs), minBeyond, q*100)
		return
	}
	r.metric(name, "ms", v, len(xs), what)
}

// samplePeaks reads and resets the resident-set high-water mark every
// interval until stop is closed, and returns the marks (the last one
// covers the final partial interval).
func samplePeaks(every time.Duration, stop <-chan struct{}) []float64 {
	tick := time.NewTicker(every)
	defer tick.Stop()
	var peaks []float64
	for {
		select {
		case <-tick.C:
			peaks = append(peaks, readPeakRSSMB())
			resetPeakRSS()
		case <-stop:
			return append(peaks, readPeakRSSMB())
		}
	}
}

func measureSimd(ctx context.Context, e *env, r *report) error {
	var s *simdServer
	if err := repeatSetup(r, simdSetups, func(last bool) error {
		var err error
		if s, err = startServer(ctx, e, nil); err == nil && !last {
			s.close()
		}
		return err
	}); err != nil {
		return err
	}
	timed := &calls{perRun: !freshCall()}
	stop, peaks := make(chan struct{}), make(chan []float64)
	go func() { peaks <- samplePeaks(time.Second, stop) }()
	outs, wall := drive(e.seed, s.hot, 0, e.budget, func(_ int, req simserver.JobRequest) (*simserver.JobResult, error) {
		return s.post(ctx, req, 0, "")
	})
	close(stop)
	timed.peaks = <-peaks
	stats := s.srv.Stats()
	s.close()

	hotRefs, err := hotReferences(ctx, s.hot)
	if err != nil {
		return fmt.Errorf("hot references: %w", err)
	}
	coldWant, err := coldReferences(ctx, e.seed, s.hot, outs)
	if err != nil {
		return fmt.Errorf("cold references: %w", err)
	}
	checkOutcomes(r, s, outs, hotRefs, coldWant)

	hot, cold := latencies(outs)
	secs := wall.Seconds()
	ok := len(hot) + len(cold)
	r.metric("ops_per_s", "1/s", float64(ok)/secs, ok, "successful requests per second (ok_rps)")
	r.metric("sims_per_s", "1/s", float64(len(cold))/secs, len(cold), "cold requests, each one simulation, per second")
	// The JSON latency is the cold one: a retained hit takes about 0.1 ms,
	// and on a shared host its median moves 20-30% from run to run, more
	// than any bound allows, so the hot percentiles are printed only.
	r.metric("p50_ms", "ms", median(cold), len(cold), "median latency of simulating (cold) requests")
	timed.reportPeak(r, "second of the closed loop")
	reportPercentile(r, "hot_p50_ms", hot, 0.50, "retained-registry requests")
	reportPercentile(r, "hot_p99_ms", hot, 0.99, "retained-registry requests")
	reportPercentile(r, "cold_p50_ms", cold, 0.50, "simulating requests")
	reportPercentile(r, "cold_p90_ms", cold, 0.90, "simulating requests")
	r.note("server: executed=%d coalesced=%d rejected=%d retained_hits=%d", stats.Executed, stats.Coalesced, stats.Rejected, stats.RetainedHits)
	return nil
}

// traceSimd measures a fixed prefix of the mix four ways: untraced over
// HTTP; traced over HTTP, with a client span per request and a server span
// around the handler; through in-process Server.Submit; and, for the cold
// requests, a replay of the calls RunOneNamed makes (cache lookup, trace
// generation, fault map, construction, kernel, cache write). Every phase
// must return the untraced phase's results.
func traceSimd(ctx context.Context, e *env, r *report) error {
	t := newTracer()
	n := simdTraceRequests

	// Phase 1: untraced, over HTTP.
	setup := t.begin(setupSpan, 0, "")
	s1, err := startServer(ctx, e, nil)
	t.end(setup)
	if err != nil {
		return err
	}
	outs1, wallU := drive(e.seed, s1.hot, n, 0, func(_ int, req simserver.JobRequest) (*simserver.JobResult, error) {
		return s1.post(ctx, req, 0, "")
	})
	stats := s1.srv.Stats()
	s1.close()
	hotRefs, err := hotReferences(ctx, s1.hot)
	if err != nil {
		return fmt.Errorf("hot references: %w", err)
	}
	checkOutcomes(r, s1, outs1, hotRefs, nil)
	same := func(phase string, outs []outcome) {
		for i, o := range outs {
			want := outs1[i]
			switch {
			case o.err != nil:
				r.fail(1, "%s request %d: %v", phase, o.i, o.err)
			default:
				r.check(1, o.res == want.res, "%s request %d: %+v, untraced phase returned %+v", phase, o.i, o.res, want.res)
			}
		}
	}

	// Phase 2: traced, over HTTP.
	middleware := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			parent, err := strconv.Atoi(req.Header.Get(spanHeader))
			if err != nil { // priming, not a measured request
				next.ServeHTTP(w, req)
				return
			}
			sp := t.begin("simserver.handler", parent, req.Header.Get(opHeader))
			next.ServeHTTP(w, req)
			t.end(sp)
		})
	}
	setup = t.begin(setupSpan, 0, "")
	s2, err := startServer(ctx, e, middleware)
	t.end(setup)
	if err != nil {
		return err
	}
	var httpHot []float64
	var mu sync.Mutex
	outs2, wallT := drive(e.seed, s2.hot, n, 0, func(i int, req simserver.JobRequest) (*simserver.JobResult, error) {
		op := "request=" + strconv.Itoa(i)
		sp := t.begin("http.request", 0, op)
		start := time.Now()
		out, err := s2.post(ctx, req, sp, op)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		t.end(sp)
		if err == nil && out.Cached {
			mu.Lock()
			httpHot = append(httpHot, ms)
			mu.Unlock()
		}
		return out, err
	})
	s2.close()
	same("traced HTTP", outs2)

	// Phase 3: in-process Submit on a fresh, primed server.
	setup = t.begin(setupSpan, 0, "")
	s3, err := startServer(ctx, e, nil)
	t.end(setup)
	if err != nil {
		return err
	}
	var submitHot, submitCold []float64
	outs3, _ := drive(e.seed, s3.hot, n, 0, func(i int, req simserver.JobRequest) (*simserver.JobResult, error) {
		op := "request=" + strconv.Itoa(i)
		root := t.begin("simd.request", 0, op)
		sp := t.begin("simserver.submit", root, op)
		start := time.Now()
		out, err := s3.srv.Submit(ctx, req)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		t.end(sp)
		t.end(root)
		if err == nil {
			mu.Lock()
			if out.Cached {
				submitHot = append(submitHot, ms)
			} else {
				submitCold = append(submitCold, ms)
			}
			mu.Unlock()
		}
		return out, err
	})
	s3.close()
	same("in-process Submit", outs3)

	// Phase 4: replay the cold requests' calls into a fresh cache.
	dir, err := e.tempDir("replay")
	if err != nil {
		return err
	}
	store, err := simcache.Open(dir)
	if err != nil {
		return err
	}
	counts := &simCounts{}
	var cold []int
	for _, o := range outs1 {
		if o.hot < 0 {
			cold = append(cold, o.i)
		}
	}
	replayed := make([]simserver.RunResult, len(cold))
	if err := forEach(len(cold), func(j int) error {
		req, _ := mixAt(e.seed, s1.hot, cold[j])
		res, err := replayRunJob(ctx, t, store, req, cold[j], counts)
		replayed[j] = runResult(res)
		return err
	}); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for j, i := range cold {
		r.check(1, replayed[j] == outs1[i].res, "replayed cold request %d: %+v, service returned %+v", i, replayed[j], outs1[i].res)
	}

	sum := summarize(t.spans)
	reportLayers(r, sum, counts, float64(wallT-wallU)/1e6)
	r.metric("simcache.hit_ratio", "ratio", float64(store.Hits())/float64(max(1, store.Hits()+store.Misses())), int(store.Hits()+store.Misses()), "Store.Hits / (Hits + Misses) replaying cold jobs")
	r.metric("simcache.get_ms", "ms", sum.layers["simcache.get"].msPerCall(), sum.layers["simcache.get"].calls, "self time per Store.Get")
	r.metric("simcache.put_ms", "ms", sum.layers["simcache.put"].msPerCall(), sum.layers["simcache.put"].calls, "self time per Store.Put")
	r.metric("simserver.jobs_coalesced", "count", float64(stats.Coalesced), n, "untraced phase")
	r.metric("simserver.jobs_rejected", "count", float64(stats.Rejected), n, "untraced phase")
	r.metric("simserver.retained_hits", "count", float64(stats.RetainedHits), n, "untraced phase")
	r.metric("simserver.submit_hot_ms", "ms", median(submitHot), len(submitHot), "median in-process Submit, retained")
	r.metric("simserver.submit_cold_ms", "ms", median(submitCold), len(submitCold), "median in-process Submit, simulating")
	r.metric("simserver.http_overhead_ms", "ms", median(httpHot)-median(submitHot), len(httpHot), "median hot HTTP round trip less median hot Submit")
	return writeSpans(e, r, t, "simd-mixed")
}

// replayRunJob replays what a cold run job executes inside the service —
// experiments.RunOneNamed over the server's cache: a Get that misses, then
// RunOne's trace generation and simulation, then a Put. The simulation's
// private fault map is built through gpu.BuildSharedFaults, which samples
// exactly the map gpu.New would.
func replayRunJob(ctx context.Context, t *tracer, store *simcache.Store, req simserver.JobRequest, i int, counts *simCounts) (gpu.Result, error) {
	op := "request=" + strconv.Itoa(i)
	root := t.begin("simserver.run_job", 0, op)
	defer t.end(root)
	cfg := jobConfig(req)
	newScheme, err := experiments.SchemeFactoryByName(req.Scheme)
	if err != nil {
		return gpu.Result{}, err
	}
	g := gpu.DefaultConfig()
	g.Voltage = req.Voltage
	if g.Classes, err = faultmodel.ParseClassSpec(cfg.FaultClasses); err != nil {
		return gpu.Result{}, err
	}
	key := experiments.CellKey(g, req.Scheme, req.Workload, cfg.Seed, cfg.RequestsPerCU, cfg.WarmupKernels)
	sp := t.begin("simcache.get", root, op)
	_, hit := store.Get(key)
	t.end(sp)
	if hit {
		return gpu.Result{}, fmt.Errorf("request %d: unexpected hit in a fresh replay cache", i)
	}
	traces, err := genTraces(t, root, []string{req.Workload}, cfg.RequestsPerCU, experiments.KernelSeeds(cfg.Seed, cfg.WarmupKernels))
	if err != nil {
		return gpu.Result{}, err
	}
	sp = t.begin("faultmodel.build", root, op)
	faults := gpu.BuildSharedFaults(g)
	t.end(sp)
	res, err := simulate(ctx, t, root, op, g, newScheme, faults, traces[0], counts)
	if err != nil {
		return gpu.Result{}, err
	}
	sp = t.begin("simcache.put", root, op)
	_ = store.Put(key, experiments.CacheableResult(res))
	t.end(sp)
	return res, nil
}
