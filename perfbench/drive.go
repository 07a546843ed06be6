package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"pimnet/internal/core"
	"pimnet/internal/serve"
	"pimnet/internal/store"
)

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

// serveOnce sends one request through the server's ServeHTTP and returns
// the status and the time ServeHTTP took. The body stays in rec.
func serveOnce(h http.Handler, rec *recorder, req request) (int, time.Duration) {
	rec.reset()
	hr, err := http.NewRequestWithContext(context.Background(), http.MethodPost, req.path, bytes.NewReader(req.body))
	if err != nil {
		panic(err) // the path and method are constants
	}
	hr.Header.Set("Content-Type", "application/json")
	start := time.Now()
	h.ServeHTTP(rec, hr)
	return rec.code, time.Since(start)
}

// instance is one set-up server with the state the run needs afterwards.
type instance struct {
	srv     *serve.Server
	cache   *core.PlanCache
	streams []stream
	warm    []request
}

// afterRequest returns the hook closedLoop calls after each request.
func (in *instance) afterRequest(w workload) func() {
	if !w.ephemeralPlans {
		return nil
	}
	return in.cache.Reset
}

func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	in.srv.Shutdown(ctx)
}

// newServer builds a server configured like pimnetd's defaults, with a
// store under dir when the workload uses one.
func newServer(w workload, dir string) (*serve.Server, *core.PlanCache, error) {
	st, err := openStore(w, dir)
	if err != nil {
		return nil, nil, err
	}
	cache := core.NewPlanCache()
	srv := serve.New(serve.Config{QueueDepth: -1, Store: st, Cache: cache})
	if w.ephemeralPlans {
		cache.SetPersistence(nil)
	}
	return srv, cache, nil
}

// openStore opens the workload's persistent store under dir, or returns
// nil when the workload runs without one.
func openStore(w workload, dir string) (*store.Store, error) {
	if !w.store {
		return nil, nil
	}
	fp, err := store.Fingerprint()
	if err != nil {
		return nil, err
	}
	return store.Open(store.Config{Dir: dir, Fingerprint: fp})
}

// setUp builds a server, opens its store and warms it with the workload's
// warm-up requests, timing exactly that. Each warm-up response must be a
// 200 that the oracle accepts; the checks run after the clock stops. A
// workload with a store finds its warm-up history already on disk (see
// fillStore), so its set-up is a restart: opening the store and building
// the server.
func setUp(w workload, seed int64, dir string, o *oracle, ref *references) (*instance, time.Duration, error) {
	streams := w.streams(seed)
	warm := w.warmup(seed, streams)
	send := warm
	if w.store {
		send = nil
	}
	runtime.GC()
	start := time.Now()
	srv, cache, err := newServer(w, dir)
	if err != nil {
		return nil, 0, err
	}
	bodies, codes := serveAll(srv, send)
	took := time.Since(start)
	in := &instance{srv: srv, cache: cache, streams: streams, warm: warm}
	if err := checkAll(send, bodies, codes, o, ref); err != nil {
		in.close()
		return nil, 0, err
	}
	return in, took, nil
}

// fillStore writes a store workload's warm-up history into dir through a
// throwaway server, before any timed set-up.
func fillStore(w workload, seed int64, dir string, o *oracle, ref *references) error {
	if !w.store {
		return nil
	}
	srv, _, err := newServer(w, dir)
	if err != nil {
		return err
	}
	warm := w.warmup(seed, w.streams(seed))
	bodies, codes := serveAll(srv, warm)
	(&instance{srv: srv}).close()
	return checkAll(warm, bodies, codes, o, ref)
}

func serveAll(h http.Handler, reqs []request) ([][]byte, []int) {
	rec := newRecorder()
	bodies := make([][]byte, len(reqs))
	codes := make([]int, len(reqs))
	for i, req := range reqs {
		codes[i], _ = serveOnce(h, rec, req)
		bodies[i] = bytes.Clone(rec.body.Bytes())
	}
	return bodies, codes
}

func checkAll(reqs []request, bodies [][]byte, codes []int, o *oracle, ref *references) error {
	for i, req := range reqs {
		if codes[i] != http.StatusOK {
			return fmt.Errorf("warm-up %s %s: status %d: %s", req.path, req.body, codes[i], bodies[i])
		}
		if err := ref.observe(o, req, bodies[i]); err != nil {
			return fmt.Errorf("warm-up %s %s: %w", req.path, req.body, err)
		}
	}
	return nil
}

// references holds, per distinct request, the first deterministic response
// bytes seen. Every later response to the same request must repeat them.
type references struct {
	mu     sync.Mutex
	bodies map[string][]byte
}

func newReferences() *references { return &references{bodies: map[string][]byte{}} }

// observe checks a 200 body: against the oracle the first time its request
// is seen, byte for byte against that first body afterwards.
func (r *references) observe(o *oracle, req request, body []byte) error {
	det := deterministic(body)
	r.mu.Lock()
	first, seen := r.bodies[string(req.body)]
	r.mu.Unlock()
	if seen {
		if !bytes.Equal(first, det) {
			return fmt.Errorf("response differs from the first response to the same request")
		}
		return nil
	}
	if err := o.check(req, body); err != nil {
		return err
	}
	r.mu.Lock()
	r.bodies[string(req.body)] = bytes.Clone(det)
	r.mu.Unlock()
	return nil
}

// sample is one timed request.
type sample struct {
	req     request
	latency time.Duration
	// done is when the request completed, from the window's start.
	done   time.Duration
	status int
	// body is kept when the request had no reference response yet, to be
	// checked after the window.
	body []byte
}

// loadResult is the outcome of one closed-loop window.
type loadResult struct {
	samples    []sample
	window     time.Duration
	elapsed    time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	heap       []uint64 // heap-in-use samples, sorted
}

// closedLoop runs one client goroutine per stream against h until the
// deadline. Each client sends its next request only when the previous one
// has returned, then calls after, if set. Responses are compared with the
// references as they arrive; a response to a request without a reference
// yet is kept and checked after the window.
func closedLoop(h http.Handler, streams []stream, ref *references, d time.Duration, after func()) loadResult {
	runtime.GC()
	peak := startHeapSampler()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	per := make([][]sample, len(streams))
	ends := make([]time.Time, len(streams))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := newRecorder()
			for time.Now().Before(deadline) {
				req := streams[c].next()
				code, lat := serveOnce(h, rec, req)
				s := sample{req: req, latency: lat, done: time.Since(start), status: code}
				if code == http.StatusOK {
					ref.mu.Lock()
					first, seen := ref.bodies[string(req.body)]
					ref.mu.Unlock()
					if !seen {
						s.body = bytes.Clone(rec.body.Bytes())
					} else if !bytes.Equal(first, deterministic(rec.body.Bytes())) {
						s.status = -1
					}
				}
				per[c] = append(per[c], s)
				if after != nil {
					after()
				}
			}
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&msAfter)
	res := loadResult{window: d, heap: peak()}
	for c := range streams {
		res.samples = append(res.samples, per[c]...)
		if e := ends[c].Sub(start); e > res.elapsed {
			res.elapsed = e
		}
	}
	res.allocBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	res.gcCycles = msAfter.NumGC - msBefore.NumGC
	res.gcPauseNs = msAfter.PauseTotalNs - msBefore.PauseTotalNs
	return res
}

// verify runs the deferred checks of a window and returns the number of
// failed requests, with the first failure's description.
func verify(res loadResult, o *oracle, ref *references) (int, string) {
	failed, first := 0, ""
	fail := func(s sample, why string) {
		failed++
		if first == "" {
			first = fmt.Sprintf("%s %s: %s", s.req.path, s.req.body, why)
		}
	}
	// Check first occurrences before repeats, on up to two goroutines:
	// references are filled by the first and compared by the rest.
	var firsts, repeats []sample
	seen := map[string]bool{}
	for _, s := range res.samples {
		switch {
		case s.status == -1:
			fail(s, "response differs from the first response to the same request")
		case s.status != http.StatusOK:
			fail(s, fmt.Sprintf("status %d", s.status))
		case s.body == nil:
		case !seen[string(s.req.body)]:
			seen[string(s.req.body)] = true
			firsts = append(firsts, s)
		default:
			repeats = append(repeats, s)
		}
	}
	errs := make([]error, len(firsts))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(firsts); i += 2 {
				errs[i] = ref.observe(o, firsts[i].req, firsts[i].body)
			}
		}(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			fail(firsts[i], err.Error())
		}
	}
	for _, s := range repeats {
		if err := ref.observe(o, s.req, s.body); err != nil {
			fail(s, err.Error())
		}
	}
	return failed, first
}

// startHeapSampler samples the heap in use every millisecond until the
// returned function is called, which stops the sampler, waits for it, and
// returns the samples.
func startHeapSampler() func() []uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var got []uint64
	read := func() {
		metrics.Read(sample)
		got = append(got, sample[0].Value.Uint64())
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() []uint64 {
		close(stop)
		<-done
		read()
		slices.Sort(got)
		return got
	}
}

// subWindows is how many equal parts of the window throughput is measured
// in; the reported rate is their median, so a burst of load from outside
// the benchmark moves at most a minority of them.
const subWindows = 10

// medianRate returns the median over the sub-windows of the rate at which
// successful requests completed, weighted by weight. A sub-window's rate
// is the weight completed after its first completion divided by the time
// from its first completion to its last, which unlike a plain count per
// sub-window is not rounded to whole requests.
func (res loadResult) medianRate(weight func(sample) int) float64 {
	part := res.window / subWindows
	var first, last [subWindows]time.Duration
	var sum [subWindows]int
	var seen [subWindows]bool
	for _, s := range res.samples {
		i := int(s.done / part)
		if s.status != http.StatusOK || i >= subWindows {
			continue
		}
		if !seen[i] || s.done < first[i] {
			if seen[i] {
				sum[i] += weight(s) // the old first now counts
			}
			first[i], seen[i] = s.done, true
			last[i] = max(last[i], s.done)
			continue
		}
		sum[i] += weight(s)
		last[i] = max(last[i], s.done)
	}
	var rates []float64
	for i := range sum {
		if last[i] > first[i] {
			rates = append(rates, float64(sum[i])/(last[i]-first[i]).Seconds())
		}
	}
	if len(rates) == 0 {
		return 0
	}
	slices.Sort(rates)
	return rates[len(rates)/2]
}

// medianPercentileMs returns the median over the sub-windows of each
// sub-window's q-quantile of successful requests' latency, in
// milliseconds, with the number of samples it rests on.
func (res loadResult) medianPercentileMs(q float64) (float64, int) {
	part := res.window / subWindows
	var lats [subWindows][]time.Duration
	n := 0
	for _, s := range res.samples {
		if i := int(s.done / part); s.status == http.StatusOK && i < subWindows {
			lats[i] = append(lats[i], s.latency)
			n++
		}
	}
	var ps []float64
	for _, l := range lats {
		if len(l) > 0 {
			slices.Sort(l)
			ps = append(ps, percentileMs(l, q))
		}
	}
	if len(ps) == 0 {
		return 0, 0
	}
	slices.Sort(ps)
	return ps[len(ps)/2], n
}

// percentileMs returns the q-quantile (0..1) of sorted durations by the
// nearest-rank rule, in milliseconds.
func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// runDir creates the per-run scratch directory under the checkout's build
// directory.
func runDir() (string, error) {
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
