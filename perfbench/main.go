// Command perfbench is the same-host benchmark of the pimnet serving path.
//
// It drives an in-process serve.Server through ServeHTTP with seeded,
// closed-loop request streams and reports what a caller waits for
// (--trace 0), or replays the same streams through the public call of each
// layer and reports where the time and allocations go (--trace 1). Every
// response is checked against a cache-free reference computation. Run it
// from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result as one JSON object; the
// line before it records the host and the run's sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run builds and warms a server; setup_s
// is their median.
const setupRepeats = 5

func main() {
	workloadName := flag.String("workload", "", "workload to run: interactive, explore, apps or noc")
	seed := flag.Int64("seed", 1, "seed of the generated request streams")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := workloadNamed(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dir, err := runDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	window := time.Duration(*seconds) * time.Second
	var res result
	var info map[string]any
	if *traced == 1 {
		res, info, err = runTraced(w, *seed, window, dir)
	} else {
		res, info, err = runEndToEnd(w, *seed, window, dir)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info["host"] = hostRecord()
	info["workload"], info["seed"], info["trace"] = w.name, *seed, *traced
	if err := json.NewEncoder(os.Stdout).Encode(info); err != nil {
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// runEndToEnd sets up the workload's server several times, then runs its
// clients closed-loop against the last one for the window.
func runEndToEnd(w workload, seed int64, window time.Duration, dir string) (result, map[string]any, error) {
	o, anchorErr := newOracle()
	ref := newReferences()
	storeDir := filepath.Join(dir, "store")
	if err := fillStore(w, seed, storeDir, o, ref); err != nil {
		return result{}, nil, err
	}
	var setups []time.Duration
	var in *instance
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.close()
		}
		var took time.Duration
		var err error
		in, took, err = setUp(w, seed, storeDir, o, ref)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, took)
	}
	// The clients run unmeasured for a tenth of the window first, so that
	// the heap, the GC pacer and the caches settle before timing starts.
	ramp := closedLoop(in.srv, in.streams, ref, window/10, in.afterRequest(w))
	load := closedLoop(in.srv, in.streams, ref, window, in.afterRequest(w))
	snap := in.srv.Snapshot()
	in.close()
	rampFailed, rampFailure := verify(ramp, o, ref)
	failed, firstFailure := verify(load, o, ref)
	failed += rampFailed
	if firstFailure == "" {
		firstFailure = rampFailure
	}
	if anchorErr != nil {
		failed++
		firstFailure = anchorErr.Error()
	}

	attempted := len(ramp.samples) + len(load.samples)
	p50, samples := load.medianPercentileMs(0.50)
	p90, _ := load.medianPercentileMs(0.90)
	p99, _ := load.medianPercentileMs(0.99)
	m := map[string]metric{
		"setup_s":                 {median(setups).Seconds(), "s"},
		"requests_per_s":          {load.medianRate(func(sample) int { return 1 }), "1/s"},
		"points_per_s":            {load.medianRate(func(s sample) int { return s.req.points }), "1/s"},
		"latency_p50_ms":          {p50, "ms"},
		"latency_p90_ms":          {p90, "ms"},
		"alloc_bytes_per_request": {float64(load.allocBytes) / float64(len(load.samples)), "B"},
		"heap_peak_mb":            {float64(load.heap[len(load.heap)*99/100]) / 1e6, "MB"},
	}
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	info := map[string]any{
		"clients":         len(in.streams),
		"latency_samples": samples,
		// p99 is reported but not a gated metric: a sub-window holds
		// fewer than 1000 samples, so fewer than ten beyond it, on every
		// workload but interactive.
		"latency_p99_ms": p99,
		"failed_ratio":   float64(failed) / float64(attempted),
		"first_failure":  firstFailure,
		"setup_runs_s":   setupS,
		"elapsed_s":      load.elapsed.Seconds(),
		"store":          snap.Store,
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, info, nil
}

// roundRobin interleaves the clients' streams into one, so a single
// client replays the same mix.
type roundRobin struct {
	streams []stream
	i       int
}

func (r *roundRobin) next() request {
	q := r.streams[r.i%len(r.streams)].next()
	r.i++
	return q
}

// nanToZero keeps a ratio of two zero counts reportable.
func nanToZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
