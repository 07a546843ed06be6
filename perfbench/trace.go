package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pimnet/internal/serve"
	"pimnet/internal/store"
)

// runTraced measures where a request's time goes. It sets the server up
// once, then runs two phases with one client, so that nothing else runs
// while a call is timed:
//
//  1. the workload's interleaved streams go through ServeHTTP untraced for
//     half the window, giving per-request latency, GC cost per request,
//     the server's own counters and its sweep pool's efficiency;
//  2. the same requests are replayed through the pipeline, which calls
//     each layer's public function in the server's order and times each
//     call as a span. Its response bytes must equal the server's
//     (the decomposition check), so the spans describe the same work.
func runTraced(w workload, seed int64, window time.Duration, dir string) (result, map[string]any, error) {
	o, anchorErr := newOracle()
	ref := newReferences()
	storeDir := filepath.Join(dir, "store")
	if err := fillStore(w, seed, storeDir, o, ref); err != nil {
		return result{}, nil, err
	}
	in, _, err := setUp(w, seed, storeDir, o, ref)
	if err != nil {
		return result{}, nil, err
	}
	pl, err := newPipeline(w, filepath.Join(dir, "pipeline-store"))
	if err != nil {
		in.close()
		return result{}, nil, err
	}
	for _, req := range in.warm {
		if _, _, err := pl.run(req, -1); err != nil {
			in.close()
			return result{}, nil, fmt.Errorf("pipeline warm-up %s %s: %w", req.path, req.body, err)
		}
		pl.afterRequest(w)
	}
	pl.t = newTracer()
	pl.lookups, pl.hits, pl.misses = 0, 0, 0

	before := in.srv.Snapshot()
	load := closedLoop(in.srv, []stream{&roundRobin{streams: in.streams}}, ref, window/2, in.afterRequest(w))
	after := in.srv.Snapshot()
	in.close()
	failed, firstFailure := verify(load, o, ref)
	if anchorErr != nil {
		failed++
		firstFailure = anchorErr.Error()
	}
	fail := func(why string) {
		failed++
		if firstFailure == "" {
			firstFailure = why
		}
	}

	var storeBefore store.Stats
	if pl.st != nil {
		storeBefore = pl.st.Stats()
	}
	n := len(load.samples)
	overhead := make([]time.Duration, 0, n)
	var nocPackets int64
	var nocServe time.Duration
	replayStart := time.Now()
	for i, s := range load.samples {
		body, took, err := pl.run(s.req, int32(i))
		pl.afterRequest(w)
		if err != nil {
			fail(fmt.Sprintf("pipeline %s %s: %v", s.req.path, s.req.body, err))
			continue
		}
		if s.status != http.StatusOK {
			continue // already counted by verify
		}
		ref.mu.Lock()
		want, ok := ref.bodies[string(s.req.body)]
		ref.mu.Unlock()
		if !ok || !bytes.Equal(deterministic(body), want) {
			fail(fmt.Sprintf("decomposition %s %s: pipeline response differs from ServeHTTP's", s.req.path, s.req.body))
			continue
		}
		// The server runs a sweep's points on its pool and the pipeline runs
		// them one by one, so only simulate requests are the same work on
		// both sides.
		if s.req.path == "/v1/simulate" {
			overhead = append(overhead, s.latency-took)
		}
		if s.req.path == "/v1/noc/sweep" {
			nocPackets += pl.lastPackets
			nocServe += s.latency
		}
	}
	replay := time.Since(replayStart)

	m := perLayer(pl)
	m["core.plancache.hit_ratio"] = metric{nanToZero(float64(pl.hits) / float64(pl.lookups)), "ratio"}
	m["core.compile.count"] = metric{float64(pl.misses) / float64(n), "count/req"}
	if pl.st != nil {
		st := pl.st.Stats()
		hits := st.Results.Hits - storeBefore.Results.Hits
		misses := st.Results.Misses - storeBefore.Results.Misses
		writes := st.Results.Writes + st.Plans.Writes - storeBefore.Results.Writes - storeBefore.Plans.Writes
		m["store.hit_ratio"] = metric{nanToZero(float64(hits) / float64(hits+misses)), "ratio"}
		m["store.writes"] = metric{float64(writes) / float64(n), "count/req"}
	} else {
		m["store.hit_ratio"] = metric{0, "ratio"}
		m["store.writes"] = metric{0, "count/req"}
	}
	m["sweep.efficiency"] = metric{sweepEfficiency(before, after), "ratio"}
	m["noc.sim_packets_per_s"] = metric{nanToZero(float64(nocPackets) / nocServe.Seconds()), "1/s"}
	m["serve.overhead.us"] = metric{p50us(overhead), "us"}
	m["serve.coalesced"] = metric{float64(after.Coalesced - before.Coalesced), "count"}
	m["serve.rejected"] = metric{float64(after.Rejected - before.Rejected), "count"}
	m["runtime.gc.cycles_per_request"] = metric{float64(load.gcCycles) / float64(n), "count/req"}
	m["runtime.gc.pause_us_per_request"] = metric{float64(load.gcPauseNs) / 1e3 / float64(n), "us/req"}

	spansFile, err := writeSpans(w.name, seed, pl.t.spans)
	if err != nil {
		return result{}, nil, err
	}
	info := map[string]any{
		"requests":      n,
		"failed_ratio":  float64(failed) / float64(n),
		"first_failure": firstFailure,
		"serve_s":       load.elapsed.Seconds(),
		"replay_s":      replay.Seconds(),
		"spans":         len(pl.t.spans),
		"spans_file":    spansFile,
	}
	return result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}, info, nil
}

// Units of the per-layer metrics taken straight from spans.
const (
	unitUs     = "us"
	unitAllocs = "allocs/call"
	unitBytes  = "B/call"
)

// spanMetrics are the per-layer metrics read off the spans: each call's
// p50 time, and where asked, allocations per call.
var spanMetrics = []struct {
	span   string
	allocs bool
}{
	{"core.network.build", true},
	{"core.plancache.lookup", false},
	{"core.plancache.bind", true},
	{"core.compile", false},
	{"core.compile.blueprint", false},
	{"core.exec", true},
	{"backend.baseline.collective", false},
	{"backend.ideal.collective", false},
	{"backend.ndpbridge.collective", false},
	{"backend.dimmlink.collective", false},
	{"backend.cxlpim.collective", false},
	{"core.faulttol.collective", false},
	{"workloads.build", true},
	{"machine.run", false},
	{"store.get", false},
	{"store.put", false},
	{"sweep.point", false},
	{"noc.point", false},
	{"serve.decode", false},
	{"serve.encode", true},
}

// allocBytesSpans also report bytes allocated per call.
var allocBytesSpans = map[string]bool{
	"core.network.build": true, "core.plancache.bind": true, "serve.encode": true, "workloads.build": true,
}

// perLayer aggregates the spans and pipeline counters. A layer the
// workload never calls reports 0.
func perLayer(pl *pipeline) map[string]metric {
	durs := map[string][]time.Duration{}
	allocs := map[string][2]uint64{} // total allocs, total bytes
	for _, s := range pl.t.spans {
		durs[s.Name] = append(durs[s.Name], time.Duration(s.End-s.Start))
		if s.measured {
			a := allocs[s.Name]
			allocs[s.Name] = [2]uint64{a[0] + s.Allocs, a[1] + s.Bytes}
		}
	}
	m := map[string]metric{}
	for _, sm := range spanMetrics {
		d := durs[sm.span]
		m[sm.span+".us"] = metric{p50us(d), unitUs}
		if sm.allocs {
			a := allocs[sm.span]
			m[sm.span+".allocs"] = metric{nanToZero(float64(a[0]) / float64(len(d))), unitAllocs}
			if allocBytesSpans[sm.span] {
				m[sm.span+".bytes"] = metric{nanToZero(float64(a[1]) / float64(len(d))), unitBytes}
			}
		}
	}
	m["core.faulttol.detected"] = metric{nanToZero(float64(pl.detected) / float64(pl.faulted)), "count/call"}
	m["core.faulttol.recompiled"] = metric{nanToZero(float64(pl.recompiled) / float64(pl.faulted)), "count/call"}
	m["noc.packets"] = metric{nanToZero(float64(pl.nocPackets) / float64(pl.nocPoints)), "count/call"}
	return m
}

func p50us(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return float64(s[(len(s)-1)/2]) / float64(time.Microsecond)
}

// sweepEfficiency is the share of the server's sweep pool time spent
// running points, over the window between two snapshots.
func sweepEfficiency(before, after serve.MetricsSnapshot) float64 {
	b, a := before.Sweep, after.Sweep
	if a.Points == b.Points || a.Workers == 0 {
		return 0
	}
	busy := float64(a.Points)*a.MeanPointWallMs - float64(b.Points)*b.MeanPointWallMs
	return nanToZero(busy / ((a.WallMs - b.WallMs) * float64(a.Workers)))
}

// writeSpans writes the spans as JSON lines under the build directory and
// returns the file's path.
func writeSpans(workload string, seed int64, spans []span) (string, error) {
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
