package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pimnet/internal/serve"
)

// prefix draws n requests from each stream and the warm-up list.
func prefix(w workload, seed int64, n int) [][]byte {
	streams := w.streams(seed)
	var out [][]byte
	for _, r := range w.warmup(seed, streams) {
		out = append(out, r.body)
	}
	for _, s := range streams {
		for i := 0; i < n; i++ {
			out = append(out, s.next().body)
		}
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b := prefix(w, 7, 300), prefix(w, 7, 300)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d requests", w.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs under the same seed: %s vs %s", w.name, i, a[i], b[i])
			}
		}
	}
}

func TestDifferentSeedDifferentStream(t *testing.T) {
	for _, w := range workloads {
		a, b := prefix(w, 7, 300), prefix(w, 8, 300)
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = bytes.Equal(a[i], b[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}

// TestClientsNeverShareARequest pins the property that keeps coalescing
// out of the two-client workloads.
func TestClientsNeverShareARequest(t *testing.T) {
	for _, w := range workloads {
		streams := w.streams(3)
		owner := map[string]int{}
		for c, s := range streams {
			for i := 0; i < 2000; i++ {
				body := string(s.next().body)
				if o, ok := owner[body]; ok && o != c {
					t.Fatalf("%s: clients %d and %d both send %s", w.name, o, c, body)
				}
				owner[body] = c
			}
		}
	}
}

// serveBody sends one request through a fresh server and returns the body.
func serveBody(t *testing.T, srv *serve.Server, req request) []byte {
	t.Helper()
	rec := newRecorder()
	if code, _ := serveOnce(srv, rec, req); code != 200 {
		t.Fatalf("%s %s: status %d: %s", req.path, req.body, code, rec.body.Bytes())
	}
	return bytes.Clone(rec.body.Bytes())
}

func TestOracleFlagsCorruptedResponse(t *testing.T) {
	o, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	anchor := simulateRequest("pimnet", collPoint{"allreduce", 256, 32 << 10})
	sweepReq := request{path: "/v1/sweep", body: mustJSON(serve.SweepRequest{Pattern: "allgather",
		DPUs: []int{64}, BytesPerNode: []int64{4096, 8192}})}
	nocReq := nocRequest(5)
	cases := []struct {
		req     request
		corrupt func([]byte) []byte
	}{
		{anchor, func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"time_ps":111328164`), []byte(`"time_ps":111328165`), 1)
		}},
		{anchor, func(b []byte) []byte { return bytes.Replace(b, []byte(`"plan_key":"`), []byte(`"plan_key":"0`), 1) }},
		{workloadRequest("MLP", 2), func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"total_ps":`), []byte(`"total_ps":1`), 1)
		}},
		{faultedRequest(4), func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"detected":1`), []byte(`"detected":0`), 1)
		}},
		{sweepReq, func(b []byte) []byte { return bytes.Replace(b, []byte(`"time_ps":`), []byte(`"time_ps":9`), 1) }},
		{nocReq, func(b []byte) []byte { return bytes.ReplaceAll(b, []byte(`"packets":`), []byte(`"packets":7`)) }},
	}
	for _, c := range cases {
		body := serveBody(t, srv, c.req)
		if err := o.check(c.req, body); err != nil {
			t.Fatalf("%s: correct response rejected: %v", c.req.body, err)
		}
		bad := c.corrupt(body)
		if bytes.Equal(bad, body) {
			t.Fatalf("%s: corruption did not apply to %s", c.req.body, body)
		}
		if err := o.check(c.req, bad); err == nil {
			t.Errorf("%s: corrupted response accepted", c.req.body)
		}
	}

	// A repeat that differs from the first response is flagged too.
	ref := newReferences()
	body := serveBody(t, srv, anchor)
	if err := ref.observe(o, anchor, body); err != nil {
		t.Fatal(err)
	}
	if err := ref.observe(o, anchor, append(body, ' ')); err == nil {
		t.Error("a repeat with different bytes was accepted")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON runs both modes briefly and checks that
// each prints exactly the metrics BENCHMARK.json declares, with its units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	w, err := workloadNamed("noc")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		run  func(workload, int64, time.Duration, string) (result, map[string]any, error)
		want []struct{ Name, Unit string }
	}{
		{"end-to-end", runEndToEnd, spec.EndToEnd},
		{"traced", runTraced, spec.PerLayer},
	} {
		dir, err := runDir()
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := mode.run(w, 1, 300*time.Millisecond, dir)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", mode.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", mode.name, len(res.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s missing", mode.name, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", mode.name, m.Name, got.Unit, m.Unit)
			}
		}
	}
}
