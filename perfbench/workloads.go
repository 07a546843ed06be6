package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"pimnet/internal/serve"
)

// request is one generated HTTP request: the endpoint and its JSON body.
type request struct {
	path string
	body []byte
	// points is the number of experiment points the request asks for.
	points int
}

// stream yields one client's deterministic request sequence. Streams are
// infinite: a closed-loop client takes the next request until its time is up.
type stream interface{ next() request }

// workload is one traffic mix. The program sees only the requests its
// streams generate; every property of the mix is a function of the seed.
type workload struct {
	name string
	// store gives the server a persistent plan & result store.
	store bool
	// ephemeralPlans keeps compiled plans only for the request that
	// compiles them: the plan cache is not persisted to the store, and it is
	// cleared after every request (see exploreStream).
	ephemeralPlans bool
	// streams returns one fresh stream per closed-loop client.
	streams func(seed int64) []stream
	// warmup returns the requests sent during set-up, before timing starts.
	// It may consume a prefix of the streams (explore's history grids).
	warmup func(seed int64, streams []stream) []request
}

var workloads = []workload{
	{name: "interactive", streams: interactiveStreams, warmup: interactiveWarmup},
	{name: "explore", store: true, ephemeralPlans: true, streams: exploreStreams, warmup: exploreWarmup},
	{name: "apps", streams: appsStreams, warmup: appsWarmup},
	{name: "noc", streams: nocStreams, warmup: nocWarmup},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// streamRand derives an independent generator for one purpose of one seed,
// so that adding a draw to one stream never shifts another.
func streamRand(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// deck deals its items in a seeded random order without replacement and
// reshuffles when it runs out, so every len(items) draws contain each item
// exactly once. A run's mix is then fixed by the workload, and the seed
// only changes its order, which keeps runs with different seeds comparable.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	next  int
}

func (d *deck[T]) draw() T {
	if d.next == 0 {
		d.rng.Shuffle(len(d.items), func(i, j int) { d.items[i], d.items[j] = d.items[j], d.items[i] })
	}
	v := d.items[d.next]
	d.next = (d.next + 1) % len(d.items)
	return v
}

// deckStream is a stream that deals pre-built requests from a deck.
type deckStream struct{ deck[request] }

func (s *deckStream) next() request { return s.draw() }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types are plain data
	}
	return b
}

// The seven Table V collective patterns.
var patterns = []string{"reducescatter", "allgather", "allreduce", "alltoall", "broadcast", "gather", "reduce"}

// otherBackends are the non-PIMnet substrates, by their wire names.
var otherBackends = []string{"baseline", "ideal", "ndpbridge", "dimmlink", "cxlpim"}

// supports reports whether a backend can run a pattern. NDPBridge forwards
// but cannot reduce, so the reducing patterns are left out at generation
// rather than counted as failures.
func supports(backend, pattern string) bool {
	if backend != "ndpbridge" {
		return true
	}
	return pattern != "reducescatter" && pattern != "allreduce" && pattern != "reduce"
}

// ---- interactive: warm single collectives on /v1/simulate ----

var (
	interactiveDPUs     = []int{256, 2560}
	interactivePayloads = []int64{4 << 10, 32 << 10, 256 << 10}
)

type collPoint struct {
	pattern string
	dpus    int
	bytes   int64
}

func simulateRequest(backend string, p collPoint) request {
	return request{
		path:   "/v1/simulate",
		body:   mustJSON(serve.SimulateRequest{Backend: backend, Pattern: p.pattern, BytesPerNode: p.bytes, DPUs: p.dpus}),
		points: 1,
	}
}

// interactiveStreams splits the 42 points between the two clients so that
// no point is ever in flight twice (nothing coalesces). Each (pattern,
// dpus) group's three payloads go two to one client and one to the other.
// A client's deck weights its groups equally and, within each point, gives
// PIMnet half the requests and spreads the rest evenly over the other
// backends that support the pattern, so both clients run the same mix of
// patterns, populations and backends whatever the seed.
func interactiveStreams(seed int64) []stream {
	split := streamRand(seed, 0)
	var decks [2][]request
	for _, pat := range patterns {
		var others []string
		for _, b := range otherBackends {
			if supports(b, pat) {
				others = append(others, b)
			}
		}
		for _, d := range interactiveDPUs {
			var g []collPoint
			for _, i := range split.Perm(len(interactivePayloads)) {
				g = append(g, collPoint{pat, d, interactivePayloads[i]})
			}
			k := 1 + split.Intn(2)
			for c, own := range [2][]collPoint{g[:k], g[k:]} {
				for _, p := range own {
					for rep := 0; rep < 2/len(own); rep++ {
						for _, b := range others {
							decks[c] = append(decks[c], simulateRequest("pimnet", p), simulateRequest(b, p))
						}
					}
				}
			}
		}
	}
	return []stream{
		&deckStream{deck[request]{rng: streamRand(seed, 1), items: decks[0]}},
		&deckStream{deck[request]{rng: streamRand(seed, 2), items: decks[1]}},
	}
}

// interactiveWarmup sends every distinct request the interactive streams
// can produce, once: it fills the plan cache, and its checked responses
// are the reference bytes for the run.
func interactiveWarmup(int64, []stream) []request {
	var out []request
	for _, pat := range patterns {
		for _, d := range interactiveDPUs {
			for _, by := range interactivePayloads {
				p := collPoint{pat, d, by}
				out = append(out, simulateRequest("pimnet", p))
				for _, b := range otherBackends {
					if supports(b, pat) {
						out = append(out, simulateRequest(b, p))
					}
				}
			}
		}
	}
	return out
}

// ---- explore: /v1/sweep grids against a persistent store ----

var exploreDPUs = []int{64, 256, 1024}

const (
	explorePayloads = 4 // payloads per grid
	exploreRevisits = 2 // of which already swept for the pattern
	exploreWorkers  = 2
	// Novel payloads are 4 KiB plus a multiple of 64 B, up to 1 MiB: enough
	// distinct values per pattern that no run can use them all up.
	explorePayloadSteps = 16320
)

// exploreStream emits 3x4 grids swept on 2 workers. The first
// len(patterns) grids sweep each pattern once with novel payloads (the
// set-up history); after that each grid revisits two payloads already swept
// for its pattern — result-store reads — and adds two novel ones, which
// compile and write their results.
//
// Plans are ephemeral in this workload (workload.ephemeralPlans), for two
// reasons measured on a 2-vCPU host with the store on its ext4 disk. A plan
// blob is 0.1-1.3 MB at these populations and each store write pays two
// fsyncs, so persisting plans made the sweeps disk-bound: half the
// throughput, and a 20-25% spread between runs. And the plan cache never
// evicts, so a run grew the heap by about 100 MB/s. Clearing the cache
// after each grid changes no lookup's outcome here: novel points are new
// keys, and revisits are answered by the result store before any plan
// lookup.
type exploreStream struct {
	rng      *rand.Rand
	patterns deck[string]
	n        int
	history  map[string][]int64
	used     map[string]map[int64]bool
}

func (s *exploreStream) next() request {
	pat := patterns[s.n%len(patterns)]
	if s.n >= len(patterns) {
		pat = s.patterns.draw()
	}
	s.n++
	hist := s.history[pat]
	var payloads []int64
	if len(hist) >= exploreRevisits {
		for _, i := range s.rng.Perm(len(hist))[:exploreRevisits] {
			payloads = append(payloads, hist[i])
		}
	}
	for len(payloads) < explorePayloads {
		b := int64(4<<10 + 64*s.rng.Intn(explorePayloadSteps))
		if s.used[pat][b] {
			continue
		}
		s.used[pat][b] = true
		s.history[pat] = append(s.history[pat], b)
		payloads = append(payloads, b)
	}
	s.rng.Shuffle(len(payloads), func(i, j int) { payloads[i], payloads[j] = payloads[j], payloads[i] })
	return request{
		path:   "/v1/sweep",
		body:   mustJSON(serve.SweepRequest{Pattern: pat, DPUs: exploreDPUs, BytesPerNode: payloads, Workers: exploreWorkers}),
		points: len(exploreDPUs) * len(payloads),
	}
}

func exploreStreams(seed int64) []stream {
	s := &exploreStream{rng: streamRand(seed, 3), history: map[string][]int64{}, used: map[string]map[int64]bool{},
		patterns: deck[string]{rng: streamRand(seed, 10), items: append([]string(nil), patterns...)}}
	for _, p := range patterns {
		s.used[p] = map[int64]bool{}
	}
	return []stream{s}
}

func exploreWarmup(_ int64, streams []stream) []request {
	out := make([]request, len(patterns))
	for i := range out {
		out[i] = streams[0].next()
	}
	return out
}

// ---- apps: workload runs and faulted collectives on /v1/simulate ----

var (
	appWorkloads = []string{"BFS", "CC", "GEMV", "MLP", "SpMV", "EMB", "NTT", "Join", "PIMfused"}
	appSeeds     = []int64{1, 2, 3, 4}
	// Fault seeds whose stuck pairing lands on the compiled ring of the
	// default 4x8x8 channel, so detection and recompilation actually run.
	appFaultSeeds = []int64{4, 22, 24, 33}
)

func workloadRequest(name string, seed int64) request {
	return request{path: "/v1/simulate", body: mustJSON(serve.SimulateRequest{Workload: name, Seed: seed}),
		points: 1}
}

func faultedRequest(seed int64) request {
	return request{
		path: "/v1/simulate",
		body: mustJSON(serve.SimulateRequest{Pattern: "allreduce", BytesPerNode: 32 << 10, DPUs: 256,
			Faults: "fail-chip=1", FaultSeed: seed}),
		points: 1,
	}
}

// appsStreams gives each client two of the four seeds of every workload and
// two of the four fault seeds, so the clients never send the same request.
// A client's deck holds every workload with each of its seeds twice and
// each of its fault seeds nine times: one request in three is a faulted
// AllReduce.
func appsStreams(seed int64) []stream {
	split := streamRand(seed, 4)
	var decks [2][]request
	halves := func(vals []int64) [2][]int64 {
		p := split.Perm(len(vals))
		var h [2][]int64
		for i, j := range p {
			h[i*2/len(vals)] = append(h[i*2/len(vals)], vals[j])
		}
		return h
	}
	for _, name := range appWorkloads {
		for c, seeds := range halves(appSeeds) {
			for _, s := range seeds {
				decks[c] = append(decks[c], workloadRequest(name, s), workloadRequest(name, s))
			}
		}
	}
	for c, seeds := range halves(appFaultSeeds) {
		for _, s := range seeds {
			for rep := 0; rep < len(appWorkloads); rep++ {
				decks[c] = append(decks[c], faultedRequest(s))
			}
		}
	}
	return []stream{
		&deckStream{deck[request]{rng: streamRand(seed, 5), items: decks[0]}},
		&deckStream{deck[request]{rng: streamRand(seed, 6), items: decks[1]}},
	}
}

// appsWarmup runs every workload once, which compiles the collectives the
// workloads use into the plan cache; other seeds reuse the same plans.
func appsWarmup(int64, []stream) []request {
	out := make([]request, len(appWorkloads))
	for i, name := range appWorkloads {
		out[i] = workloadRequest(name, appSeeds[0])
	}
	return out
}

// ---- noc: /v1/noc/sweep adversarial grids ----

const (
	nocRanks, nocChips, nocBanks = 4, 8, 8
	nocSeedPool                  = 8
)

func nocRequest(seed int64) request {
	return request{
		path:   "/v1/noc/sweep",
		body:   mustJSON(serve.NocSweepRequest{Ranks: nocRanks, Chips: nocChips, Banks: nocBanks, Seed: seed, Workers: 2}),
		points: len(nocGrid(seed)),
	}
}

// nocSeeds draws the pool of traffic seeds a run's requests use. A small
// pool makes requests repeat, which the byte-identity check needs.
func nocSeeds(seed int64) []int64 {
	rng := streamRand(seed, 7)
	seen := map[int64]bool{}
	var out []int64
	for len(out) < nocSeedPool {
		s := 1 + rng.Int63n(1<<31)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func nocStreams(seed int64) []stream {
	var items []request
	for _, s := range nocSeeds(seed) {
		items = append(items, nocRequest(s))
	}
	return []stream{&deckStream{deck[request]{rng: streamRand(seed, 8), items: items}}}
}

// nocWarmup runs one grid: the NoC has nothing to compile or cache, so
// set-up is the server plus one request's worth of first-use costs.
func nocWarmup(seed int64, _ []stream) []request { return []request{nocRequest(nocSeeds(seed)[0])} }
