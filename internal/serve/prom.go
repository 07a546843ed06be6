package serve

import (
	"net/http"
	"sort"

	"pimnet/internal/metrics"
)

// Prometheus rendering of the metrics snapshot: GET /metrics. Every family
// derives from the same MetricsSnapshot the legacy JSON endpoint serves, so
// the two expositions can never disagree about a value — only about its
// spelling.

// promFamilies converts one snapshot into exposition families.
func promFamilies(snap MetricsSnapshot) []metrics.PromFamily {
	counter := func(name, help string, v float64, samples ...metrics.PromSample) metrics.PromFamily {
		if samples == nil {
			samples = []metrics.PromSample{{Value: v}}
		}
		return metrics.PromFamily{Name: name, Help: help, Kind: metrics.PromCounter, Samples: samples}
	}
	gauge := func(name, help string, v float64) metrics.PromFamily {
		return metrics.PromFamily{Name: name, Help: help, Kind: metrics.PromGauge,
			Samples: []metrics.PromSample{{Value: v}}}
	}

	fams := []metrics.PromFamily{
		gauge("pimnetd_uptime_seconds", "Seconds since the server started.", snap.UptimeSeconds),
	}

	// Per-endpoint request counters, sorted for deterministic scrapes.
	endpoints := make([]string, 0, len(snap.Requests))
	for ep := range snap.Requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	reqSamples := make([]metrics.PromSample, 0, len(endpoints))
	for _, ep := range endpoints {
		reqSamples = append(reqSamples, metrics.PromSample{
			Labels: [][2]string{{"endpoint", ep}}, Value: float64(snap.Requests[ep])})
	}
	fams = append(fams,
		counter("pimnetd_requests_total", "Requests received, by endpoint.", 0, reqSamples...),
		counter("pimnetd_responses_total", "Error responses, by status class.", 0,
			metrics.PromSample{Labels: [][2]string{{"class", "4xx"}}, Value: float64(snap.Status4xx)},
			metrics.PromSample{Labels: [][2]string{{"class", "5xx"}}, Value: float64(snap.Status5xx)}),
		counter("pimnetd_rejected_total", "Requests shed by admission control or draining.", float64(snap.Rejected)),
		counter("pimnetd_coalesced_total", "Requests served from another request's in-flight execution.", float64(snap.Coalesced)),
		gauge("pimnetd_in_flight", "Executions currently holding an admission slot.", float64(snap.InFlight)),
		gauge("pimnetd_queue_depth", "Requests waiting for an admission slot.", float64(snap.Queued)),
	)

	// Latency histogram: bucket bounds convert from milliseconds to the
	// Prometheus-conventional seconds.
	lat := snap.Latency
	cumulative := uint64(0)
	hsamples := make([]metrics.PromSample, 0, len(lat.Counts)+2)
	for i, c := range lat.Counts {
		cumulative += c
		le := "+Inf"
		if i < len(lat.BoundsMs) {
			le = metrics.PromBoundSeconds(lat.BoundsMs[i])
		}
		hsamples = append(hsamples, metrics.PromSample{Suffix: "_bucket",
			Labels: [][2]string{{"le", le}}, Value: float64(cumulative)})
	}
	hsamples = append(hsamples,
		metrics.PromSample{Suffix: "_sum", Value: lat.SumMs / 1000},
		metrics.PromSample{Suffix: "_count", Value: float64(lat.Count)})
	fams = append(fams, metrics.PromFamily{Name: "pimnetd_request_duration_seconds",
		Help: "Gated execution latency.", Kind: metrics.PromHistogram, Samples: hsamples})

	// Plan cache.
	pc := snap.PlanCache
	fams = append(fams,
		counter("pimnetd_plan_cache_hits_total", "Plan compilations answered from the in-memory cache.", float64(pc.Hits)),
		counter("pimnetd_plan_cache_misses_total", "Plan compilations that actually compiled.", float64(pc.Misses)),
		counter("pimnetd_plan_cache_disk_hits_total", "Plan compilations answered from the persistent store.", float64(pc.DiskHits)),
		gauge("pimnetd_plan_cache_entries", "Compiled plans resident in the cache.", float64(pc.Entries)),
		gauge("pimnetd_plan_cache_hit_rate", "Lifetime plan-cache hit rate (hits+disk_hits over lookups).", pc.HitRate),
	)

	// Sweep engine aggregate.
	fams = append(fams,
		counter("pimnetd_sweep_points_total", "Grid points executed across all sweep runs.", float64(snap.Sweep.Points)),
		gauge("pimnetd_sweep_plan_cache_hit_rate", "Plan-cache hit rate measured across sweep runs.", snap.Sweep.CacheHitRate),
	)

	// Persistent store, one family per counter with a namespace label
	// (absent without -store-dir).
	if st := snap.Store; st != nil {
		ns := func(pick func(StoreNSSnapshot) float64) []metrics.PromSample {
			return []metrics.PromSample{
				{Labels: [][2]string{{"namespace", "plans"}}, Value: pick(st.Plans)},
				{Labels: [][2]string{{"namespace", "results"}}, Value: pick(st.Results)},
			}
		}
		fams = append(fams,
			counter("pimnetd_store_hits_total", "Store reads answered from disk.", 0,
				ns(func(n StoreNSSnapshot) float64 { return float64(n.Hits) })...),
			counter("pimnetd_store_misses_total", "Store reads that fell through to recompute.", 0,
				ns(func(n StoreNSSnapshot) float64 { return float64(n.Misses) })...),
			counter("pimnetd_store_writes_total", "Store write-behinds.", 0,
				ns(func(n StoreNSSnapshot) float64 { return float64(n.Writes) })...),
			counter("pimnetd_store_evictions_total", "Store entries evicted by capacity.", 0,
				ns(func(n StoreNSSnapshot) float64 { return float64(n.Evictions) })...),
			counter("pimnetd_store_corrupt_total", "Store blobs rejected by checksum or codec.", 0,
				ns(func(n StoreNSSnapshot) float64 { return float64(n.Corrupt) })...),
			counter("pimnetd_store_divergent_total", "Store writes rejected for diverging from the stored bytes.", 0,
				ns(func(n StoreNSSnapshot) float64 { return float64(n.Divergent) })...),
			metrics.PromFamily{Name: "pimnetd_store_entries", Help: "Store entries resident, by namespace.",
				Kind: metrics.PromGauge, Samples: ns(func(n StoreNSSnapshot) float64 { return float64(n.Entries) })},
			metrics.PromFamily{Name: "pimnetd_store_bytes", Help: "Store bytes on disk, by namespace.",
				Kind: metrics.PromGauge, Samples: ns(func(n StoreNSSnapshot) float64 { return float64(n.Bytes) })},
		)
	}

	// Coordinator worker health and chunk dispatch (coordinator mode only).
	if cl := snap.Cluster; cl != nil {
		fams = append(fams,
			gauge("pimnetd_cluster_workers", "Workers configured behind the coordinator.", float64(len(cl.Workers))),
			gauge("pimnetd_cluster_healthy_workers", "Workers currently eligible for chunk placement.", float64(cl.HealthyWorkers)),
			counter("pimnetd_cluster_chunks_total", "Chunks dispatched (first attempts).", float64(cl.Chunks)),
			counter("pimnetd_cluster_chunk_retries_total", "Chunk re-dispatches after a failed attempt.", float64(cl.ChunkRetries)),
			counter("pimnetd_cluster_chunk_hedges_total", "Hedged duplicate dispatches of straggling chunks.", float64(cl.ChunkHedges)),
			counter("pimnetd_cluster_chunk_local_runs_total", "Chunks degraded to local execution on the coordinator.", float64(cl.ChunkLocalRuns)),
			counter("pimnetd_cluster_dispatch_errors_total", "Chunk dispatch attempts that failed.", float64(cl.DispatchErrors)),
		)
	}

	// Async jobs: queue depths and per-tenant counters.
	if jobs := snap.Jobs; jobs != nil {
		fams = append(fams,
			gauge("pimnetd_jobs_queued", "Async jobs waiting in tenant queues.", float64(jobs.Queued)),
			gauge("pimnetd_jobs_running", "Async jobs currently executing.", float64(jobs.Running)),
			gauge("pimnetd_jobs_tracked", "Async jobs tracked (queued, running, and finished within TTL).", float64(jobs.Tracked)),
		)
		pools := make([]string, 0, len(jobs.Tenants))
		for p := range jobs.Tenants {
			pools = append(pools, p)
		}
		sort.Strings(pools)
		var submitted, rejected, finished, queued, running, quota []metrics.PromSample
		for _, p := range pools {
			t := jobs.Tenants[p]
			lbl := [][2]string{{"tenant", p}}
			submitted = append(submitted, metrics.PromSample{Labels: lbl, Value: float64(t.Submitted)})
			rejected = append(rejected, metrics.PromSample{Labels: lbl, Value: float64(t.Rejected)})
			finished = append(finished,
				metrics.PromSample{Labels: [][2]string{{"outcome", "done"}, {"tenant", p}}, Value: float64(t.Done)},
				metrics.PromSample{Labels: [][2]string{{"outcome", "failed"}, {"tenant", p}}, Value: float64(t.Failed)},
				metrics.PromSample{Labels: [][2]string{{"outcome", "interrupted"}, {"tenant", p}}, Value: float64(t.Interrupted)})
			queued = append(queued, metrics.PromSample{Labels: lbl, Value: float64(t.Queued)})
			running = append(running, metrics.PromSample{Labels: lbl, Value: float64(t.Running)})
			quota = append(quota, metrics.PromSample{Labels: lbl, Value: float64(t.Quota)})
		}
		if len(pools) > 0 {
			fams = append(fams,
				counter("pimnetd_tenant_jobs_submitted_total", "Jobs submitted, by tenant pool.", 0, submitted...),
				counter("pimnetd_tenant_jobs_rejected_total", "Jobs rejected by quota or backlog, by tenant pool.", 0, rejected...),
				counter("pimnetd_tenant_jobs_finished_total", "Jobs finished, by tenant pool and outcome.", 0, finished...),
				metrics.PromFamily{Name: "pimnetd_tenant_jobs_queued", Help: "Jobs waiting, by tenant pool.",
					Kind: metrics.PromGauge, Samples: queued},
				metrics.PromFamily{Name: "pimnetd_tenant_jobs_running", Help: "Jobs executing, by tenant pool.",
					Kind: metrics.PromGauge, Samples: running},
				metrics.PromFamily{Name: "pimnetd_tenant_jobs_quota", Help: "Configured concurrent-job quota, by tenant pool.",
					Kind: metrics.PromGauge, Samples: quota},
			)
		}
	}
	return fams
}

// writeProm renders the snapshot as Prometheus text exposition.
func (s *Server) writeProm(w http.ResponseWriter, snap MetricsSnapshot) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	metrics.WriteProm(w, promFamilies(snap))
}
