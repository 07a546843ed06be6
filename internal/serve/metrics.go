package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"pimnet/internal/core"
	"pimnet/internal/metrics"
	"pimnet/internal/report"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the request
// latency histogram; the final implicit bucket is +Inf.
var latencyBucketsMs = [...]float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// histogram is a fixed-bucket latency histogram with atomic counters.
type histogram struct {
	counts [len(latencyBucketsMs) + 1]atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for ; i < len(latencyBucketsMs); i++ {
		if ms <= latencyBucketsMs[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// HistogramSnapshot is the wire form of the latency histogram. Bounds and
// Counts are parallel; the last count is the overflow (+Inf) bucket.
type HistogramSnapshot struct {
	BoundsMs []float64 `json:"bounds_ms"`
	Counts   []uint64  `json:"counts"`
	Count    uint64    `json:"count"`
	SumMs    float64   `json:"sum_ms"`
}

// serverMetrics aggregates the daemon's observability counters. Everything
// is either atomic or guarded by mu, so handlers update it without
// serializing on each other.
type serverMetrics struct {
	start time.Time

	simulate atomic.Uint64 // /v1/simulate requests
	sweep    atomic.Uint64 // /v1/sweep requests
	nocSweep atomic.Uint64 // /v1/noc/sweep requests (packet-level pattern grid)
	chunk    atomic.Uint64 // /v1/chunk requests (cluster-mode fan-out)
	healthz  atomic.Uint64
	metrics  atomic.Uint64
	// Job API endpoints.
	jobSubmit atomic.Uint64 // POST /v1/jobs
	jobStatus atomic.Uint64 // GET /v1/jobs/{id}
	jobResult atomic.Uint64 // GET /v1/jobs/{id}/result
	jobEvents atomic.Uint64 // GET /v1/jobs/{id}/events (SSE)

	status4xx atomic.Uint64
	status5xx atomic.Uint64
	rejected  atomic.Uint64 // 503s from admission saturation or draining
	coalesced atomic.Uint64 // followers served from another request's flight
	inFlight  atomic.Int64  // executions currently holding an admission slot

	latency histogram

	// sweepMu guards sweepAgg: metrics.SweepStats.Merge is not
	// concurrency-safe and multiple sweep requests finish in parallel.
	sweepMu  sync.Mutex
	sweepAgg metrics.SweepStats
}

// mergeSweep folds one sweep run's stats into the process aggregate.
func (m *serverMetrics) mergeSweep(s metrics.SweepStats) {
	m.sweepMu.Lock()
	defer m.sweepMu.Unlock()
	m.sweepAgg.Merge(s)
}

// recordStatus tallies a response's status class.
func (m *serverMetrics) recordStatus(status int) {
	switch {
	case status >= 500:
		m.status5xx.Add(1)
	case status >= 400:
		m.status4xx.Add(1)
	}
}

// MetricsSnapshot is the wire form of GET /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      map[string]uint64 `json:"requests"`
	Status4xx     uint64            `json:"responses_4xx"`
	Status5xx     uint64            `json:"responses_5xx"`
	Rejected      uint64            `json:"rejected"`
	Coalesced     uint64            `json:"coalesced"`
	InFlight      int64             `json:"in_flight"`
	Queued        int64             `json:"queued"`
	// PlanCache is the process-wide shared cache's lifetime counters.
	PlanCache PlanCacheSnapshot `json:"plan_cache"`
	// Sweep aggregates every /v1/sweep run's execution stats (including the
	// windowed plan-cache hit rate the sweep engine measures).
	Sweep   report.SweepStatsJSON `json:"sweep"`
	Latency HistogramSnapshot     `json:"latency"`
	// Store is the persistent plan/result store's counters (absent when the
	// daemon runs without -store-dir).
	Store *StoreSnapshot `json:"store,omitempty"`
	// Cluster is the coordinator's dispatch/health snapshot (coordinator
	// mode only; absent on plain daemons and workers).
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`
	// Jobs is the async job manager's queue depths and per-tenant counters.
	Jobs *JobsSnapshot `json:"jobs,omitempty"`
}

// ClusterSnapshot is a coordinator's dispatch counters and per-worker
// health. internal/cluster fills it through Config.ClusterMetrics.
type ClusterSnapshot struct {
	Workers        []ClusterWorker `json:"workers"`
	HealthyWorkers int             `json:"healthy_workers"`

	Sweeps         uint64 `json:"sweeps"`           // distributed sweeps started
	Chunks         uint64 `json:"chunks"`           // chunks dispatched (first attempts)
	ChunkRetries   uint64 `json:"chunk_retries"`    // re-dispatches after a failed attempt
	ChunkHedges    uint64 `json:"chunk_hedges"`     // hedged duplicates of stragglers
	ChunkLocalRuns uint64 `json:"chunk_local_runs"` // chunks degraded to local execution
	DispatchErrors uint64 `json:"dispatch_errors"`  // dispatch attempts that failed

	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	Ejections     uint64 `json:"ejections"`
	Readmissions  uint64 `json:"readmissions"`
}

// ClusterWorker is one worker's health in a ClusterSnapshot.
type ClusterWorker struct {
	Addr                string `json:"addr"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
}

// PlanCacheSnapshot is the wire form of core.CacheStats plus the derived hit
// rate. Misses count true compiles (a persisted-store hit is a DiskHit) —
// after a warm restart a fully persisted workload shows misses == 0.
type PlanCacheSnapshot struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	DiskHits uint64  `json:"disk_hits"`
	Entries  int     `json:"entries"`
	HitRate  float64 `json:"hit_rate"`
}

// snapshot renders the current counters. gateWaiting is the admission
// queue's current depth; cache is the process-wide plan cache; cluster is
// the coordinator snapshot (nil outside coordinator mode).
func (m *serverMetrics) snapshot(gateWaiting int64, cache *core.PlanCache, cluster *ClusterSnapshot, st *StoreSnapshot) MetricsSnapshot {
	cs := cache.Stats()
	rate := 0.0
	if total := cs.Hits + cs.DiskHits + cs.Misses; total > 0 {
		rate = float64(cs.Hits+cs.DiskHits) / float64(total)
	}
	hs := HistogramSnapshot{
		BoundsMs: latencyBucketsMs[:],
		Counts:   make([]uint64, len(m.latency.counts)),
		Count:    m.latency.count.Load(),
		SumMs:    float64(m.latency.sumNs.Load()) / float64(time.Millisecond),
	}
	for i := range m.latency.counts {
		hs.Counts[i] = m.latency.counts[i].Load()
	}
	m.sweepMu.Lock()
	agg := report.NewSweepStatsJSON(m.sweepAgg)
	m.sweepMu.Unlock()
	return MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests: map[string]uint64{
			"simulate":   m.simulate.Load(),
			"sweep":      m.sweep.Load(),
			"noc_sweep":  m.nocSweep.Load(),
			"chunk":      m.chunk.Load(),
			"healthz":    m.healthz.Load(),
			"metrics":    m.metrics.Load(),
			"jobs":       m.jobSubmit.Load(),
			"job_status": m.jobStatus.Load(),
			"job_result": m.jobResult.Load(),
			"job_events": m.jobEvents.Load(),
		},
		Status4xx: m.status4xx.Load(),
		Status5xx: m.status5xx.Load(),
		Rejected:  m.rejected.Load(),
		Coalesced: m.coalesced.Load(),
		InFlight:  m.inFlight.Load(),
		Queued:    gateWaiting,
		PlanCache: PlanCacheSnapshot{Hits: cs.Hits, Misses: cs.Misses, DiskHits: cs.DiskHits,
			Entries: cs.Entries, HitRate: rate},
		Sweep:   agg,
		Latency: hs,
		Store:   st,
		Cluster: cluster,
	}
}
