package cluster

import (
	"sync/atomic"

	"pimnet/internal/serve"
)

// Metrics aggregates the coordinator's dispatch and fleet-health counters.
// Everything is atomic; the serving tier renders the snapshot as the
// pimnetd_cluster_* families of GET /metrics and the "cluster" section of
// Server.Snapshot.
type Metrics struct {
	sweeps       atomic.Uint64 // distributed sweeps started
	chunks       atomic.Uint64 // chunks dispatched (first attempts)
	retries      atomic.Uint64 // chunk re-dispatches after a failed attempt
	hedges       atomic.Uint64 // hedged duplicate dispatches of stragglers
	localRuns    atomic.Uint64 // chunks degraded to local execution
	dispatchErrs atomic.Uint64 // individual dispatch attempts that failed

	probes        atomic.Uint64
	probeFailures atomic.Uint64
	ejections     atomic.Uint64
	readmissions  atomic.Uint64
}

// MetricsSnapshot renders the coordinator's current counters and per-worker
// health.
func (c *Coordinator) MetricsSnapshot() serve.ClusterSnapshot {
	s := serve.ClusterSnapshot{
		Sweeps:         c.met.sweeps.Load(),
		Chunks:         c.met.chunks.Load(),
		ChunkRetries:   c.met.retries.Load(),
		ChunkHedges:    c.met.hedges.Load(),
		ChunkLocalRuns: c.met.localRuns.Load(),
		DispatchErrors: c.met.dispatchErrs.Load(),
		Probes:         c.met.probes.Load(),
		ProbeFailures:  c.met.probeFailures.Load(),
		Ejections:      c.met.ejections.Load(),
		Readmissions:   c.met.readmissions.Load(),
	}
	for _, w := range c.reg.workers {
		w.mu.Lock()
		st := serve.ClusterWorker{Addr: w.addr, State: w.state.String(), ConsecutiveFailures: w.consecFails}
		healthy := w.state == StateHealthy
		w.mu.Unlock()
		s.Workers = append(s.Workers, st)
		if healthy {
			s.HealthyWorkers++
		}
	}
	return s
}
