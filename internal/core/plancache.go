package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"pimnet/internal/collective"
	"pimnet/internal/config"
)

// This file implements the compiled-plan cache. PIMnet's schedules are
// static: the same (system, request, step-overhead) tuple always compiles to
// the same plan, so sweeps that revisit a point — every weak-scaling study,
// every repeated workload iteration, every worker of a parallel sweep — can
// share one compilation instead of re-running the scheduler.
//
// A Plan names links by LinkRef, not by pointer, so it is independent of
// the Network it was compiled on, and the executor never writes to it: the
// cache stores one immutable instance and every network of the same
// topology replays it in place. A cache hit is a map lookup plus Bind's
// topology and pristinity check.
//
// Invalidation rule: the shared cache only ever serves and learns from
// pristine networks. Any hard fault, installed chip reordering, or
// degraded/failed link makes a network non-pristine; PlanVia then falls
// through to a direct compile, and recompiled (routed-around) plans stay in
// the per-backend recovery state (ftState.dplans), never in the shared
// cache. ClearFaults restores pristinity and with it cache eligibility.

// BlueprintOf checks that a plan compiled on n is cacheable and returns it
// unchanged: it must match n's topology and ride no dead route (a dead
// transfer means the plan was compiled around faults).
func BlueprintOf(p *Plan, n *Network) (*Blueprint, error) {
	if p.Topo != n.Topo {
		return nil, fmt.Errorf("core: plan topology %v != network topology %v", p.Topo, n.Topo)
	}
	for _, ph := range p.Phases {
		for si, st := range ph.Steps {
			for _, tr := range st.Transfers {
				if tr.Dead {
					return nil, fmt.Errorf("core: phase %s step %d: dead transfer is not cacheable", ph.Name, si)
				}
			}
		}
	}
	return p, nil
}

// Bind checks that the blueprint may run on n and returns it unchanged: the
// topologies must be equal and the network pristine, because a blueprint's
// refs name physical links without the fault-recompilation chip remap.
func (b *Blueprint) Bind(n *Network) (*Plan, error) {
	if n.Topo != b.Topo {
		return nil, fmt.Errorf("core: blueprint topology %v != network topology %v", b.Topo, n.Topo)
	}
	if !n.Pristine() {
		return nil, fmt.Errorf("core: cannot bind cached plan to a faulted network")
	}
	return b, nil
}

// PlanKey identifies one compilation point. config.System and
// collective.Request contain only scalar fields, so the struct is comparable
// and two keys are equal exactly when every parameter that can influence the
// compiled schedule is equal — the language's map semantics guarantee
// collision-freedom (locked in by FuzzPlanCacheKey).
type PlanKey struct {
	Sys            config.System
	Req            collective.Request
	StepOverheadPs int64
}

// KeyFor returns the cache key for compiling req on n as configured.
func KeyFor(n *Network, req collective.Request) PlanKey {
	return PlanKey{Sys: n.Sys, Req: req, StepOverheadPs: n.stepOverheadPs}
}

// KeyForSystem returns the cache key a network built from sys with the given
// step overhead would produce for req, without constructing the network.
// This is the serving tier's request identity: two requests with equal keys
// compile to the same blueprint, so a server can coalesce them onto one
// execution before any simulation state exists. It must stay consistent with
// KeyFor (locked in by TestKeyForSystemMatchesKeyFor).
func KeyForSystem(sys config.System, req collective.Request, stepOverheadPs int64) PlanKey {
	return PlanKey{Sys: sys, Req: req, StepOverheadPs: stepOverheadPs}
}

// Digest returns a hex SHA-256 over the key's canonical JSON encoding — a
// stable string form of the compilation point for logs, coalescing maps, and
// response bodies. PlanKey contains only scalar fields, so the encoding
// cannot fail and two equal keys always digest identically.
func (k PlanKey) Digest() string {
	b, err := json.Marshal(k)
	if err != nil {
		panic(fmt.Sprintf("core: plan key not encodable: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// Misses count true compiles: a lookup satisfied by the persistence layer is
// a DiskHit, not a miss — after a warm restart a fully persisted workload
// runs with Misses == 0.
type CacheStats struct {
	Hits, Misses uint64
	// DiskHits counts lookups that missed memory but were satisfied by the
	// attached BlueprintStore (zero when none is attached).
	DiskHits uint64
	Entries  int
}

// Sub returns the delta s - prev (for windowed measurements around a sweep).
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits - prev.Hits, Misses: s.Misses - prev.Misses,
		DiskHits: s.DiskHits - prev.DiskHits, Entries: s.Entries}
}

// BlueprintStore is the optional persistence layer under a PlanCache: a
// durable keyed blueprint store consulted on memory misses (read-through)
// and fed on fills (write-behind). Implementations must be safe for
// concurrent use and strictly best-effort — a load may always report false
// and a store may silently drop, but a load that reports true must return
// exactly the blueprint that was stored under k (internal/store enforces
// this with blob checksums plus the self-verifying blueprint envelope).
type BlueprintStore interface {
	LoadBlueprint(k PlanKey) (*Blueprint, bool)
	StoreBlueprint(k PlanKey, bp *Blueprint)
}

// PlanCache is a concurrency-safe keyed store of compiled-plan blueprints,
// shared by all workers of a sweep.
type PlanCache struct {
	mu       sync.Mutex
	plans    map[PlanKey]*Blueprint
	persist  BlueprintStore
	hits     uint64
	misses   uint64
	diskHits uint64
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[PlanKey]*Blueprint)}
}

// SetPersistence attaches (or, with nil, detaches) the durable blueprint
// store under the cache. Safe to call while the cache is in use; entries
// already in memory are unaffected.
func (c *PlanCache) SetPersistence(p BlueprintStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.persist = p
}

// Lookup returns the blueprint cached under k. Memory misses read through
// the attached persistence layer (counted as DiskHits and promoted into
// memory); only a miss at both layers counts as a Miss — the signal that a
// compile is about to happen.
func (c *PlanCache) Lookup(k PlanKey) (*Blueprint, bool) {
	c.mu.Lock()
	if bp, ok := c.plans[k]; ok {
		c.hits++
		c.mu.Unlock()
		return bp, true
	}
	p := c.persist
	c.mu.Unlock()

	if p != nil {
		// Disk I/O happens outside the lock so concurrent sweep workers do
		// not serialize on it. Two goroutines may both load the same key;
		// blueprints are immutable, so keeping the first promoted instance
		// is merely a de-dup, not a correctness need.
		if bp, ok := p.LoadBlueprint(k); ok {
			c.mu.Lock()
			if cur, dup := c.plans[k]; dup {
				bp = cur
			} else {
				c.plans[k] = bp
			}
			c.diskHits++
			c.mu.Unlock()
			return bp, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Insert stores bp under k. Blueprints are immutable after insertion; the
// cache and every network that replays it share the same instance. With persistence
// attached the fill is written behind to the durable store as well (the
// pristine-only rule is upstream: only blueprints extracted from pristine
// networks ever reach Insert).
func (c *PlanCache) Insert(k PlanKey, bp *Blueprint) {
	c.mu.Lock()
	c.plans[k] = bp
	p := c.persist
	c.mu.Unlock()
	if p != nil {
		p.StoreBlueprint(k, bp)
	}
}

// Stats snapshots the effectiveness counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits, Entries: len(c.plans)}
}

// Reset drops every in-memory entry and zeroes the counters. The attached
// persistence layer (if any) keeps its entries — Reset models a restart,
// which is exactly what persistence exists to survive.
func (c *PlanCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans = make(map[PlanKey]*Blueprint)
	c.hits, c.misses, c.diskHits = 0, 0, 0
}

// PlanVia compiles req for n through the cache. A nil cache or a
// non-pristine network falls through to a direct PlanFor — the cache never
// observes fault state in either direction, which is the whole invalidation
// story: fault recompilation happens outside it, and ClearFaults restores
// eligibility.
func PlanVia(c *PlanCache, n *Network, req collective.Request) (*Plan, error) {
	if c == nil || !n.Pristine() {
		return PlanFor(n, req)
	}
	k := KeyFor(n, req)
	if bp, ok := c.Lookup(k); ok {
		return bp.Bind(n)
	}
	p, err := PlanFor(n, req)
	if err != nil {
		return nil, err
	}
	bp, err := BlueprintOf(p, n)
	if err != nil {
		return nil, err
	}
	c.Insert(k, bp)
	return p, nil
}
