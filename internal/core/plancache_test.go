package core

import (
	"fmt"
	"sync"
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
)

func testNet(t testing.TB, dpus int) *Network {
	t.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(sys)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testReq(pat collective.Pattern, nodes int, bytes int64) collective.Request {
	return collective.Request{Pattern: pat, Op: collective.Sum,
		BytesPerNode: bytes, ElemSize: 4, Nodes: nodes}
}

// TestBlueprintRoundTrip: a plan compiled on one network passes
// BlueprintOf and Bind onto a second, independently built network without
// being copied, and executes there to the identical result.
func TestBlueprintRoundTrip(t *testing.T) {
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllGather,
		collective.ReduceScatter, collective.AllToAll, collective.Broadcast} {
		src := testNet(t, 256)
		req := testReq(pat, 256, 32<<10)
		plan, err := PlanFor(src, req)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		bp, err := BlueprintOf(plan, src)
		if err != nil {
			t.Fatalf("%v: BlueprintOf: %v", pat, err)
		}
		dst := testNet(t, 256)
		bound, err := bp.Bind(dst)
		if err != nil {
			t.Fatalf("%v: Bind: %v", pat, err)
		}
		if bp != plan || bound != plan {
			t.Errorf("%v: BlueprintOf or Bind copied the plan", pat)
		}
		r1, err := src.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := dst.Execute(bound)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Time != r2.Time || r1.Breakdown != r2.Breakdown {
			t.Errorf("%v: bound plan executed differently: %v vs %v", pat, r1, r2)
		}
	}
}

// TestCachedPlanRunsConcurrently: the executor never writes to a plan, so
// one cached instance serves every network that replays it. Eight networks
// run one cached 256-DPU AllToAll concurrently through a shared cache (run
// it under -race); each gets the cached instance itself and the identical
// result.
func TestCachedPlanRunsConcurrently(t *testing.T) {
	const workers = 8
	c := NewPlanCache()
	req := testReq(collective.AllToAll, 256, 32<<10)
	first := testNet(t, 256)
	cached, err := PlanVia(c, first, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Execute(cached)
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*Network, workers)
	for i := range nets {
		nets[i] = testNet(t, 256)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, n := range nets {
		wg.Add(1)
		go func(i int, n *Network) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				p, err := PlanVia(c, n, req)
				if err != nil {
					errs[i] = err
					return
				}
				if p != cached {
					errs[i] = fmt.Errorf("network %d: cache hit returned a copy", i)
					return
				}
				got, err := n.Execute(p)
				if err != nil {
					errs[i] = err
					return
				}
				if got != want {
					errs[i] = fmt.Errorf("network %d run %d: %v, want %v", i, rep, got, want)
					return
				}
			}
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != workers*3 {
		t.Fatalf("cache stats %+v, want 1 miss and %d hits", s, workers*3)
	}
}

func TestBlueprintBindRejectsMismatchedTopology(t *testing.T) {
	src := testNet(t, 256)
	plan, err := PlanFor(src, testReq(collective.AllReduce, 256, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := BlueprintOf(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Bind(testNet(t, 64)); err == nil {
		t.Fatal("bound a 256-DPU blueprint to a 64-DPU network")
	}
}

func TestBlueprintBindRejectsFaultedNetwork(t *testing.T) {
	src := testNet(t, 256)
	plan, err := PlanFor(src, testReq(collective.AllReduce, 256, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := BlueprintOf(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	dst := testNet(t, 256)
	dst.link(LinkRef{Role: RefRing}).Degrade(0.5)
	if !dst.Pristine() {
		// expected: degraded link breaks pristinity
	} else {
		t.Fatal("degraded network still pristine")
	}
	if _, err := bp.Bind(dst); err == nil {
		t.Fatal("bound a cached plan to a faulted network")
	}
	dst.link(LinkRef{Role: RefRing}).Restore()
	if !dst.Pristine() {
		t.Fatal("restored network not pristine")
	}
	if _, err := bp.Bind(dst); err != nil {
		t.Fatalf("restored network refused bind: %v", err)
	}
}

func TestPlanCacheCounters(t *testing.T) {
	c := NewPlanCache()
	n := testNet(t, 64)
	req := testReq(collective.AllReduce, 64, 4096)

	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after first compile: %+v", s)
	}
	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after repeat: %+v", s)
	}
	// A different request is a different key.
	if _, err := PlanVia(c, n, testReq(collective.AllGather, 64, 4096)); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("after second pattern: %+v", s)
	}
	c.Reset()
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("after reset: %+v", s)
	}
}

// TestPlanViaBypassesFaultedNetwork: a non-pristine network must neither
// read from nor write to the shared cache — fault recompilation stays
// outside it.
func TestPlanViaBypassesFaultedNetwork(t *testing.T) {
	c := NewPlanCache()
	n := testNet(t, 64)
	req := testReq(collective.AllReduce, 64, 4096)
	n.link(LinkRef{Role: RefRing}).Degrade(0.25)

	plan, err := PlanVia(c, n, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("nil plan")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("faulted network touched the cache: %+v", s)
	}
	// Restoration re-enables caching (the ClearFaults story).
	n.link(LinkRef{Role: RefRing}).Restore()
	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("restored network not cached: %+v", s)
	}
}

func TestPlanViaNilCache(t *testing.T) {
	n := testNet(t, 64)
	plan, err := PlanVia(nil, n, testReq(collective.AllReduce, 64, 4096))
	if err != nil || plan == nil {
		t.Fatalf("nil-cache compile: %v %v", plan, err)
	}
}

// TestKeyForDistinguishesStepOverhead: the same request on the same system
// with a different per-step overhead must occupy a distinct cache slot —
// the A1 ablation depends on this.
func TestKeyForDistinguishesStepOverhead(t *testing.T) {
	a := testNet(t, 64)
	b := testNet(t, 64)
	b.SetStepOverhead(1000)
	req := testReq(collective.AllReduce, 64, 4096)
	if KeyFor(a, req) == KeyFor(b, req) {
		t.Fatal("step overhead not part of the cache key")
	}
	if KeyFor(a, req) != KeyFor(testNet(t, 64), req) {
		t.Fatal("identical configurations produced distinct keys")
	}
}

// FuzzPlanCacheKey locks in the collision-freedom of the cache key: two
// (config, request, overhead) tuples map to the same key exactly when they
// are field-for-field equal. The key is a comparable struct, so Go's map
// semantics guarantee this; the fuzz target exists to catch a future
// refactor that replaces the struct key with a lossy digest.
func FuzzPlanCacheKey(f *testing.F) {
	f.Add(int64(32<<10), 64, 0, int64(0), int64(4096), 256, 1, int64(100))
	f.Add(int64(4096), 256, 1, int64(100), int64(4096), 256, 1, int64(100))
	f.Add(int64(0), 1, 3, int64(-1), int64(1), 2, 2, int64(7))
	f.Fuzz(func(t *testing.T, bytesA int64, nodesA, patA int, ohA int64,
		bytesB int64, nodesB, patB int, ohB int64) {
		sys := config.Default()
		mkKey := func(bytes int64, nodes, pat int, oh int64) PlanKey {
			return PlanKey{
				Sys: sys,
				Req: collective.Request{Pattern: collective.Pattern(pat % 8), Op: collective.Sum,
					BytesPerNode: bytes, ElemSize: 4, Nodes: nodes},
				StepOverheadPs: oh,
			}
		}
		ka := mkKey(bytesA, nodesA, patA, ohA)
		kb := mkKey(bytesB, nodesB, patB, ohB)
		tupleEqual := bytesA == bytesB && nodesA == nodesB && patA%8 == patB%8 && ohA == ohB

		if (ka == kb) != tupleEqual {
			t.Fatalf("key equality %v but tuple equality %v\nka=%+v\nkb=%+v",
				ka == kb, tupleEqual, ka, kb)
		}
		// And the map behaves accordingly: inserting under ka hits on kb
		// exactly when the tuples are equal.
		c := NewPlanCache()
		c.Insert(ka, &Blueprint{})
		_, ok := c.Lookup(kb)
		if ok != tupleEqual {
			t.Fatalf("cache hit=%v for tuple equality %v", ok, tupleEqual)
		}
	})
}

// TestKeyForSystemMatchesKeyFor: the network-free key path the serving tier
// uses must agree with the key a built network produces, for both the default
// and a configured step overhead.
func TestKeyForSystemMatchesKeyFor(t *testing.T) {
	n := testNet(t, 64)
	req := testReq(collective.AllReduce, 64, 4096)
	if got, want := KeyForSystem(n.Sys, req, 0), KeyFor(n, req); got != want {
		t.Fatalf("KeyForSystem = %+v, KeyFor = %+v", got, want)
	}
	n.SetStepOverhead(250)
	if got, want := KeyForSystem(n.Sys, req, 250), KeyFor(n, req); got != want {
		t.Fatalf("with overhead: KeyForSystem = %+v, KeyFor = %+v", got, want)
	}
}

// TestPlanKeyDigest: equal keys digest identically; any single-parameter
// change produces a different digest.
func TestPlanKeyDigest(t *testing.T) {
	n := testNet(t, 64)
	req := testReq(collective.AllReduce, 64, 4096)
	k := KeyFor(n, req)
	if k.Digest() != KeyForSystem(n.Sys, req, 0).Digest() {
		t.Fatal("equal keys digest differently")
	}
	variants := []PlanKey{
		KeyForSystem(n.Sys, testReq(collective.AllGather, 64, 4096), 0),
		KeyForSystem(n.Sys, testReq(collective.AllReduce, 64, 8192), 0),
		KeyForSystem(n.Sys, req, 77),
	}
	seen := map[string]bool{k.Digest(): true}
	for i, v := range variants {
		d := v.Digest()
		if seen[d] {
			t.Fatalf("variant %d digest collides: %s", i, d)
		}
		seen[d] = true
	}
}
