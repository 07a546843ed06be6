package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
)

// testBlueprint compiles a real plan and lifts it into a blueprint.
func testBlueprint(t *testing.T, dpus int) (*Blueprint, PlanKey) {
	t.Helper()
	n := testNet(t, dpus)
	req := testReq(collective.AllReduce, dpus, 32<<10)
	plan, err := PlanFor(n, req)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := BlueprintOf(plan, n)
	if err != nil {
		t.Fatal(err)
	}
	return bp, KeyFor(n, req)
}

// TestBlueprintCodecRoundTrip: encode -> decode preserves the compiled
// artifact exactly — same digest, bindable, executes identically to the
// original — and re-encoding is byte-deterministic (the property
// FuzzStoreRoundTrip relies on from the store side).
func TestBlueprintCodecRoundTrip(t *testing.T) {
	bp, _ := testBlueprint(t, 256)
	data, err := EncodeBlueprint(bp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBlueprint(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != bp.Digest() {
		t.Fatalf("digest changed across codec: %s vs %s", back.Digest(), bp.Digest())
	}
	again, err := EncodeBlueprint(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("encode -> decode -> encode is not byte-identical")
	}

	// The decoded artifact is a working plan, not just matching hashes.
	n := testNet(t, 256)
	plan, err := back.Bind(n)
	if err != nil {
		t.Fatalf("decoded blueprint does not bind: %v", err)
	}
	r1, err := n.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	n2 := testNet(t, 256)
	orig, err := bp.Bind(n2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := n2.Execute(orig)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.Breakdown != r2.Breakdown {
		t.Fatalf("decoded blueprint executed differently: %v vs %v", r1, r2)
	}
}

// TestBlueprintCodecRejects: every malformed envelope shape errors — and
// never panics, never returns a blueprint that is not the encoded one.
func TestBlueprintCodecRejects(t *testing.T) {
	bp, _ := testBlueprint(t, 64)
	good, err := EncodeBlueprint(bp)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"not json":          []byte("certainly { not json"),
		"empty":             {},
		"no blueprint":      []byte(`{"digest": "abc"}`),
		"null blueprint":    []byte(`{"digest": "abc", "blueprint": null}`),
		"truncated":         good[:len(good)/2],
		"tampered digest":   bytes.Replace(good, []byte(bp.Digest()[:16]), []byte("0123456789abcdef"), 1),
		"tampered schedule": bytes.Replace(good, []byte(`"MemBytes":`), []byte(`"MemBytes":1`), 1),
	}
	for name, data := range cases {
		if got, err := DecodeBlueprint(data); err == nil {
			t.Errorf("%s: decoded to %v, want error", name, got)
		}
	}

	if _, err := EncodeBlueprint(nil); err == nil {
		t.Error("EncodeBlueprint(nil) succeeded")
	}
}

// codecPins are the SHA-256 digests of EncodeBlueprint's output for every
// golden-corpus cell. They pin the persisted bytes, not just the schedule:
// a change to field order, field set or number encoding would make every
// existing store see ErrDivergent on rewrite.
var codecPins = map[string]string{
	"allreduce_64":       "c233e48cfa469ee105db7257b15f6a6195a1dfd33c763bb619f7dee2c6eb3a40",
	"allreduce_256":      "3f3d2a0afd8159b7c2e3bb5444e1484cacedf452b6c0a3b4c5f49bafd54c81a5",
	"allreduce_2560":     "8b2049cb6c95eb142727b1b0cae13942cf6b61acb1a9f21596765905bc51b64a",
	"allgather_64":       "2599f5c56765cb0f160bd32542df0777f2b4d23b993248d29480db1cd6b8d9e5",
	"allgather_256":      "a31439caff79302576870bf326b0b11011e9023ae1809a5cebe8a891bb612d36",
	"allgather_2560":     "39d54d2a695b08f522f458ea71e56c466568eebc594fcd4f3ba57c00778dbe83",
	"reducescatter_64":   "31e529b87bfa209a1859eb3b74966ee487f8acaba6bc1b849e8d3f36a3f1d0a9",
	"reducescatter_256":  "f372cb729d268f9d182ab1a3b3aed4363d97201042300e18abe202f9732dac6d",
	"reducescatter_2560": "229ee0e37dc855515824a0401110dd83c207fa4d637e4e6415337e300c6f35b7",
	"alltoall_64":        "1ae253ee4e38b0c521e62f34d2e3bc6f60e0e4bbdcce91b4701c9036542033b8",
	"alltoall_256":       "63501327d3fa92f1a14f591182e3e1fbf9504ac72da2478b1a9c5e64689aa213",
	"alltoall_2560":      "822d8c4eac8d3b2a5f569a511809c000dabb264a9704b4bfcc6b0eb54cf80cc8",
}

// TestBlueprintCodecBytesPinned: the envelope bytes of every golden cell
// hash to their pinned value.
func TestBlueprintCodecBytesPinned(t *testing.T) {
	for _, pat := range goldenMatrix.patterns {
		for _, dpus := range goldenMatrix.dpus {
			n := testNet(t, dpus)
			plan, err := PlanFor(n, testReq(pat, dpus, 32<<10))
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeBlueprint(plan)
			if err != nil {
				t.Fatal(err)
			}
			cell := strings.TrimSuffix(filepath.Base(goldenFile(pat, dpus)), ".json")
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != codecPins[cell] {
				t.Errorf("%s: envelope bytes drifted: sha256 %s, pinned %s", cell, got, codecPins[cell])
			}
		}
	}
}

// TestDecodeRejectsForgedRef: the envelope digest is not a secret, so a
// forger can recompute it over any schedule. A blueprint naming a link
// outside its topology must still fail to decode.
func TestDecodeRejectsForgedRef(t *testing.T) {
	bp, _ := testBlueprint(t, 64)
	tr := &bp.Phases[0].Steps[0].Transfers[0]
	tr.Ref.Index = int32(bp.Topo.Banks)
	forged, err := EncodeBlueprint(bp) // recomputes the digest
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeBlueprint(forged); err == nil {
		t.Fatalf("forged ref %+v decoded to %v", tr.Ref, got)
	}
}

// FuzzBlueprintDecode: DecodeBlueprint never panics, and any envelope it
// accepts executes on a network of its topology without panicking. Run
// with `go test -fuzz=FuzzBlueprintDecode ./internal/core`.
func FuzzBlueprintDecode(f *testing.F) {
	// Seeds stay small so mutation is fast: a 2x2x2 hierarchy still
	// exercises every tier and link role.
	sys := config.Default()
	sys.Ranks, sys.ChipsPerRank, sys.BanksPerChip = 2, 2, 2
	n, err := NewNetwork(sys)
	if err != nil {
		f.Fatal(err)
	}
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllToAll} {
		plan, err := PlanFor(n, testReq(pat, 8, 4096))
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeBlueprint(plan)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"digest":"","blueprint":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		bp, err := DecodeBlueprint(data)
		if err != nil {
			return
		}
		topo := bp.Topo
		if topo.Ranks > 64 || topo.Chips > 64 || topo.Banks > 64 {
			return // valid, but too large to build here
		}
		sys := config.Default()
		sys.Ranks, sys.ChipsPerRank, sys.BanksPerChip = topo.Ranks, topo.Chips, topo.Banks
		n, err := NewNetwork(sys)
		if err != nil {
			t.Fatalf("accepted topology %v does not build: %v", topo, err)
		}
		if _, err := n.Execute(bp); err != nil {
			t.Fatalf("accepted blueprint does not execute: %v", err)
		}
	})
}

// memStore is an in-memory BlueprintStore that records traffic — the test
// double for the persistence hook.
type memStore struct {
	m      map[PlanKey][]byte
	loads  int
	stores int
	// corruptAll makes every stored payload undecodable, modeling a store
	// whose blobs survived but whose codec drifted.
	corruptAll bool
}

func newMemStore() *memStore { return &memStore{m: make(map[PlanKey][]byte)} }

func (p *memStore) LoadBlueprint(k PlanKey) (*Blueprint, bool) {
	p.loads++
	data, ok := p.m[k]
	if !ok {
		return nil, false
	}
	bp, err := DecodeBlueprint(data)
	if err != nil {
		return nil, false
	}
	return bp, true
}

func (p *memStore) StoreBlueprint(k PlanKey, bp *Blueprint) {
	p.stores++
	data, err := EncodeBlueprint(bp)
	if err != nil {
		return
	}
	if p.corruptAll {
		data = []byte("x" + string(data))
	}
	p.m[k] = data
}

// TestPlanCachePersistenceReadThrough: a fresh cache over a warm
// persistence layer serves lookups as DiskHits with zero Misses — the
// warm-restart contract at the cache layer — and promotes the loaded
// blueprint so the second lookup is a pure memory hit.
func TestPlanCachePersistenceReadThrough(t *testing.T) {
	bp, k := testBlueprint(t, 64)
	p := newMemStore()
	p.StoreBlueprint(k, bp)
	p.stores = 0

	c := NewPlanCache()
	c.SetPersistence(p)
	got, ok := c.Lookup(k)
	if !ok {
		t.Fatal("warm persistence layer missed")
	}
	if got.Digest() != bp.Digest() {
		t.Fatalf("persisted lookup changed the blueprint: %s vs %s", got.Digest(), bp.Digest())
	}
	if st := c.Stats(); st.Misses != 0 || st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("after disk hit: %+v", st)
	}
	if _, ok := c.Lookup(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c.Stats(); st.Hits != 1 || st.DiskHits != 1 || p.loads != 1 {
		t.Fatalf("promotion did not stick: %+v, loads %d", st, p.loads)
	}
}

// TestPlanCachePersistenceWriteBehind: Insert feeds the persistence layer,
// and a second cache over the same layer starts warm — while Reset (the
// in-process restart) keeps the durable entries by design.
func TestPlanCachePersistenceWriteBehind(t *testing.T) {
	bp, k := testBlueprint(t, 64)
	p := newMemStore()
	c := NewPlanCache()
	c.SetPersistence(p)
	c.Insert(k, bp)
	if p.stores != 1 {
		t.Fatalf("stores = %d, want 1", p.stores)
	}

	c2 := NewPlanCache()
	c2.SetPersistence(p)
	if _, ok := c2.Lookup(k); !ok {
		t.Fatal("second cache over the same layer is cold")
	}

	c.Reset()
	if _, ok := c.Lookup(k); !ok {
		t.Fatal("Reset dropped the durable entry")
	}
	if st := c.Stats(); st.Misses != 0 || st.DiskHits != 1 {
		t.Fatalf("post-Reset lookup: %+v", st)
	}
}

// TestPlanCachePersistenceMissAndDetach: a cold layer is a plain Miss; a
// detached cache never consults the layer again.
func TestPlanCachePersistenceMissAndDetach(t *testing.T) {
	_, k := testBlueprint(t, 64)
	p := newMemStore()
	c := NewPlanCache()
	c.SetPersistence(p)
	if _, ok := c.Lookup(k); ok {
		t.Fatal("cold everything reported a hit")
	}
	if st := c.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("cold lookup: %+v", st)
	}

	c.SetPersistence(nil)
	c.Lookup(k)
	if p.loads != 1 {
		t.Fatalf("detached cache still consulted the layer: loads = %d", p.loads)
	}
}

// TestPlanViaWithPersistence is the end-to-end cache-layer warm restart:
// compile once through PlanVia, then a brand-new cache over the same layer
// must serve the same schedule with zero compiles (Misses == 0) and execute
// identically.
func TestPlanViaWithPersistence(t *testing.T) {
	p := newMemStore()
	c := NewPlanCache()
	c.SetPersistence(p)
	n := testNet(t, 256)
	req := testReq(collective.AllGather, 256, 16<<10)
	plan1, err := PlanVia(c, n, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || p.stores != 1 {
		t.Fatalf("cold compile: %+v, stores %d", st, p.stores)
	}

	warm := NewPlanCache() // the restarted process
	warm.SetPersistence(p)
	n2 := testNet(t, 256)
	plan2, err := PlanVia(warm, n2, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Misses != 0 || st.DiskHits != 1 {
		t.Fatalf("warm restart still compiled: %+v", st)
	}
	r1, err := n.Execute(plan1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := n2.Execute(plan2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.Breakdown != r2.Breakdown {
		t.Fatalf("restored plan executed differently: %v vs %v", r1, r2)
	}
}

// TestPlanCachePersistenceSurvivesCorruptLayer: a layer whose payloads no
// longer decode degrades to recompute — lookups miss, PlanVia compiles,
// nothing panics, nothing wrong is served.
func TestPlanCachePersistenceSurvivesCorruptLayer(t *testing.T) {
	p := newMemStore()
	p.corruptAll = true
	c := NewPlanCache()
	c.SetPersistence(p)
	n := testNet(t, 64)
	req := testReq(collective.ReduceScatter, 64, 4<<10)
	if _, err := PlanVia(c, n, req); err != nil {
		t.Fatal(err)
	}

	fresh := NewPlanCache()
	fresh.SetPersistence(p)
	n2 := testNet(t, 64)
	if _, err := PlanVia(fresh, n2, req); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("corrupt layer produced a disk hit: %+v", st)
	}
}

// TestCacheStatsSubIncludesDiskHits: the windowed delta arithmetic the
// sweep engine uses must cover the new counter.
func TestCacheStatsSubIncludesDiskHits(t *testing.T) {
	a := CacheStats{Hits: 10, Misses: 4, DiskHits: 6, Entries: 3}
	b := CacheStats{Hits: 4, Misses: 1, DiskHits: 2, Entries: 2}
	d := a.Sub(b)
	if d.Hits != 6 || d.Misses != 3 || d.DiskHits != 4 || d.Entries != 3 {
		t.Fatalf("Sub = %+v", d)
	}
}
