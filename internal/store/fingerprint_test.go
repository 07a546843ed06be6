package store

import (
	"testing"

	"pimnet/internal/collective"
	"pimnet/internal/config"
	"pimnet/internal/core"
)

// TestFingerprintDeterministic: within one binary the fingerprint is a
// fixed 64-hex-digit string — that stability is what makes a restart warm.
func TestFingerprintDeterministic(t *testing.T) {
	fp1, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp1) != 64 {
		t.Fatalf("fingerprint %q is not a hex SHA-256", fp1)
	}
	fp2, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint changed within one process: %s vs %s", fp1, fp2)
	}
}

// compile produces a real (plan key, blueprint) pair for adapter tests.
func compile(t *testing.T, dpus int) (core.PlanKey, *core.Blueprint) {
	t.Helper()
	sys, err := config.Default().WithDPUs(dpus)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(sys)
	if err != nil {
		t.Fatal(err)
	}
	req := collective.Request{Pattern: collective.AllReduce, Op: collective.Sum,
		BytesPerNode: 32 << 10, ElemSize: 4, Nodes: dpus}
	plan, err := core.PlanFor(n, req)
	if err != nil {
		t.Fatal(err)
	}
	return core.KeyFor(n, req), plan
}

// TestPlanAdapterRoundTrip: a blueprint stored through the adapter loads
// back with the identical digest — the persistence hook cannot change what
// a plan lookup returns.
func TestPlanAdapterRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	a := PlanAdapter{S: s}
	k, bp := compile(t, 64)

	if _, ok := a.LoadBlueprint(k); ok {
		t.Fatal("empty store reported a blueprint")
	}
	a.StoreBlueprint(k, bp)
	got, ok := a.LoadBlueprint(k)
	if !ok {
		t.Fatal("stored blueprint missing")
	}
	if got.Digest() != bp.Digest() {
		t.Fatalf("digest changed through persistence: %s vs %s", got.Digest(), bp.Digest())
	}
	if st := s.Stats(); st.Plans.Writes != 1 || st.Plans.Hits != 1 {
		t.Fatalf("plan namespace stats: %+v", st.Plans)
	}
}

// TestPlanAdapterRejectsUndecodablePayload: a perfectly framed blob whose
// payload is not a blueprint envelope is codec-level corruption — the load
// is a miss, the entry is rejected and counted, never bound.
func TestPlanAdapterRejectsUndecodablePayload(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	a := PlanAdapter{S: s}
	k, _ := compile(t, 64)
	mustPut(t, s, NSPlans, k.Digest(), []byte("framed fine, but not an envelope"))

	if _, ok := a.LoadBlueprint(k); ok {
		t.Fatal("undecodable payload reported as a blueprint")
	}
	st := s.Stats()
	if st.Plans.Corrupt != 1 || st.Plans.Entries != 0 {
		t.Fatalf("after codec rejection: %+v", st.Plans)
	}
	// The poisoned entry is gone: a subsequent store-then-load works.
	_, bp := compile(t, 64)
	a.StoreBlueprint(k, bp)
	if _, ok := a.LoadBlueprint(k); !ok {
		t.Fatal("recovery store-then-load failed")
	}
}
