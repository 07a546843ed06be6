package core

import (
	"testing"

	"pimnet/internal/collective"
)

// The Execute benchmarks measure the replay hot path alone: the plan is
// compiled once and re-executed, which is exactly what a sweep point does
// after a warm cache bind. They are part of the regression-gated suite
// (make benchcmp): BENCH_baseline.json pins their latency and allocs/op.

func benchExecute(b *testing.B, pat collective.Pattern, dpus int) {
	b.Helper()
	n := testNet(b, dpus)
	plan, err := PlanFor(n, testReq(pat, dpus, 32<<10))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := n.Execute(plan); err != nil { // warm the scratch buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteAllReduce256(b *testing.B) {
	benchExecute(b, collective.AllReduce, 256)
}

func BenchmarkExecuteAllToAll256(b *testing.B) {
	benchExecute(b, collective.AllToAll, 256)
}

func BenchmarkExecuteAllReduce2560(b *testing.B) {
	benchExecute(b, collective.AllReduce, 2560)
}

func BenchmarkExecuteAllToAll2560(b *testing.B) {
	benchExecute(b, collective.AllToAll, 2560)
}

// TestExecuteSteadyStateZeroAllocs is the executor's allocation contract:
// after one warm-up replay has sized the network's execScratch, Execute
// allocates nothing — the property the benchcmp gate keeps from regressing.
func TestExecuteSteadyStateZeroAllocs(t *testing.T) {
	for _, pat := range []collective.Pattern{collective.AllReduce, collective.AllToAll} {
		n := testNet(t, 256)
		plan, err := PlanFor(n, testReq(pat, 256, 32<<10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Execute(plan); err != nil { // warm-up sizes the scratch
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := n.Execute(plan); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("%v: steady-state Execute allocates %.1f times, want 0", pat, avg)
		}
	}
}

// TestWarmCollectiveZeroAllocs: a plan-cache hit runs the cached plan in
// place — a map lookup, the topology and pristinity check, and Execute — so
// a warm Collective allocates nothing at paper scale.
func TestWarmCollectiveZeroAllocs(t *testing.T) {
	p, err := NewPIMnet(testNet(t, 2560).Sys)
	if err != nil {
		t.Fatal(err)
	}
	p.WithPlanCache(NewPlanCache())
	req := testReq(collective.AllToAll, 2560, 32<<10)
	for i := 0; i < 2; i++ { // compile and fill, then size the scratch on a hit
		if _, err := p.Collective(req); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := p.Collective(req); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm Collective on a cache hit allocates %.1f times, want 0", avg)
	}
}

// TestNewNetworkAllocs: a network is one struct plus one flat link arena,
// whatever its size. Measured at 2560 DPUs: 2 allocations.
func TestNewNetworkAllocs(t *testing.T) {
	const maxAllocs = 2
	sys := testNet(t, 2560).Sys
	avg := testing.AllocsPerRun(10, func() {
		if _, err := NewNetwork(sys); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxAllocs {
		t.Fatalf("NewNetwork at 2560 DPUs allocates %.1f times, want <= %d", avg, maxAllocs)
	}
}
