package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestSuiteDigestsPinned locks the JSON bytes of the whole suite, so the
// builders and the generators under them (R-MAT graphs, sparse matrices,
// join relations) cannot change a workload unnoticed, and checks that Named
// returns exactly the suite's entry for every name.
func TestSuiteDigestsPinned(t *testing.T) {
	cases := []struct {
		cfg  SuiteConfig
		want string
	}{
		{SuiteConfig{Nodes: 256, Seed: 1, Scaled: true}, "588cbc73fdbb81c22b7f6eda1c53d9ae194c2c9d26b877764c488bc50e84bb0c"},
		{SuiteConfig{Nodes: 256, Seed: 2, Scaled: true}, "a15f52e325dca186430a5bafa35381e4d58929ef5c8fc619e80e681b07d5ced6"},
		{SuiteConfig{Nodes: 64, Seed: 3, Scaled: true}, "c5df9e808fd5910c64643f98a202d77f1b438e915c141e6e6de4f62e555d74ba"},
		{SuiteConfig{Nodes: 128, Seed: 4, Scaled: true}, "d7170bdd0a282b7bed3d442164239307dfe5a7e1a450af6aa326259cb6ff9d09"},
		{SuiteConfig{Nodes: 256, Seed: 1, Scaled: false}, "3131fef27ff83e968cccfeb77c9604757948ed5eb87c5fefb0382f059560840f"},
	}
	for _, c := range cases {
		if !c.cfg.Scaled && testing.Short() {
			continue // the paper-sized suite takes seconds
		}
		all, err := Suite(c.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%+v: suite digest %s, want %s", c.cfg, got, c.want)
		}
		for i, e := range suite {
			wl, err := Named(e.name, c.cfg)
			if err != nil {
				t.Fatalf("%+v: Named(%s): %v", c.cfg, e.name, err)
			}
			if !reflect.DeepEqual(wl, all[i]) {
				t.Errorf("%+v: Named(%s) differs from the suite entry", c.cfg, e.name)
			}
		}
	}
}

// TestNamedBuildsOnlyItsWorkload checks that one workload's limits do not
// reach the others: NTT caps the DPU count at its 256 columns, and every
// other workload still resolves above that.
func TestNamedBuildsOnlyItsWorkload(t *testing.T) {
	for _, nodes := range []int{512, 2560} {
		cfg := SuiteConfig{Nodes: nodes, Seed: 1, Scaled: true}
		for _, name := range []string{"BFS", "CC", "GEMV", "MLP", "SpMV", "EMB", "Join", "PIMfused"} {
			wl, err := Named(name, cfg)
			if err != nil {
				t.Fatalf("Named(%s) at %d DPUs: %v", name, nodes, err)
			}
			if !strings.HasPrefix(wl.Name, name) || len(wl.Phases) == 0 {
				t.Fatalf("Named(%s) at %d DPUs = %q with %d phases", name, nodes, wl.Name, len(wl.Phases))
			}
		}
	}
	_, err := Named("NTT", SuiteConfig{Nodes: 512, Seed: 1, Scaled: true})
	if err == nil || !strings.Contains(err.Error(), "building NTT") ||
		!strings.Contains(err.Error(), "512 DPUs exceed 256 columns") {
		t.Fatalf("Named(NTT) at 512 DPUs: %v", err)
	}
	_, err = Named("upmem", SuiteConfig{Nodes: 512, Seed: 1, Scaled: true})
	if err == nil || !strings.Contains(err.Error(),
		"have BFS, CC, GEMV, MLP, SpMV, EMB, NTT, Join, PIMfused") {
		t.Fatalf("Named(upmem): %v", err)
	}
}

func BenchmarkNamedWorkload(b *testing.B) {
	cfg := SuiteConfig{Nodes: 256, Seed: 1, Scaled: true}
	for _, name := range []string{"BFS", "CC", "GEMV", "MLP", "SpMV", "EMB", "NTT", "Join", "PIMfused"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Named(name, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
