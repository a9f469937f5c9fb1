package oracle

import (
	"testing"

	"repro/internal/cache"
)

// TestDifferentialCampaign is the headline check: 64 seeds × every
// Policies entry of generated workloads through the fast implementations
// and the oracles in lockstep, zero divergences allowed. This is the same
// grid `ssdcheck -quick` runs from make check.
func TestDifferentialCampaign(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 8
	}
	res := RunCampaign(CampaignConfig{
		Seeds:    seeds,
		Requests: 192,
		Logf:     t.Logf,
	})
	if res.Failed() {
		t.Fatalf("%s: %v", res.Summary(), res.Divergences[0])
	}
	if want := seeds * len(Policies); res.Runs != want {
		t.Fatalf("campaign ran %d workloads, want %d", res.Runs, want)
	}
}

// TestRunSingleSpecs exercises the runner on tiny hand-written specs so a
// campaign regression localizes to a policy quickly.
func TestRunSingleSpecs(t *testing.T) {
	reqs := []cache.Request{
		{Time: 1, Write: true, LPN: 0, Pages: 8},
		{Time: 2, Write: true, LPN: 4, Pages: 2},
		{Time: 3, Write: false, LPN: 0, Pages: 6},
		{Time: 4, Write: true, LPN: 10, Pages: 7},
		{Time: 5, Write: true, LPN: 0, Pages: 3},
		{Time: 6, Write: true, LPN: 16, Pages: 8},
		{Time: 7, Write: true, LPN: 3, Pages: 1},
	}
	for _, spec := range []Spec{
		{Policy: "req-block", CapacityPages: 12, Delta: 3, Merge: true, Recency: true, Requests: reqs},
		{Policy: "req-block", CapacityPages: 12, Delta: 3, Requests: reqs},
		{Policy: "lru", CapacityPages: 12, Requests: reqs},
		{Policy: "bplru", CapacityPages: 12, PagesPerBlock: 4, Requests: reqs},
		{Policy: "bplru", CapacityPages: 12, PagesPerBlock: 4, Padding: true, Requests: reqs},
		{Policy: "fab", CapacityPages: 12, PagesPerBlock: 4, Requests: reqs},
		{Policy: "lfu", CapacityPages: 12, Requests: reqs},
		{Policy: "pud-lru", CapacityPages: 12, PagesPerBlock: 4, Requests: reqs},
	} {
		if d := Run(spec); d != nil {
			t.Errorf("policy %s (padding=%v merge=%v): %v", spec.Policy, spec.Padding, spec.Merge, d)
		}
	}
}

// TestGenerateDeterministic pins the generator contract the repro corpus
// relies on: same inputs, same workload.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, "req-block", 50)
	b := Generate(42, "req-block", 50)
	if a.CapacityPages != b.CapacityPages || a.Delta != b.Delta || len(a.Requests) != len(b.Requests) {
		t.Fatalf("generator not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
}
