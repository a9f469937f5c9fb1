package oracle

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
)

// TestVindexCampaignClean is the in-tree slice of the CI gate: a seed
// range crossed with every heap-indexed policy, each against its oracle
// without the FTL pair, zero divergences expected.
func TestVindexCampaignClean(t *testing.T) {
	res := RunCampaign(CampaignConfig{
		Seeds:    16,
		Mode:     ModeVindex,
		Requests: 192,
		Logf:     t.Logf,
	})
	if res.Failed() {
		t.Fatalf("vindex differential diverged: %v", res.Divergences[0])
	}
	if want := 16 * len(VictimPolicies); res.Runs != want {
		t.Fatalf("ran %d differentials, want %d", res.Runs, want)
	}
}

// TestVindexValidate pins the mode-specific spec validation.
func TestVindexValidate(t *testing.T) {
	base := GenerateVindex(1, "lfu", 8)
	if err := base.Validate(); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"unknown mode", func(s *Spec) { s.Mode = "warp" }, "unknown mode"},
		{"oracle-only policy", func(s *Spec) { s.Policy = "req-block" }, "unknown vindex policy"},
		{"mutation in vindex mode", func(s *Spec) { s.Mutation = MutDeltaOffByOne }, "mutations target the oracle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.edit(&spec)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestGenerateVindexDeterministic pins replayability: the same
// (seed, policy, n) must always yield the same Spec.
func TestGenerateVindexDeterministic(t *testing.T) {
	for _, pol := range VictimPolicies {
		a := GenerateVindex(42, pol, 64)
		b := GenerateVindex(42, pol, 64)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("policy %s: generation is not deterministic", pol)
		}
		if a.Mode != ModeVindex {
			t.Fatalf("policy %s: generated mode %q", pol, a.Mode)
		}
	}
}

// TestVindexReproRoundTrip pins the corpus serialization of vindex specs:
// the mode survives the JSON round trip (a spec silently losing its mode
// would replay the wrong differential) and the filename carries it.
func TestVindexReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := GenerateVindex(5, "lfu", 24)
	path, err := SaveRepro(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(path); !strings.HasPrefix(base, "vindex-lfu-") {
		t.Fatalf("repro filename %q does not carry the mode", base)
	}
	got, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeVindex || got.Policy != spec.Policy || len(got.Requests) != len(spec.Requests) {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if d := Run(got); d != nil {
		t.Fatalf("reloaded spec diverges: %v", d)
	}
}

// TestDiffModeResults gives the lockstep result comparator, which every
// mode but ModeGCSched runs through, teeth: every externally visible
// field difference must be reported, and equal results must not be.
func TestDiffModeResults(t *testing.T) {
	fast := cache.Result{
		Hits: 2, Misses: 1, Inserted: 1,
		ReadMisses: []int64{7},
		Evictions:  []cache.Eviction{{LPNs: []int64{3, 4}, BlockBound: true, PaddingReads: []int64{4}}},
	}
	mk := func() Result {
		return Result{
			Hits: 2, Misses: 1, Inserted: 1,
			ReadMisses: []int64{7},
			Evictions:  []Eviction{{LPNs: []int64{3, 4}, BlockBound: true, PaddingReads: []int64{4}}},
		}
	}
	if d := diffResults(fast, mk()); d != "" {
		t.Fatalf("equal results reported as diverged: %s", d)
	}
	cases := []struct {
		name string
		edit func(*Result)
	}{
		{"hits", func(r *Result) { r.Hits++ }},
		{"inserted", func(r *Result) { r.Inserted-- }},
		{"read misses", func(r *Result) { r.ReadMisses = []int64{8} }},
		{"batch count", func(r *Result) { r.Evictions = r.Evictions[:0] }},
		{"victim order", func(r *Result) { r.Evictions[0].LPNs = []int64{4, 3} }},
		{"block binding", func(r *Result) { r.Evictions[0].BlockBound = false }},
		{"padding reads", func(r *Result) { r.Evictions[0].PaddingReads = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := mk()
			tc.edit(&o)
			if diffResults(fast, o) == "" {
				t.Fatal("difference not detected")
			}
		})
	}
}
