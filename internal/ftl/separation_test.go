package ftl

import (
	"math/rand"
	"testing"
)

// churnWA drives a skewed overwrite workload on a nearly full device and
// returns the resulting write amplification.
func churnWA(t *testing.T, separateGC bool) float64 {
	t.Helper()
	p := tinyParams()
	p.BlocksPerPlane = 16
	p.PagesPerBlock = 8
	p.OverProvision = 0.2
	f, err := NewConfigFull(p, true, separateGC)
	if err != nil {
		t.Fatal(err)
	}
	logical := f.LogicalPages()
	if err := f.Precondition(0.9); err != nil {
		t.Fatal(err)
	}
	// 80% of writes hammer 10% of the space; the rest spread out. The
	// skew is what separation exploits: GC survivors are cold, and
	// keeping them out of hot blocks concentrates future invalidations.
	rng := rand.New(rand.NewSource(42))
	hot := logical / 10
	for i := 0; i < 6000; i++ {
		var lpn int64
		if rng.Intn(10) < 8 {
			lpn = rng.Int63n(hot)
		} else {
			lpn = hot + rng.Int63n(logical-hot)
		}
		if _, err := f.WriteStriped(int64(i)*1000, []int64{lpn}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.HostPrograms == 0 {
		t.Fatal("no host writes")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return float64(st.HostPrograms+st.GCMigrations) / float64(st.HostPrograms)
}

func TestGCStreamSeparationReducesWA(t *testing.T) {
	with := churnWA(t, true)
	without := churnWA(t, false)
	if with <= 1 || without <= 1 {
		t.Fatalf("workload produced no GC: %v / %v", with, without)
	}
	if with > without*1.02 {
		t.Fatalf("separation raised WA: %.3f vs %.3f", with, without)
	}
	t.Logf("WA with separation %.3f, without %.3f", with, without)
}

// TestSeparationKeepsStreamsInDistinctBlocks checks, after every write of
// a skewed overwrite churn on a preconditioned device, that a plane with
// more than one free block keeps its host and GC frontiers in different
// blocks. With one or fewer, allocOnPlane merges the GC stream into the
// host block on purpose. The precondition leaves cold valid pages in every
// victim, so GC migrates.
func TestSeparationKeepsStreamsInDistinctBlocks(t *testing.T) {
	p := tinyParams()
	p.BlocksPerPlane = 16
	p.PagesPerBlock = 8
	p.OverProvision = 0.2
	f, err := NewConfigFull(p, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Precondition(0.9); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	logical := f.LogicalPages()
	hot := logical / 10
	both := 0 // checks that found both frontiers open
	for i := 0; i < 3000; i++ {
		lpn := rng.Int63n(logical)
		if rng.Intn(10) < 8 {
			lpn = rng.Int63n(hot)
		}
		if _, err := f.WriteStriped(int64(i)*1000, []int64{lpn}); err != nil {
			t.Fatal(err)
		}
		for pl := range f.activeBlock {
			a, g := f.activeBlock[pl], f.gcActive[pl]
			if a < 0 || g < 0 || len(f.freeBlocks[pl]) <= 1 {
				continue
			}
			both++
			if a == g {
				t.Fatalf("write %d, plane %d with %d free blocks: host and GC streams share block %d",
					i, pl, len(f.freeBlocks[pl]), a)
			}
		}
	}
	if f.Stats().GCMigrations == 0 || both == 0 {
		t.Fatalf("%d GC migrations, %d checks with both frontiers open: the churn did not separate streams",
			f.Stats().GCMigrations, both)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
