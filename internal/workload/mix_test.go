package workload

import (
	"testing"

	"repro/internal/trace"
)

func TestMixInterleavesByTime(t *testing.T) {
	tr, err := Mix("mixed", Options{Scale: 0.01}, TS0(), USR0())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "mixed" || tr.Len() == 0 {
		t.Fatal("empty mix")
	}
	// The merged slice is sized once, from the tenants' lengths.
	if cap(tr.Requests) != tr.Len() {
		t.Fatalf("mix of %d requests has capacity %d", tr.Len(), cap(tr.Requests))
	}
	prev := int64(-1)
	for i, r := range tr.Requests {
		if r.Time < prev {
			t.Fatalf("request %d out of order: %d < %d", i, r.Time, prev)
		}
		prev = r.Time
	}
	// Both tenants contribute.
	ts0, usr0 := TS0(), USR0()
	boundary := ts0.FootprintPages * 4096
	var lo, hi int
	for _, r := range tr.Requests {
		if r.Offset < boundary {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Fatalf("tenants missing: %d/%d", lo, hi)
	}
	_ = usr0
}

func TestMixStacksAddressSpaces(t *testing.T) {
	a, b := TS0(), TS0() // identical profiles, decorrelated seeds
	tr, err := Mix("twins", Options{Scale: 0.01}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	limit := TotalFootprintPages(a, b) * 4096
	boundary := a.FootprintPages * 4096
	var second int
	for i, r := range tr.Requests {
		if r.Offset+r.Size > limit {
			t.Fatalf("request %d beyond stacked footprint", i)
		}
		if r.Offset >= boundary {
			second++
		}
	}
	if second == 0 {
		t.Fatal("second tenant silent")
	}
}

func TestMixDecorrelatesIdenticalProfiles(t *testing.T) {
	tr, err := Mix("twins", Options{Scale: 0.01}, TS0(), TS0())
	if err != nil {
		t.Fatal(err)
	}
	base := TS0().FootprintPages * 4096
	// The two tenants' request streams must differ (different seeds):
	// compare the first few offsets of each tenant.
	var first, second []int64
	for _, r := range tr.Requests {
		if r.Offset < base && len(first) < 20 {
			first = append(first, r.Offset)
		}
		if r.Offset >= base && len(second) < 20 {
			second = append(second, r.Offset-base)
		}
	}
	same := len(first) == len(second)
	if same {
		for i := range first {
			if first[i] != second[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("tenant streams identical — seed decorrelation broken")
	}
}

func TestMixPreservesAggregateStats(t *testing.T) {
	tr, err := Mix("m", Options{Scale: 0.02}, TS0(), HM1())
	if err != nil {
		t.Fatal(err)
	}
	s := trace.ComputeStats(tr, 4096)
	// ts_0 is 82% writes, hm_1 5%: the mix must land strictly between.
	if s.WriteRatio <= 0.05 || s.WriteRatio >= 0.83 {
		t.Fatalf("mixed write ratio %v outside tenant bounds", s.WriteRatio)
	}
}

func TestMixRejectsEmpty(t *testing.T) {
	if _, err := Mix("x", Options{}); err == nil {
		t.Fatal("empty profile list accepted")
	}
}
