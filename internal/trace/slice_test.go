package trace

import "testing"

func sliceFixture() *Trace {
	t := &Trace{Name: "fix"}
	for i := int64(0); i < 10; i++ {
		t.Requests = append(t.Requests, Request{
			Time: i * 100, Write: i%2 == 0, Offset: i * 4096, Size: 4096,
		})
	}
	return t
}

func TestPrefix(t *testing.T) {
	p := Prefix(sliceFixture(), 3)
	if p.Len() != 3 || p.Requests[2].Offset != 2*4096 {
		t.Fatalf("Prefix wrong: %+v", p.Requests)
	}
	if Prefix(sliceFixture(), 100).Len() != 10 {
		t.Fatal("overlong prefix not clamped")
	}
	if Prefix(sliceFixture(), -1).Len() != 0 {
		t.Fatal("negative prefix not clamped")
	}
	// Must not alias the source.
	src := sliceFixture()
	p = Prefix(src, 2)
	p.Requests[0].Offset = 999
	if src.Requests[0].Offset == 999 {
		t.Fatal("Prefix aliases the source")
	}
}

func TestSampleSystematic(t *testing.T) {
	s := Sample(sliceFixture(), 3)
	if s.Len() != 4 { // indices 0,3,6,9
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	for i, want := range []int64{0, 3, 6, 9} {
		if s.Requests[i].Offset != want*4096 {
			t.Fatalf("sample[%d] = %+v", i, s.Requests[i])
		}
	}
	if Sample(sliceFixture(), 1).Len() != 10 {
		t.Fatal("k=1 must keep everything")
	}
}
