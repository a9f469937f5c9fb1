package trace

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/leakcheck"
)

// numbered returns n requests whose fields encode their position.
func numbered(n int) *Trace {
	tr := &Trace{Name: "numbered"}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, Request{Time: int64(i) * 100, Write: i%3 == 0, Offset: int64(i) * 4096, Size: 4096})
	}
	return tr
}

// TestReadAheadYieldsSourceOrder drains read-ahead sources whose lengths
// straddle the batch and ring boundaries and compares every request.
func TestReadAheadYieldsSourceOrder(t *testing.T) {
	for _, n := range []int{0, 1, readAheadBatch - 1, readAheadBatch, readAheadBatch + 1,
		readAheadBatch * readAheadRing, readAheadBatch*readAheadRing + 7, 5000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			leakcheck.Check(t)
			tr := numbered(n)
			ra := NewReadAhead(tr.Source())
			defer ra.Close()
			if ra.Name() != tr.Name {
				t.Fatalf("Name = %q, want %q", ra.Name(), tr.Name)
			}
			got, err := Collect(ra)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Requests) != n {
				t.Fatalf("read %d requests, want %d", len(got.Requests), n)
			}
			for i, req := range got.Requests {
				if req != tr.Requests[i] {
					t.Fatalf("request %d = %+v, want %+v", i, req, tr.Requests[i])
				}
			}
			if _, ok := ra.Next(); ok {
				t.Fatal("Next after the end returned a request")
			}
		})
	}
}

// TestReadAheadParseErrorAfterLastGoodRequest feeds a CSV whose line
// 1501 is malformed: every request before it arrives, then Next ends and
// Err carries the scanner's error.
func TestReadAheadParseErrorAfterLastGoodRequest(t *testing.T) {
	leakcheck.Check(t)
	const good = 1500
	var buf bytes.Buffer
	if err := WriteMSR(&buf, numbered(good)); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("not,a,trace,line\n")
	if err := WriteMSR(&buf, numbered(100)); err != nil {
		t.Fatal(err)
	}
	want := Scan(bytes.NewReader(buf.Bytes()), "bad")
	wantTr, wantErr := Collect(want)
	if wantErr == nil || wantTr != nil {
		t.Fatal("the reference scan did not fail")
	}

	ra := NewReadAhead(Scan(bytes.NewReader(buf.Bytes()), "bad"))
	defer ra.Close()
	n := 0
	for {
		if _, ok := ra.Next(); !ok {
			break
		}
		n++
	}
	if n != good {
		t.Fatalf("read %d requests before the error, want %d", n, good)
	}
	if ra.Err() == nil || ra.Err().Error() != wantErr.Error() {
		t.Fatalf("Err = %v, want %v", ra.Err(), wantErr)
	}
}

// TestReadAheadCloseMidStream closes the source with most of it unread,
// and again after: the filler exits and leaves the source to the caller.
func TestReadAheadCloseMidStream(t *testing.T) {
	leakcheck.Check(t)
	src := numbered(20 * readAheadBatch).Source()
	ra := NewReadAhead(src)
	for i := 0; i < 10; i++ {
		if _, ok := ra.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	ra.Close()
	ra.Close()
	// The filler is joined, so the source is the caller's again.
	if _, ok := src.Next(); !ok {
		t.Fatal("the filler drained the whole source before Close")
	}
}
