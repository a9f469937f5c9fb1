package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Event lines of a small valid document: one request slice with two
// blame children and one instant of each kind, on shard 0's track.
const (
	meta    = `{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"ssdsim"}}`
	request = `{"name":"req 3 write","cat":"request","ph":"X","pid":1,"tid":1,"ts":10.000,"dur":5.000,"args":{"index":3}}`
	queue   = `{"name":"queue","cat":"blame","ph":"X","pid":1,"tid":1,"ts":10.000,"dur":1.000,"args":{"index":3}}`
	evict   = `{"name":"evict","cat":"blame","ph":"X","pid":1,"tid":1,"ts":11.000,"dur":4.000,"args":{"index":3}}`
	batch   = `{"name":"evict request","cat":"evict","ph":"i","s":"t","pid":1,"tid":1,"ts":11.000,"args":{"index":3}}`
	move    = `{"name":"IRL to SRL","cat":"list","ph":"i","s":"t","pid":1,"tid":1,"ts":15.000,"args":{"index":3}}`
)

// checkDoc writes the events as a trace document and runs check on it.
func checkDoc(t *testing.T, events ...string) error {
	t.Helper()
	return checkFile(t, `{"displayTimeUnit":"ns","traceEvents":[`+strings.Join(events, ",\n")+"]}")
}

func checkFile(t *testing.T, text string) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return check(path)
}

func TestCheckAcceptsRequestBlameAndInstants(t *testing.T) {
	if err := checkDoc(t, meta, request, queue, evict, batch, move); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"instant outside parent", checkDoc(t, meta, request,
			strings.Replace(move, `"ts":15.000`, `"ts":15.001`, 1)), "outside parent"},
		{"instant before any request", checkDoc(t, meta, batch, request), "before any request slice"},
		{"instant on another tid", checkDoc(t, meta, request,
			strings.Replace(batch, `"tid":1`, `"tid":2`, 1)), "before any request slice"},
		{"instant without ts", checkDoc(t, meta, request,
			strings.Replace(batch, `"ts":11.000,`, "", 1)), "missing ts or tid"},
		{"blame outside parent", checkDoc(t, meta, request,
			strings.Replace(evict, `"dur":4.000`, `"dur":4.002`, 1)), "outside parent"},
		{"unknown ph", checkDoc(t, meta, request,
			strings.Replace(batch, `"ph":"i"`, `"ph":"B"`, 1)), `unexpected ph "B"`},
		{"event without pid", checkDoc(t, meta,
			strings.Replace(request, `"pid":1,`, "", 1)), "missing pid"},
		{"no traceEvents", checkFile(t, `{"displayTimeUnit":"ns"}`), "no traceEvents array"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, tc.err, tc.want)
		}
	}
}
