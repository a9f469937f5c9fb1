package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// span is one host-time interval at a layer boundary. Spans of one
// request share its id (the trace ordinal in a replay, the op sequence
// number in serve-http); parent names the enclosing span of the same
// request ("" for the request's root span).
type span struct {
	name, cat  string
	tid        int
	id         int64
	parent     string
	start, end int64 // ns since the run's probe base
}

// writeChromeTrace writes spans as Chrome trace-event JSON, the format
// Perfetto opens and cmd/tracecheck validates: one complete ("X") slice
// per span, microsecond timestamps, and thread-name metadata per track.
// Root spans carry cat "request" so tracecheck tracks them as parents.
func writeChromeTrace(path, process string, threads map[int]string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","traceEvents":[`+"\n")
	fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":%q}}`, process)
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		fmt.Fprintf(w, ",\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, threads[tid])
	}
	// Order by id, then root first and children by start, so a reader
	// sees each request's tree together.
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.id != b.id {
			return a.id < b.id
		}
		if (a.parent == "") != (b.parent == "") {
			return a.parent == ""
		}
		return a.start < b.start
	})
	for _, s := range spans {
		dur := max(0, s.end-s.start)
		fmt.Fprintf(w, ",\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%d.%03d,"dur":%d.%03d,"args":{"id":%d,"parent":%q}}`,
			s.name, s.cat, s.tid, s.start/1000, s.start%1000, dur/1000, dur%1000, s.id, s.parent)
	}
	fmt.Fprintf(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
