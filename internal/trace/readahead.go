package trace

import (
	"sync"

	"repro/internal/prof"
)

// Read-ahead geometry: a filled batch is handed over per readAheadBatch
// requests, and readAheadRing batches circulate, so the filler runs at
// most readAheadRing-1 batches ahead of the consumer.
const (
	readAheadBatch = 512
	readAheadRing  = 4
)

// ReadAhead is a Source that pulls another Source on its own goroutine,
// in fixed batches through a small ring of recycled buffers, so parsing
// runs beside the consumer instead of on its critical path. It yields
// exactly the wrapped source's request sequence.
//
// The wrapped source belongs to the filler goroutine until Close returns;
// only then may the caller touch it again (e.g. a Scanner's SkippedLines).
type ReadAhead struct {
	name string
	src  Source

	// Both channels hold the whole ring, so no send on them blocks.
	full chan []Request // filled batches; the filler closes it on exit
	free chan []Request // drained batches, back to the filler
	stop chan struct{}  // closed by Close
	once sync.Once

	cur []Request // batch being drained
	pos int       // next request in cur
	err error     // the source's Err, set before full closes
}

// NewReadAhead starts a filler goroutine on src. The caller must Close
// the result, on every path, to join it.
func NewReadAhead(src Source) *ReadAhead {
	r := &ReadAhead{
		name: src.Name(),
		src:  src,
		full: make(chan []Request, readAheadRing),
		free: make(chan []Request, readAheadRing),
		stop: make(chan struct{}),
	}
	for i := 0; i < readAheadRing; i++ {
		r.free <- make([]Request, 0, readAheadBatch)
	}
	go prof.Do("readahead", -1, r.fill)
	return r
}

// fill is the filler goroutine: it parses batches until the source ends
// or Close asks it to stop.
func (r *ReadAhead) fill() {
	defer close(r.full)
	for {
		var b []Request
		select {
		case <-r.stop:
			return
		case b = <-r.free:
		}
		b = b[:0]
		for len(b) < cap(b) {
			req, ok := r.src.Next()
			if !ok {
				break
			}
			b = append(b, req)
		}
		if len(b) > 0 {
			r.full <- b
		}
		if len(b) < cap(b) {
			r.err = r.src.Err()
			return
		}
	}
}

// Name returns the wrapped source's name.
func (r *ReadAhead) Name() string { return r.name }

// Next returns the next request, waiting for the filler when the current
// batch is drained.
func (r *ReadAhead) Next() (Request, bool) {
	if r.pos < len(r.cur) {
		req := r.cur[r.pos]
		r.pos++
		return req, true
	}
	if r.cur != nil {
		r.free <- r.cur
		r.cur = nil
	}
	b, ok := <-r.full
	if !ok {
		return Request{}, false
	}
	r.cur, r.pos = b, 1
	return b[0], true
}

// Err returns the wrapped source's error once Next has returned false.
func (r *ReadAhead) Err() error { return r.err }

// Close stops the filler and waits for it to exit, discarding what it
// read ahead. The filler finishes the Next call it may be inside first,
// so a source whose Next blocks holds Close up as long. Safe to call more
// than once and after the stream has ended.
func (r *ReadAhead) Close() {
	r.once.Do(func() { close(r.stop) })
	for range r.full {
	}
}
