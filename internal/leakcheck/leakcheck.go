// Package leakcheck is a dependency-free goroutine-leak assertion for
// tests, in the spirit of go.uber.org/goleak: snapshot the goroutines that
// belong to this module at test start, and fail the test if any of them
// (or new ones) are still alive at cleanup after a grace period.
//
// The guard keys on stack frames mentioning the module path, so runtime,
// testing, and net/http background goroutines never count. It is meant to
// wrap the concurrent machinery in this repo — the sharded replay's
// router/relay/merger pipeline and the serve package's shard workers —
// and runs under -race in `make check` (see the race-sharded target).
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// modulePrefix identifies goroutines owned by this repository: any frame
// in the goroutine's stack that begins with "repro/" marks it ours.
const modulePrefix = "repro/"

// Check registers a cleanup that fails t if goroutines created inside this
// module outlive the test. Call it first in the test; goroutines already
// running at that point (e.g. a shared telemetry server started by an
// earlier test) are grandfathered in via the baseline count.
func Check(t testing.TB) {
	t.Helper()
	baseline := ours()
	t.Cleanup(func() {
		// Workers and mergers unwind asynchronously after channels close;
		// give them a grace period before declaring a leak.
		deadline := time.Now().Add(5 * time.Second)
		var leaked []string
		for {
			leaked = ours()
			if len(leaked) <= len(baseline) || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if len(leaked) > len(baseline) {
			t.Errorf("leakcheck: %d module goroutines leaked (baseline %d):\n%s",
				len(leaked)-len(baseline), len(baseline), strings.Join(leaked, "\n---\n"))
		}
	})
}

// ours returns the stacks of live goroutines with at least one frame in
// this module, excluding the caller's own goroutine.
func ours() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // first entry is the calling goroutine
		}
		if !strings.Contains(g, modulePrefix) {
			continue
		}
		// Parked-forever helpers owned by the runtime/testing plumbing can
		// mention module frames via created-by lines only after exit; keep
		// the filter simple — a module frame anywhere counts.
		out = append(out, g)
	}
	return out
}

// Snapshot returns a human-readable dump of the module's goroutines, for
// debugging a failed Check.
func Snapshot() string {
	g := ours()
	return fmt.Sprintf("%d module goroutines:\n%s", len(g), strings.Join(g, "\n---\n"))
}
