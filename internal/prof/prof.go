// Package prof wires the standard runtime/pprof profile outputs into the
// repo's commands. Commands register the -cpuprofile/-memprofile flags,
// call Start after flag parsing and Stop before exiting; because the
// commands exit through os.Exit (which skips deferred calls), Stop is
// invoked explicitly on every path rather than deferred.
//
// The resulting files feed `go tool pprof` directly; docs/PERFORMANCE.md
// walks through the workflow. Do labels the long-lived goroutines, so the
// same profiles split by layer and shard.
package prof

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
)

// Do runs f on the calling goroutine under the pprof labels layer and
// shard, so CPU and goroutine profiles split by them (`go tool pprof
// -tags`). A negative shard labels a goroutine that serves every shard
// "all". The goroutine's labels are cleared when f returns.
func Do(layer string, shard int, f func()) {
	s := "all"
	if shard >= 0 {
		s = strconv.Itoa(shard)
	}
	pprof.Do(context.Background(), pprof.Labels("layer", layer, "shard", s), func(context.Context) { f() })
}

// Flags holds the profile destinations registered on a FlagSet.
type Flags struct {
	cpu *string
	mem *string

	cpuFile *os.File
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling when -cpuprofile was given. It must run
// after flag parsing.
func (f *Flags) Start() error {
	if *f.cpu == "" {
		return nil
	}
	file, err := os.Create(*f.cpu)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("prof: %w", err)
	}
	f.cpuFile = file
	return nil
}

// Stop finishes the CPU profile and writes the heap profile. It is safe
// to call when no profiling was requested, and must be called on every
// exit path (the commands exit via os.Exit, so a defer would be skipped).
func (f *Flags) Stop() error {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		f.cpuFile = nil
	}
	if *f.mem == "" {
		return nil
	}
	file, err := os.Create(*f.mem)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	defer file.Close()
	runtime.GC() // capture the steady-state live set, not transient garbage
	if err := pprof.Lookup("allocs").WriteTo(file, 0); err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	return nil
}
