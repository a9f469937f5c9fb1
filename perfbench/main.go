// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator or the HTTP service, checks that the
// outputs are correct, and prints every metric by name and unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured untraced. With --trace 1 they are the per-layer metrics,
// measured in a traced run that also writes its spans as Chrome
// trace-event JSON. A failed correctness check or workload guard prints
// correct=false and exits 1; a set-up error exits 2 without a result.
//
//	go build -o perfbench . && ./perfbench --workload replay-stream --seed 1 --seconds 30 --trace 0
//
// DESIGN.md explains the workloads, the metrics and the noise rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds generated inputs and the span file.
	workDir string
	// scale multiplies input sizes: 1 on the command line, smaller in
	// the benchmark's own tests.
	scale float64
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload returns: its counts, metrics and the
// correctness gate's findings.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	gate              gate
	notes             []string // printed before the result line
}

// gate collects failed correctness checks and workload guards.
type gate struct{ failures []string }

func (g *gate) check(ok bool, format string, args ...any) {
	if !ok {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

func (g *gate) noErr(err error, what string) {
	if err != nil {
		g.failures = append(g.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// workloads maps the --workload names to their runners.
var workloads = map[string]func(cfg config) (*outcome, error){
	"replay-stream":     runReplayStream,
	"replay-gc-sharded": runReplayGCSharded,
	"serve-http":        runServeHTTP,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{scale: 1}
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phases in seconds")
	fs.IntVar(&traced, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case traced != 0 && traced != 1:
		fmt.Fprintf(stderr, "perfbench: --trace %d, want 0 or 1\n", traced)
		return 2
	case cfg.seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.trace = traced == 1
	return runConfig(cfg, stdout, stderr)
}

// runConfig runs one configured invocation and prints its result.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if _, err := readCPUTicks(); err != nil {
		fmt.Fprintln(stderr, "perfbench: host-time metrics need the CPU steal count:", err)
		return 2
	}

	env := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	envLine, _ := json.Marshal(map[string]any{"env": env}) // a map of plain values always marshals
	fmt.Fprintln(stdout, string(envLine))

	out, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	units := endToEndUnits
	if cfg.trace {
		units = perLayerUnits
	}
	res := result{Correct: len(out.gate.failures) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric, len(units))}
	for name, unit := range units {
		v, ok := out.metrics[name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, name)
			return 2
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range out.gate.failures {
		fmt.Fprintln(stdout, "check failed:", f)
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err) // a NaN or Inf metric
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEndUnits and perLayerUnits are the metric catalog; BENCHMARK.json
// declares the same names and units (TestCatalogMatchesBenchmarkJSON).
var endToEndUnits = map[string]string{
	"throughput_req_per_s": "1/s",
	"cpu_us_per_req":       "us",
	"lat_p50_ms":           "ms",
	"setup_s":              "s",
	"max_rss_mb":           "MiB",
	"sim_resp_mean_us":     "us",
	"sim_resp_p99_us":      "us",
	"hit_ratio":            "ratio",
	"write_amp":            "ratio",
}

var perLayerUnits = map[string]string{
	"trace.next_ns":            "ns",
	"core.access_ns":           "ns",
	"core.evictions_per_kreq":  "1/kreq",
	"core.pages_per_eviction":  "pages",
	"cache.access_ns":          "ns",
	"cache.scan_per_eviction":  "entries",
	"sim.dispatch_ns":          "ns",
	"sim.engine_self_ns":       "ns",
	"sim.merge_wait_ns":        "ns",
	"sim.shard_busy_share":     "ratio",
	"ssd.flash_writes_per_req": "pages",
	"ssd.flash_reads_per_req":  "pages",
	"ssd.gc_runs_per_kreq":     "1/kreq",
	"ssd.gc_pause_us_per_req":  "us",
	"ssd.bp_stall_us_per_req":  "us",
	"serve.queue_us_p50":       "us",
	"serve.window_us_mean":     "us",
	"serve.service_us_p50":     "us",
	"serve.http_us_p50":        "us",
	"serve.shed_share":         "ratio",
	"serve.rejected_share":     "ratio",
	"gen.late_p50_ms":          "ms",
	"gen.late_p99_ms":          "ms",
	"gen.lat_p50_ms":           "ms",
	"gen.lat_p99_ms":           "ms",
	"go.allocs_per_req":        "count",
	"go.gc_cycles_per_kreq":    "1/kreq",
	"bench.trace_overhead":     "ratio",
	"bench.traced_ns_per_req":  "ns",
}

// notApplicable fills the per-layer metrics a workload has no layer for
// with 0, so every traced run reports the full catalog.
func notApplicable(m map[string]float64) {
	for name := range perLayerUnits {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
}

// maxRSSMiB is the process's peak resident set size so far.
func maxRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }
