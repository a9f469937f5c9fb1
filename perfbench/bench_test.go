package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// benchmarkJSON is the part of BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	for _, set := range []struct {
		what     string
		declared []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		catalog map[string]string
	}{{"end_to_end", b.EndToEnd, endToEndUnits}, {"per_layer", b.PerLayer, perLayerUnits}} {
		if len(set.declared) != len(set.catalog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the catalog has %d", set.what, len(set.declared), len(set.catalog))
		}
		for _, m := range set.declared {
			if unit, ok := set.catalog[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s in %q: catalog has %q (present %v)", set.what, m.Name, m.Unit, unit, ok)
			}
		}
	}
}

// runShort runs one short, small invocation and returns its exit code,
// parsed result and standard output.
func runShort(t *testing.T, workload string, trace int, workDir string) (int, result, string) {
	t.Helper()
	// serve-http needs a second of open loop before its cache evicts, so
	// write amplification is defined.
	cfg := config{workload: workload, seed: 7, seconds: 0.4, trace: trace == 1, workDir: workDir, scale: 0.2}
	if workload == "serve-http" {
		cfg.seconds = 2
	}
	var stdout, stderr bytes.Buffer
	code := runConfig(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: exit %d, last line is not a result: %v\nstdout:\n%s\nstderr:\n%s",
			workload, trace, code, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// TestEveryMetricEmittedWithUnit runs each workload briefly, untraced and
// traced, and checks the result line carries every declared metric with
// its unit, a passing gate, and (traced) a span file tracecheck accepts.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				dir := t.TempDir()
				code, res, stdout := runShort(t, w, trace, dir)
				units := endToEndUnits
				if trace == 1 {
					units = perLayerUnits
				}
				if len(res.Metrics) != len(units) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(units))
				}
				for name, unit := range units {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", name, m, ok, unit)
					}
				}
				if trace == 0 {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
				if res.Attempted < 1 {
					t.Errorf("attempted %d", res.Attempted)
				}
				if code != 0 || !res.Correct {
					t.Errorf("exit %d, correct %v:\n%s", code, res.Correct, stdout)
				}
				if trace == 1 {
					checkSpanFile(t, dir)
				}
			})
		}
	}
}

// checkSpanFile validates the run's span file with cmd/tracecheck and
// checks every child span lies inside its parent.
func checkSpanFile(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "spans-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("span files %v (%v), want one", files, err)
	}
	out, err := exec.Command("go", "run", "repro/cmd/tracecheck", files[0]).CombinedOutput()
	if err != nil {
		t.Fatalf("tracecheck: %v\n%s", err, out)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int64  `json:"id"`
				Parent string `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	type key struct {
		id   int64
		name string
	}
	bounds := map[key][2]float64{}
	slices := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			bounds[key{ev.Args.ID, ev.Name}] = [2]float64{ev.Ts, ev.Ts + ev.Dur}
			slices++
		}
	}
	if slices == 0 {
		t.Fatal("span file holds no spans")
	}
	const eps = 0.0005 // µs rendering
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args.Parent == "" {
			continue
		}
		p, ok := bounds[key{ev.Args.ID, ev.Args.Parent}]
		if !ok {
			t.Errorf("span %s of request %d: parent %s missing", ev.Name, ev.Args.ID, ev.Args.Parent)
			continue
		}
		if ev.Ts < p[0]-eps || ev.Ts+ev.Dur > p[1]+eps {
			t.Errorf("span %s of request %d [%g,%g] outside parent %s [%g,%g]",
				ev.Name, ev.Args.ID, ev.Ts, ev.Ts+ev.Dur, ev.Args.Parent, p[0], p[1])
		}
	}
}

// dropEvicted is a broken policy: it loses one page of every eviction
// batch, so the page is neither flushed nor buffered any more.
type dropEvicted struct{ cache.Policy }

func (d dropEvicted) Access(req cache.Request) cache.Result {
	res := d.Policy.Access(req)
	for i := range res.Evictions {
		if len(res.Evictions[i].LPNs) > 1 {
			res.Evictions[i].LPNs = res.Evictions[i].LPNs[1:]
		}
	}
	return res
}

func TestGateTripsOnDroppedEvictedPage(t *testing.T) {
	defer func(orig func(cache.Policy) cache.Policy) { wrapPolicy = orig }(wrapPolicy)
	wrapPolicy = func(p cache.Policy) cache.Policy { return dropEvicted{p} }
	code, res, stdout := runShort(t, "replay-stream", 0, t.TempDir())
	if code != 1 || res.Correct {
		t.Fatalf("exit %d, correct %v; want the gate to trip:\n%s", code, res.Correct, stdout)
	}
	if !strings.Contains(stdout, "page conservation") {
		t.Errorf("no conservation failure reported:\n%s", stdout)
	}
}

// TestInvariantsCheckQuotaDrains: the replay invariant check accepts a
// quota drain at the completion of the result before it, rejects one that
// is empty or stamped at another time, and still hands every other event
// to sim.InvariantObserver.
func TestInvariantsCheckQuotaDrains(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   sim.EvictionEvent
		want string // "" = no violation
	}{
		{"at completion", sim.EvictionEvent{Kind: sim.EvictQuota, Time: 30, LPNs: []int64{7}}, ""},
		{"off completion", sim.EvictionEvent{Kind: sim.EvictQuota, Time: 29, LPNs: []int64{7}}, "not at the completion"},
		{"empty", sim.EvictionEvent{Kind: sim.EvictQuota, Time: 30}, "empty quota"},
		{"durable early", sim.EvictionEvent{Kind: sim.EvictQuota, Time: 30, LPNs: []int64{7}, Transferred: 40, Durable: 35}, "durable"},
		{"request batch empty", sim.EvictionEvent{Kind: sim.EvictRequest, Time: 30}, "empty request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newInvariants()
			req := sim.RequestEvent{Arrival: 10, Issue: 10, Write: true, Pages: 2}
			o.OnRequest(nil, &req)
			o.OnResult(nil, &sim.ResultEvent{Req: &req, Res: &cache.Result{Misses: 2}, Completion: 30, Processed: 1})
			o.OnEviction(nil, &tc.ev)
			o.OnDone(nil, &sim.DoneEvent{Processed: 1})
			err := o.Err()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("clean stream flagged: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestGateTripsOnBadHTTPOutcome drives the open loop against stubs that
// answer with an error outcome or with a malformed body.
func TestGateTripsOnBadHTTPOutcome(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"error-outcome", `{"outcome":"error","shard":0}`, "error outcome"},
		{"malformed", `not json`, "transport errors"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprintln(w, tc.body)
			}))
			defer stub.Close()
			c := newClient(stub.URL, 2)
			defer c.close()
			recs, _, _ := openLoop(c, 1, 0, 40*trainGap, nil)
			var tl tally
			for i := range recs {
				tl.add(&recs[i])
			}
			var g gate
			checkTally(&g, "stub", tl, nil)
			if len(g.failures) == 0 || !strings.Contains(strings.Join(g.failures, "\n"), tc.want) {
				t.Errorf("gate failures %q, want one mentioning %q", g.failures, tc.want)
			}
		})
	}
}

// TestSeedDeterminesSimulation: the same seed reproduces the simulated
// metrics exactly; another seed changes them.
func TestSeedDeterminesSimulation(t *testing.T) {
	sim := func(seed int) map[string]float64 {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "replay-stream", "--seed", fmt.Sprint(seed), "--seconds", "0.1",
			"--trace", "0", "--workdir", t.TempDir()}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || code != 0 {
			t.Fatalf("exit %d, %v\n%s%s", code, err, stdout.String(), stderr.String())
		}
		out := map[string]float64{}
		for _, name := range []string{"hit_ratio", "write_amp", "sim_resp_mean_us", "sim_resp_p99_us"} {
			out[name] = res.Metrics[name].Value
		}
		return out
	}
	a, b, c := sim(3), sim(3), sim(4)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("seed 3 twice: %v vs %v", a, b)
	}
	if a["sim_resp_mean_us"] == c["sim_resp_mean_us"] {
		t.Errorf("seeds 3 and 4 give the same simulation: %v", a)
	}
}

// TestGiven: the share of asked-for CPU time the VM was given between
// two readings, 1 when no busy tick fell between them.
func TestGiven(t *testing.T) {
	for _, tc := range []struct {
		from, to cpuTicks
		want     float64
	}{
		{cpuTicks{busy: 100, steal: 10}, cpuTicks{busy: 180, steal: 30}, 0.8},
		{cpuTicks{busy: 100, steal: 10}, cpuTicks{busy: 150, steal: 10}, 1},
		{cpuTicks{busy: 100, steal: 10}, cpuTicks{busy: 100, steal: 10}, 1},
		{cpuTicks{busy: 100, steal: 10}, cpuTicks{busy: 100, steal: 30}, 1},
	} {
		if got := given(tc.from, tc.to); got != tc.want {
			t.Errorf("given(%+v, %+v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if c, err := readCPUTicks(); err != nil || c.busy <= 0 {
		t.Errorf("readCPUTicks: %+v, %v", c, err)
	}
}
