// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale 0.2] [-device-divisor 16] [-traces hm_1,ts_0]
//	            [-only table2,fig8] [-extras] [-csv dir] [-full]
//
// With no flags it runs everything at the default scale (1/50 of the
// original trace lengths on a 1/16-size device, ratios preserved) and
// prints one text table per experiment — the output recorded in
// EXPERIMENTS.md. -full switches to paper scale (full trace lengths,
// 128 GiB device); expect minutes of runtime and about 2 GiB of memory
// (-full -json peaked at 2.0 GiB RSS in 5 minutes on two cores).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

func main() {
	var (
		scale   = flag.Float64("scale", 0, "workload scale multiplier (default 0.2)")
		divisor = flag.Int("device-divisor", 0, "flash array size divisor (default 16)")
		precond = flag.Float64("precondition", 0, "device fill fraction before replay (default 0.5; use 0.9+ for endurance)")
		traces  = flag.String("traces", "", "comma-separated trace subset (default all six)")
		only    = flag.String("only", "", "comma-separated experiments: table1,table2,fig2,fig3,fig7,fig8,fig9,fig10,fig11,fig12,fig13,endurance,tail,mrc,parallelism,summary")
		extras  = flag.Bool("extras", false, "add FIFO/LFU/CFLRU/FAB to the comparison grid")
		csvDir  = flag.String("csv", "", "directory to write Fig. 13 occupancy series as CSV")
		jsonOut = flag.String("json", "", "write the complete structured report as JSON to this file (runs everything)")
		diffOld = flag.String("diff", "", "compare a fresh run against a previous -json report and print regressions")
		diffThr = flag.Float64("diff-threshold", 0.05, "relative change that counts as a regression with -diff")
		seeds   = flag.Int("seeds", 0, "replicate the grid over N workload seeds and report mean ± std")
		plot    = flag.Bool("plot", false, "render Figs. 8-9 as ASCII bar charts too")
		qd      = flag.Int("qd", 0, "closed-loop queue depth for the grid (0 = open loop, as the paper)")
		shards  = flag.String("shards", "", "run the sharded-scaling sweep over these comma-separated shard counts (e.g. 1,2,4,8) instead of the figures")
		sharing = flag.String("sharing", "both", "sharing modes for -shards: shared, equal or both")
		backpr  = flag.Int("backpressure", 0, "destage-backlog bound applied to every device (0 = off)")
		faults  = flag.String("faults", "", "fault injection spec applied to every grid device (see docs/FAULTS.md)")
		aged    = flag.Bool("aged", false, "run the aged-device scenario (pre-worn blocks + elevated grown defects, docs/GC.md) instead of the figures")
		full    = flag.Bool("full", false, "paper scale: full traces on the 128 GiB device")

		listen    = flag.String("listen", "", "serve live /metrics, /healthz and /debug/pprof across the whole run (e.g. 127.0.0.1:9090; empty = off)")
		progressN = flag.Int("progress", 0, "emit an NDJSON progress snapshot to stderr every N processed requests (0 = off)")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *full {
		cfg.Scale = 10 // profiles are 1/10 of the original traces
		cfg.DeviceDivisor = 1
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *divisor > 0 {
		cfg.DeviceDivisor = *divisor
	}
	if *precond > 0 {
		cfg.DevicePrecondition = *precond
	}
	if *traces != "" {
		cfg.Traces = strings.Split(*traces, ",")
	}
	cfg.IncludeExtras = *extras
	cfg.QueueDepth = *qd
	cfg.BackPressureDepth = *backpr
	if *faults != "" {
		fcfg, err := fault.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		cfg.Faults = fcfg
	}

	// Telemetry accumulates across every replay the run performs: the grid
	// is a sequence of cells, and /metrics shows the live aggregate
	// (docs/OBSERVABILITY.md).
	if *listen != "" {
		tel := obs.New()
		cfg.Tap = tel
		cfg.Observers = append(cfg.Observers, tel.Observer())
		srv, err := obs.Serve(*listen, tel.Handler())
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: telemetry on http://%s\n", srv.Addr())
	}
	if *progressN > 0 {
		cfg.Observers = append(cfg.Observers, obs.NewProgress(os.Stderr, *progressN))
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// Dispatch returns an exit code instead of calling os.Exit directly so
	// the profiles are flushed on every path.
	var code int
	if *aged {
		code = runAged(cfg)
	} else if *shards != "" {
		code = runSharding(cfg, *shards, *sharing)
	} else {
		code = dispatch(cfg, enabled, *seeds, *diffOld, *diffThr, *jsonOut, *csvDir, *plot)
	}
	if err := profiles.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// runAged runs the aged-device scenario (-aged) across the selected traces
// at the middle grid cache size.
func runAged(cfg experiments.Config) int {
	r := experiments.NewRunner(cfg)
	sizes := r.Config().CacheSizesMB
	cacheMB := sizes[len(sizes)/2]
	var rows []experiments.AgedRow
	for _, p := range r.Profiles() {
		tr, err := r.AgedDevice(p.Name, cacheMB)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		rows = append(rows, tr...)
	}
	fmt.Println(experiments.RenderAged(rows))
	return 0
}

// runSharding runs the sharded-scaling sweep (-shards) across the selected
// traces at the middle grid cache size.
func runSharding(cfg experiments.Config, shardList, sharing string) int {
	var counts []int
	for _, s := range strings.Split(shardList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "experiments: bad -shards entry %q\n", s)
			return 1
		}
		counts = append(counts, n)
	}
	var modes []sim.SharingMode
	switch sharing {
	case "both":
		modes = []sim.SharingMode{sim.SharingShared, sim.SharingEqual}
	default:
		m, err := sim.ParseSharing(sharing)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		modes = []sim.SharingMode{m}
	}
	r := experiments.NewRunner(cfg)
	sizes := r.Config().CacheSizesMB
	cacheMB := sizes[len(sizes)/2]
	var rows []experiments.ShardingRow
	for _, p := range r.Profiles() {
		tr, err := r.Sharding(p.Name, cacheMB, counts, modes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		rows = append(rows, tr...)
	}
	fmt.Println(experiments.RenderSharding(rows))
	return 0
}

func dispatch(cfg experiments.Config, enabled func(string) bool,
	seeds int, diffOld string, diffThr float64, jsonOut, csvDir string, plot bool) int {
	if seeds > 0 {
		cells, err := experiments.ReplicatedGrid(cfg, seeds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Print(experiments.RenderReplicated(cells))
		return 0
	}
	r := experiments.NewRunner(cfg)
	if diffOld != "" {
		regressed, err := diffAgainst(r, diffOld, diffThr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		if regressed {
			return 2
		}
		return 0
	}
	if jsonOut != "" {
		if err := writeJSONReport(r, jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}
	if err := run(r, enabled, csvDir, plot); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	return 0
}

// writeJSONReport runs everything and dumps the structured results.
func writeJSONReport(r *experiments.Runner, path string) error {
	rep, err := r.BuildReport()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func run(r *experiments.Runner, enabled func(string) bool, csvDir string, plot bool) error {
	if enabled("table1") {
		fmt.Println(r.Table1())
	}
	if enabled("table2") {
		rows, err := r.Table2()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable2(rows))
	}
	if enabled("fig2") {
		res, err := r.Figure2()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFigure2(res))
	}
	if enabled("fig3") {
		res, err := r.Figure3()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFigure3(res))
	}
	if enabled("mrc") {
		rows, err := r.MRC()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderMRC(rows, r.Config().CacheSizesMB))
	}
	if enabled("fig7") {
		rows, err := r.Figure7(nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFigure7(rows))
	}
	needGrid := false
	for _, f := range []string{"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "endurance", "tail", "parallelism", "summary"} {
		if enabled(f) {
			needGrid = true
		}
	}
	if !needGrid {
		return nil
	}
	g, err := r.RunGrid()
	if err != nil {
		return err
	}
	if enabled("fig8") {
		fmt.Println(experiments.RenderFigure8(g.Figure8(), g.Policies))
		if csvDir != "" {
			path, err := experiments.WriteCSV(csvDir, "fig8_response.csv", g.CSVFigure8())
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if enabled("fig9") {
		fmt.Println(experiments.RenderFigure9(g.Figure9(), g.Policies))
		if csvDir != "" {
			path, err := experiments.WriteCSV(csvDir, "fig9_hits.csv", g.CSVFigure9())
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
		if plot {
			var groups []metrics.BarGroup
			for _, row := range g.Figure9() {
				if row.CacheMB != g.CacheMBs[len(g.CacheMBs)/2] {
					continue
				}
				vals := map[string]float64{}
				for pol, v := range row.Normalized {
					vals[pol] = v * row.ReqBlockHitRatio // absolute hit ratios
				}
				groups = append(groups, metrics.BarGroup{Label: row.Trace, Values: vals})
			}
			fmt.Println(metrics.BarChart(
				fmt.Sprintf("Figure 9 (absolute hit ratios, %dMB cache)", g.CacheMBs[len(g.CacheMBs)/2]),
				groups, g.Policies, 40))
		}
	}
	if enabled("fig10") {
		fmt.Println(experiments.RenderFigure10(g.Figure10(0), g.Policies))
	}
	if enabled("fig11") {
		fmt.Println(experiments.RenderFigure11(g.Figure11(0), g.Policies))
	}
	if enabled("fig12") {
		fmt.Println(experiments.RenderFigure12(g.Figure12()))
	}
	if enabled("endurance") {
		fmt.Println(experiments.RenderEndurance(g.EnduranceTable(0), g.Policies))
	}
	if enabled("tail") {
		fmt.Println(experiments.RenderTailLatency(g.TailLatency(0), g.Policies))
	}
	if enabled("parallelism") {
		fmt.Println(experiments.RenderParallelism(g.Parallelism(0), g.Policies))
	}
	if enabled("summary") {
		fmt.Println(experiments.RenderSummary(g.Summarize()))
	}
	if enabled("fig13") {
		rows := g.Figure13(0)
		fmt.Println(experiments.RenderFigure13(rows))
		if csvDir != "" {
			if err := writeFig13CSV(csvDir, rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeFig13CSV dumps each trace's IRL/SRL/DRL series as one CSV file.
func writeFig13CSV(dir string, rows []experiments.Figure13Row) error {
	for _, row := range rows {
		path, err := experiments.WriteCSV(dir, fmt.Sprintf("fig13_%s.csv", row.Trace),
			experiments.CSVFigure13(row))
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// diffAgainst reruns the experiments and compares against a stored report;
// regressed reports whether any metric moved past the threshold.
func diffAgainst(r *experiments.Runner, path string, threshold float64) (regressed bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	old, err := experiments.ReadReport(f)
	if err != nil {
		return false, err
	}
	fresh, err := r.BuildReport()
	if err != nil {
		return false, err
	}
	deltas := experiments.DiffReports(old, fresh, threshold)
	fmt.Print(experiments.RenderDiff(deltas))
	return len(deltas) > 0, nil
}
