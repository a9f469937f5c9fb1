// Command ssdcheck runs the model-based differential checker: randomized
// workloads replayed through the optimized cache/FTL implementations and
// the paper-literal oracles (internal/oracle) in lockstep, diffing every
// externally visible decision. On divergence it delta-debugs the workload
// down to a minimal repro and (with -repro-dir) saves it as JSON for the
// regression corpus under internal/oracle/testdata/repros.
//
// A second differential mode, -vindex, replays the three policies whose
// victims come from a vindex heap (fab, lfu, pud-lru) against their
// full-scan oracles without the FTL pair, over larger capacities and
// address ranges than the FTL's 96 logical pages allow. A third,
// -gcsched, replays a greedy-GC FTL, a scheduler-enabled FTL driven by
// seed-derived idle budgets, and the stamped oracle FTL in lockstep
// across four stream flavors (striped, bound, mixed, trim-mix). -quick
// runs all three.
//
// Usage:
//
//	ssdcheck -quick                        # CI gate: 64 seeds × all policies, all modes
//	ssdcheck -vindex                       # heap-indexed policies vs oracles, no FTL
//	ssdcheck -gcsched                      # scheduled-vs-greedy GC differential only
//	ssdcheck -seeds 4096 -requests 512     # bigger batch
//	ssdcheck -duration 10m                 # nightly campaign: run until the clock
//	ssdcheck -seed 1234 -policies req-block -v   # replay one seed, verbose
//	ssdcheck -repro path/to/repro.json     # replay a saved repro
//	ssdcheck -mutation delta-off-by-one    # prove the harness catches a seeded bug
//
// Exit status 0 means zero divergences (or, with -mutation, that the
// seeded bug was caught); 1 means a divergence was found (with -mutation:
// the bug escaped); 2 means bad usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/oracle"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "CI gate: 64 seeds x all policies, all three modes, shrink on failure")
		vindex   = flag.Bool("vindex", false, "run the heap-indexed policies (fab, lfu, pud-lru) against their oracles without the FTL pair, over larger address ranges")
		gcsched  = flag.Bool("gcsched", false, "run the scheduled-vs-greedy GC differential instead of fast-vs-oracle")
		seed     = flag.Int64("seed", -1, "replay exactly one seed (default: campaign mode)")
		seedBase = flag.Int64("seed-base", 0, "first seed of the campaign range")
		seeds    = flag.Int("seeds", 256, "campaign seed count")
		requests = flag.Int("requests", 192, "requests per generated workload")
		policies = flag.String("policies", "", "comma-separated policy subset (default: all: "+strings.Join(oracle.Policies, ",")+")")
		duration = flag.Duration("duration", 0, "run consecutive campaigns until this much time has passed")
		reproDir = flag.String("repro-dir", "", "save minimized repros of divergences into this directory")
		repro    = flag.String("repro", "", "replay one saved repro JSON instead of generating workloads")
		mutation = flag.String("mutation", "", "arm a seeded oracle bug ("+mutationList()+") and require it to be caught")
		verbose  = flag.Bool("v", false, "log each failure and campaign milestone")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "ssdcheck: unexpected arguments:", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "ssdcheck: "+format+"\n", args...) }
	}

	if *repro != "" {
		os.Exit(replayRepro(*repro))
	}

	mut := oracle.Mutation(*mutation)
	if *mutation != "" && !validMutation(mut) {
		fmt.Fprintf(os.Stderr, "ssdcheck: unknown -mutation %q (have: %s)\n", *mutation, mutationList())
		os.Exit(2)
	}
	if *vindex && *gcsched {
		fmt.Fprintln(os.Stderr, "ssdcheck: -vindex and -gcsched select different differentials; pick one")
		os.Exit(2)
	}
	if (*vindex || *gcsched) && mut != oracle.MutNone {
		fmt.Fprintln(os.Stderr, "ssdcheck: -mutation targets the oracle differential; it does not combine with -vindex or -gcsched")
		os.Exit(2)
	}
	known := oracle.Policies
	switch {
	case *vindex:
		known = oracle.VictimPolicies
	case *gcsched:
		known = oracle.GCSchedFlavors
	}
	for _, p := range splitPolicies(*policies) {
		if !validPolicy(p, known) {
			fmt.Fprintf(os.Stderr, "ssdcheck: unknown policy %q (have: %s)\n", p, strings.Join(known, ","))
			os.Exit(2)
		}
	}

	cfg := oracle.CampaignConfig{
		SeedStart:   *seedBase,
		Seeds:       *seeds,
		Policies:    splitPolicies(*policies),
		Requests:    *requests,
		Mutation:    mut,
		Shrink:      true,
		MaxFailures: 1,
		Logf:        logf,
	}
	switch {
	case *vindex:
		cfg.Mode = oracle.ModeVindex
	case *gcsched:
		cfg.Mode = oracle.ModeGCSched
	}
	if *quick {
		cfg.Seeds = 64
		cfg.Policies = nil
		cfg.Requests = 192
	}
	if *seed >= 0 {
		cfg.SeedStart, cfg.Seeds = *seed, 1
	}

	// -quick gates all three differentials; otherwise run the selected one.
	cfgs := []oracle.CampaignConfig{cfg}
	if *quick && !*vindex && !*gcsched && mut == oracle.MutNone {
		vcfg := cfg
		vcfg.Mode = oracle.ModeVindex
		cfgs = append(cfgs, vcfg)
		gcfg := cfg
		gcfg.Mode = oracle.ModeGCSched
		cfgs = append(cfgs, gcfg)
	}

	start := time.Now()
	var total oracle.CampaignResult
	for round := 0; !total.Failed(); round++ {
		for i := range cfgs {
			res := oracle.RunCampaign(cfgs[i])
			total.Runs += res.Runs
			total.Divergences = append(total.Divergences, res.Divergences...)
			if total.Failed() {
				break
			}
		}
		if *duration <= 0 || time.Since(start) >= *duration {
			break
		}
		// Campaign mode: advance through fresh seed ranges until the clock
		// runs out, so a nightly run covers new ground every round.
		for i := range cfgs {
			cfgs[i].SeedStart += int64(cfgs[i].Seeds)
		}
		logf("round %d done (%d runs so far, %s elapsed)", round+1, total.Runs, time.Since(start).Round(time.Second))
	}

	if mut != oracle.MutNone {
		reportMutation(mut, total)
		return // unreachable; reportMutation exits
	}
	if total.Failed() {
		d := total.Divergences[0]
		fmt.Fprintf(os.Stderr, "ssdcheck: %s\n", total.Summary())
		fmt.Fprintf(os.Stderr, "ssdcheck: minimized to %d requests: %v\n", len(d.Spec.Requests), d)
		if *reproDir != "" {
			path, err := oracle.SaveRepro(*reproDir, d.Spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ssdcheck: saving repro: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "ssdcheck: repro saved to %s\n", path)
				fmt.Fprintf(os.Stderr, "ssdcheck: replay with: ssdcheck -repro %s\n", path)
				fmt.Fprintln(os.Stderr, "ssdcheck: commit it under internal/oracle/testdata/repros once fixed")
			}
		}
		os.Exit(1)
	}
	fmt.Printf("ssdcheck: %s (%s)\n", total.Summary(), time.Since(start).Round(time.Millisecond))
}

// replayRepro re-runs one saved spec and reports like `go test` would.
func replayRepro(path string) int {
	spec, err := oracle.LoadRepro(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssdcheck: %v\n", err)
		return 2
	}
	d := oracle.Run(spec)
	if spec.Mutation != oracle.MutNone {
		if d == nil {
			fmt.Fprintf(os.Stderr, "ssdcheck: mutation repro %s no longer diverges\n", path)
			return 1
		}
		fmt.Printf("ssdcheck: ok — mutation %s still caught: %v\n", spec.Mutation, d)
		return 0
	}
	if d != nil {
		fmt.Fprintf(os.Stderr, "ssdcheck: regression: %v\n", d)
		return 1
	}
	fmt.Printf("ssdcheck: ok — repro %s passes (%d requests, policy %s)\n", path, len(spec.Requests), spec.Policy)
	return 0
}

// reportMutation inverts the exit logic: armed with a seeded bug, a
// divergence is the expected outcome and a clean campaign means the
// harness lost its teeth.
func reportMutation(mut oracle.Mutation, total oracle.CampaignResult) {
	if !total.Failed() {
		fmt.Fprintf(os.Stderr, "ssdcheck: mutation %s survived %d runs — the checker failed to catch a seeded bug\n",
			mut, total.Runs)
		os.Exit(1)
	}
	d := total.Divergences[0]
	fmt.Printf("ssdcheck: ok — mutation %s caught and minimized to %d requests: %v\n",
		mut, len(d.Spec.Requests), d)
	os.Exit(0)
}

func splitPolicies(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func validPolicy(p string, known []string) bool {
	for _, k := range known {
		if p == k {
			return true
		}
	}
	return false
}

func validMutation(m oracle.Mutation) bool {
	for _, known := range oracle.Mutations {
		if m == known {
			return true
		}
	}
	return false
}

func mutationList() string {
	parts := make([]string, len(oracle.Mutations))
	for i, m := range oracle.Mutations {
		parts[i] = string(m)
	}
	return strings.Join(parts, ",")
}
