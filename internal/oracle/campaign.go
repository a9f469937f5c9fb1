package oracle

import "fmt"

// CampaignConfig drives a batch of differential runs: a seed range
// crossed with a policy list, one generated workload each.
type CampaignConfig struct {
	// SeedStart and Seeds delimit the seed range [SeedStart, SeedStart+Seeds).
	SeedStart int64
	Seeds     int
	// Mode selects the differential per run: empty for fast-vs-oracle,
	// ModeVindex for indexed-vs-linear victim selection.
	Mode string
	// Policies defaults to all four paper policies (classic mode) or every
	// VictimPolicies entry (ModeVindex).
	Policies []string
	// Requests is the workload length per run (default 192).
	Requests int
	// Mutation arms a seeded oracle bug in every run (smoke testing the
	// harness itself; only Req-block runs are affected).
	Mutation Mutation
	// Shrink minimizes every divergence before reporting it.
	Shrink bool
	// MaxFailures stops the campaign early once this many divergences
	// were collected (default 1; shrinking is expensive).
	MaxFailures int
	// Logf, when set, receives one line per failure and per progress
	// milestone.
	Logf func(format string, args ...any)
}

// CampaignResult summarizes a finished campaign.
type CampaignResult struct {
	Runs        int
	Divergences []*Divergence
}

// Failed reports whether any run diverged.
func (r CampaignResult) Failed() bool { return len(r.Divergences) > 0 }

// RunCampaign executes the configured seed × policy grid and returns
// every (optionally minimized) divergence found.
func RunCampaign(cfg CampaignConfig) CampaignResult {
	if len(cfg.Policies) == 0 {
		switch cfg.Mode {
		case ModeVindex:
			cfg.Policies = VictimPolicies
		case ModeGCSched:
			cfg.Policies = GCSchedFlavors
		default:
			cfg.Policies = Policies
		}
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 192
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var res CampaignResult
	for s := int64(0); s < int64(cfg.Seeds); s++ {
		for _, pol := range cfg.Policies {
			var spec Spec
			switch cfg.Mode {
			case ModeVindex:
				spec = GenerateVindex(cfg.SeedStart+s, pol, cfg.Requests)
			case ModeGCSched:
				spec = GenerateGCSched(cfg.SeedStart+s, pol, cfg.Requests)
			default:
				spec = Generate(cfg.SeedStart+s, pol, cfg.Requests)
				spec.Mutation = cfg.Mutation
			}
			res.Runs++
			d := Run(spec)
			if d == nil {
				continue
			}
			logf("seed %d policy %s: %v", spec.Seed, pol, d)
			if cfg.Shrink {
				shrunk, sd := Shrink(spec)
				if sd != nil {
					d = sd
					logf("seed %d policy %s: shrunk to %d requests: %v",
						spec.Seed, pol, len(shrunk.Requests), sd)
				}
			}
			res.Divergences = append(res.Divergences, d)
			if len(res.Divergences) >= cfg.MaxFailures {
				return res
			}
		}
	}
	return res
}

// String implements fmt.Stringer.
func (d *Divergence) String() string { return d.Error() }

// Summary renders a short human-readable campaign outcome.
func (r CampaignResult) Summary() string {
	if !r.Failed() {
		return fmt.Sprintf("ok: %d differential runs, zero divergences", r.Runs)
	}
	return fmt.Sprintf("FAIL: %d of %d differential runs diverged", len(r.Divergences), r.Runs)
}
