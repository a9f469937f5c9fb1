package fault

import (
	"errors"
	"testing"
)

func TestParseSpecFull(t *testing.T) {
	c, err := ParseSpec("seed=42,pfail=1e-4,efail=0.001,grown=1e-5,pfail-at=100+7+2000,efail-at=3,retries=5,reserve=16,crash-at=50000,destage-ms=1.5,check=1")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 42 || c.ProgramFailProb != 1e-4 || c.EraseFailProb != 0.001 || c.GrownBadProb != 1e-5 {
		t.Fatalf("probabilities wrong: %+v", c)
	}
	// Scripted ordinals come back sorted.
	if len(c.FailProgramOps) != 3 || c.FailProgramOps[0] != 7 || c.FailProgramOps[2] != 2000 {
		t.Fatalf("FailProgramOps = %v", c.FailProgramOps)
	}
	if len(c.FailEraseOps) != 1 || c.FailEraseOps[0] != 3 {
		t.Fatalf("FailEraseOps = %v", c.FailEraseOps)
	}
	if c.RetryLimit != 5 || c.ReserveBlocks != 16 || c.CrashAtRequest != 50000 {
		t.Fatalf("limits wrong: %+v", c)
	}
	if c.DestageNs != 1_500_000 {
		t.Fatalf("DestageNs = %d, want 1.5ms", c.DestageNs)
	}
	if !c.CheckInvariants || !c.Enabled() {
		t.Fatalf("flags wrong: %+v", c)
	}
}

func TestParseSpecEmptyAndErrors(t *testing.T) {
	c, err := ParseSpec("  ")
	if err != nil || c.Enabled() {
		t.Fatalf("empty spec: %+v, %v", c, err)
	}
	for _, bad := range []string{
		"pfail",         // not key=value
		"bogus=1",       // unknown key
		"pfail=nope",    // unparsable value
		"pfail=1.5",     // probability out of range
		"pfail-at=0",    // ordinals are 1-based
		"crash-at=-1",   // negative limit
		"destage-ms=-2", // negative limit
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// collect feeds n program+erase ops to a fresh injector and returns the
// fault pattern as booleans.
func collect(t *testing.T, cfg Config, n int) (prog, erase []bool) {
	t.Helper()
	inj, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		prog = append(prog, inj.ProgramFails(i%4))
		erase = append(erase, inj.EraseFails(i%4))
	}
	return prog, erase
}

func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, ProgramFailProb: 0.01, EraseFailProb: 0.02}
	p1, e1 := collect(t, cfg, 20000)
	p2, e2 := collect(t, cfg, 20000)
	for i := range p1 {
		if p1[i] != p2[i] || e1[i] != e2[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	cfg.Seed = 8
	p3, _ := collect(t, cfg, 20000)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 20k-op fault patterns")
	}
}

func TestStreamIndependence(t *testing.T) {
	// Enabling erase faults must not perturb the program fault sequence:
	// the streams are independent and a zero probability consumes nothing.
	base := Config{Seed: 3, ProgramFailProb: 0.05}
	both := Config{Seed: 3, ProgramFailProb: 0.05, EraseFailProb: 0.5, GrownBadProb: 0.5}
	p1, _ := collect(t, base, 5000)
	p2, _ := collect(t, both, 5000)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("program stream perturbed by erase/grown config at op %d", i)
		}
	}
}

func TestScriptedOps(t *testing.T) {
	inj, err := NewInjector(Config{FailProgramOps: []int64{3}, FailEraseOps: []int64{2}})
	if err != nil {
		t.Fatal(err)
	}
	var fails []int
	for i := 1; i <= 5; i++ {
		if inj.ProgramFails(0) {
			fails = append(fails, i)
		}
	}
	if len(fails) != 1 || fails[0] != 3 {
		t.Fatalf("scripted program fail fired at %v, want [3]", fails)
	}
	if inj.EraseFails(0) || !inj.EraseFails(0) || inj.EraseFails(0) {
		t.Fatal("scripted erase fail did not fire exactly at ordinal 2")
	}
	s := inj.Stats()
	if s.ProgramOps != 5 || s.ProgramFails != 1 || s.EraseOps != 3 || s.EraseFails != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestChipWeightsZeroMasksChip(t *testing.T) {
	// Weight 0 must make a chip immune while still consuming draws, so the
	// other chips' fault pattern matches the unweighted run.
	cfg := Config{Seed: 1, ProgramFailProb: 0.5}
	inj1, _ := NewInjector(cfg)
	cfg.ChipWeights = []float64{0}
	inj2, _ := NewInjector(cfg)
	for i := 0; i < 1000; i++ {
		chip := i % 2
		f1, f2 := inj1.ProgramFails(chip), inj2.ProgramFails(chip)
		if chip == 0 && f2 {
			t.Fatalf("op %d: weight-0 chip failed", i)
		}
		if chip == 1 && f1 != f2 {
			t.Fatalf("op %d: weighting chip 0 perturbed chip 1's pattern", i)
		}
	}
}

type flaky struct{ errs []error }

func (f *flaky) CheckInvariants() error {
	if len(f.errs) == 0 {
		return nil
	}
	err := f.errs[0]
	f.errs = f.errs[1:]
	return err
}

func TestCheckerRetainsFirstFailure(t *testing.T) {
	first := errors.New("first")
	c := NewChecker(&flaky{errs: []error{nil, first, errors.New("second")}})
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != first {
		t.Fatalf("second check = %v", err)
	}
	c.Check()
	if c.Checks() != 3 {
		t.Fatalf("Checks = %d", c.Checks())
	}
	if c.Failure() != first {
		t.Fatalf("Failure = %v, want the first violation", c.Failure())
	}
}
