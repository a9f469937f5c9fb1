package ftl

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// newFaulty builds a tiny FTL with an injector (and checker) attached.
func newFaulty(t *testing.T, cfg fault.Config) (*FTL, *fault.Injector, *fault.Checker) {
	t.Helper()
	f := mustNew(t, tinyParams())
	inj, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.EnableFaults(inj)
	c := fault.NewChecker(f)
	f.SetChecker(c)
	return f, inj, c
}

func TestScriptedProgramFailRecovers(t *testing.T) {
	// The very first program fails; the write must retry on a fresh page
	// and succeed, leaving the mapping and the invariants intact.
	for _, mode := range []string{"striped", "blockbound", "channel"} {
		t.Run(mode, func(t *testing.T) {
			f, inj, c := newFaulty(t, fault.Config{FailProgramOps: []int64{1}})
			var err error
			switch mode {
			case "striped":
				_, err = f.WriteStriped(0, seq(0, 4))
			case "blockbound":
				_, err = f.WriteBlockBound(0, seq(0, 4))
			case "channel":
				_, err = f.WriteOnChannel(0, seq(0, 4), 0)
			}
			if err != nil {
				t.Fatalf("write did not recover: %v", err)
			}
			if got := f.Stats().ProgramRetries; got != 1 {
				t.Fatalf("ProgramRetries = %d, want 1", got)
			}
			if inj.Stats().ProgramFails != 1 {
				t.Fatalf("injector fails = %d", inj.Stats().ProgramFails)
			}
			for lpn := int64(0); lpn < 4; lpn++ {
				if !f.Mapped(lpn) {
					t.Fatalf("lpn %d unmapped after recovered write", lpn)
				}
			}
			// The recovery must have triggered the checker, and the suite
			// must have passed.
			if c.Checks() == 0 {
				t.Fatal("invariant checker never ran after recovery")
			}
			if c.Failure() != nil {
				t.Fatalf("invariant violation after recovery: %v", c.Failure())
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConsecutiveProgramFailsWithinRetryLimit(t *testing.T) {
	// Three consecutive failures on one logical write, retry limit 8:
	// still recovers, consuming three extra pages.
	f, _, c := newFaulty(t, fault.Config{FailProgramOps: []int64{1, 2, 3}})
	if _, err := f.WriteStriped(0, seq(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().ProgramRetries; got != 3 {
		t.Fatalf("ProgramRetries = %d, want 3", got)
	}
	if c.Failure() != nil {
		t.Fatal(c.Failure())
	}
}

func TestAllProgramsFailingErrorsCleanly(t *testing.T) {
	// pfail=1 makes recovery impossible; the write must error rather than
	// loop forever, and the FTL must stay internally consistent.
	f, _, _ := newFaulty(t, fault.Config{Seed: 1, ProgramFailProb: 1, RetryLimit: 3})
	_, err := f.WriteStriped(0, seq(0, 1))
	if err == nil {
		t.Fatal("write succeeded with pfail=1")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken after failed write: %v", err)
	}
}

// churnUntilError overwrites a small working set until a write fails,
// returning the error (nil if maxRounds elapsed without one).
func churnUntilError(f *FTL, maxRounds int) error {
	for round := 0; round < maxRounds; round++ {
		if _, err := f.WriteStriped(int64(round)*1_000_000, seq(0, 16)); err != nil {
			return err
		}
	}
	return nil
}

func TestEraseFailuresRetireBlocksAndDegrade(t *testing.T) {
	// Every erase fails: each GC victim is retired and GC re-selects.
	// After the reserve budget is exhausted the device degrades to
	// read-only; reads must keep working.
	f, inj, c := newFaulty(t, fault.Config{EraseFailProb: 1, ReserveBlocks: 2})
	err := churnUntilError(f, 200)
	if err == nil {
		t.Fatal("device never degraded with efail=1")
	}
	if !errors.Is(err, fault.ErrReadOnly) {
		t.Fatalf("error = %v, want ErrReadOnly", err)
	}
	if !f.Degraded() {
		t.Fatal("Degraded() false after ErrReadOnly")
	}
	st := f.Stats()
	if st.RetiredBlocks != 3 {
		t.Fatalf("RetiredBlocks = %d, want reserve+1 = 3", st.RetiredBlocks)
	}
	if st.DegradedEntries != 1 {
		t.Fatalf("DegradedEntries = %d, want 1", st.DegradedEntries)
	}
	if inj.Stats().EraseFails == 0 {
		t.Fatal("no erase failures recorded")
	}
	if int64(f.Array().BadBlocks()) != st.RetiredBlocks {
		t.Fatalf("array bad blocks %d != ftl retired %d", f.Array().BadBlocks(), st.RetiredBlocks)
	}
	// Reads of surviving mappings still work in read-only mode.
	for lpn := int64(0); lpn < 16; lpn++ {
		if f.Mapped(lpn) {
			if _, err := f.Read(0, []int64{lpn}); err != nil {
				t.Fatalf("read of lpn %d failed in degraded mode: %v", lpn, err)
			}
		}
	}
	// Writes keep being refused.
	if _, err := f.WriteStriped(0, seq(0, 1)); !errors.Is(err, fault.ErrReadOnly) {
		t.Fatalf("degraded write error = %v, want ErrReadOnly", err)
	}
	if c.Failure() != nil {
		t.Fatalf("invariant violation during retirement: %v", c.Failure())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGrownBadRetirement(t *testing.T) {
	// Erases succeed but post-erase wear detection always retires the
	// block — same recovery path, different fault class.
	f, inj, c := newFaulty(t, fault.Config{GrownBadProb: 1, ReserveBlocks: 1})
	err := churnUntilError(f, 200)
	if !errors.Is(err, fault.ErrReadOnly) {
		t.Fatalf("error = %v, want ErrReadOnly", err)
	}
	if inj.Stats().GrownBad == 0 {
		t.Fatal("no grown-bad draws recorded")
	}
	if f.Stats().Erases == 0 {
		t.Fatal("no erase completed — grown-bad path never exercised")
	}
	if c.Failure() != nil {
		t.Fatal(c.Failure())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// runChurn drives a fixed workload until it completes or the device gives
// out, returning the FTL, the round the first error hit (-1 if none), and
// the error text. A heavily faulted tiny device legitimately wears out
// mid-churn; determinism means two runs wear out identically.
func runChurn(t *testing.T, cfg fault.Config, rounds int) (*FTL, int, string) {
	t.Helper()
	f, _, _ := newFaulty(t, cfg)
	for round := 0; round < rounds; round++ {
		lpns := seq(int64(round%5)*8, 16)
		if _, err := f.WriteStriped(int64(round)*1_000_000, lpns); err != nil {
			return f, round, err.Error()
		}
	}
	return f, -1, ""
}

func TestProbabilisticFaultsAreDeterministic(t *testing.T) {
	cfg := fault.Config{Seed: 11, ProgramFailProb: 0.02, GrownBadProb: 0.05, ReserveBlocks: 100}
	a, roundA, errA := runChurn(t, cfg, 60)
	b, roundB, errB := runChurn(t, cfg, 60)
	if roundA != roundB || errA != errB {
		t.Fatalf("runs ended differently: round %d (%s) vs round %d (%s)", roundA, errA, roundB, errB)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("two identical fault runs diverged:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	if a.Array().BadBlocks() != b.Array().BadBlocks() {
		t.Fatal("bad-block counts diverged")
	}
	if a.Stats().ProgramRetries == 0 {
		t.Fatal("workload too small: no faults were injected, determinism untested")
	}
	// Consistency must hold even at the point of wear-out.
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHarnessOnlyInjectorIsTransparent(t *testing.T) {
	// An injector with no fault sources (only the checker enabled) must
	// leave the FTL bit-identical to a run without any injector.
	plain := mustNew(t, tinyParams())
	for round := 0; round < 40; round++ {
		if _, err := plain.WriteStriped(int64(round)*1_000_000, seq(0, 16)); err != nil {
			t.Fatal(err)
		}
	}
	faulty, _, c := newFaulty(t, fault.Config{CheckInvariants: true})
	for round := 0; round < 40; round++ {
		if _, err := faulty.WriteStriped(int64(round)*1_000_000, seq(0, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if plain.Stats() != faulty.Stats() {
		t.Fatalf("harness-only injector perturbed the run:\n%+v\n%+v", plain.Stats(), faulty.Stats())
	}
	if c.Failure() != nil {
		t.Fatal(c.Failure())
	}
}
