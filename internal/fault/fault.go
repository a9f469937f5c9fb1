// Package fault is the deterministic fault-injection plane of the
// simulated SSD. It decides, reproducibly, which flash operations fail:
// page programs (write errors), block erases (erase errors), and wear-out
// detection after a successful erase (grown bad blocks).
//
// Determinism contract: an Injector built from a Config is a pure function
// of that Config and of the sequence of operations offered to it. Every
// program operation consumes exactly one draw from the program stream when
// ProgramFailProb > 0, every erase one draw from the erase stream when
// EraseFailProb > 0, and every successful erase one draw from the grown
// stream when GrownBadProb > 0 (a zero probability consumes nothing, so
// enabling one fault class never perturbs another's draw sequence).
// Scripted triggers (FailProgramOps, FailEraseOps) fire on exact 1-based
// operation ordinals and consume no randomness. Two runs with identical
// Configs over identical operation sequences therefore inject identical
// faults — the property the recovery tests and the replay-level
// reproducibility guarantee rest on.
//
// The package is dependency-free by design: internal/flash and internal/ftl
// import it, never the other way around.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Sentinel errors distinguish injected faults (and their consequences) from
// programming bugs. Layers wrap them with context; match with errors.Is.
var (
	// ErrProgramFail marks an injected page-program failure. The page is
	// consumed (it can never be programmed again before an erase) and holds
	// no reliable data; the FTL must retry on a freshly allocated page.
	ErrProgramFail = errors.New("injected program failure")
	// ErrEraseFail marks an injected block-erase failure. The block is
	// permanently retired (industry practice: erase failures are terminal).
	ErrEraseFail = errors.New("injected erase failure")
	// ErrGrownBad marks a block retired by post-erase wear detection: the
	// erase itself completed, but the block must not be reused.
	ErrGrownBad = errors.New("block grown bad")
	// ErrReadOnly is returned by write paths once the device has degraded
	// to read-only mode (reserved-block budget exhausted).
	ErrReadOnly = errors.New("device degraded to read-only")
)

// Config describes one fault-injection scenario. The zero value disables
// everything (Enabled reports false) and must leave the simulator
// bit-identical to a build without any injector attached.
type Config struct {
	// Seed drives the injector's random streams. Two injectors with equal
	// Configs produce identical fault sequences.
	Seed uint64

	// ProgramFailProb is the per-program probability of a page-program
	// failure.
	ProgramFailProb float64
	// EraseFailProb is the per-erase probability of an erase failure
	// (terminal: the block is retired).
	EraseFailProb float64
	// GrownBadProb is the per-successful-erase probability that wear
	// detection retires the block anyway.
	GrownBadProb float64

	// FailProgramOps scripts exact failures: the Nth program operation
	// (1-based, counted from injector attach) fails. Exact reproducibility
	// for tests — no randomness involved.
	FailProgramOps []int64
	// FailEraseOps scripts exact erase failures, 1-based like
	// FailProgramOps.
	FailEraseOps []int64

	// ChipWeights optionally scales the probabilistic fault rates per chip
	// (index = global chip number); chips beyond the slice use weight 1.
	// Scripted triggers ignore weights. A draw is still consumed for every
	// operation, so weights do not perturb the draw sequence.
	ChipWeights []float64

	// RetryLimit bounds the FTL's write retries after a program failure
	// within one logical page write. Zero selects the default (8).
	RetryLimit int
	// ReserveBlocks is how many block retirements the device tolerates
	// before degrading to read-only mode. Zero selects a default derived
	// from the geometry (1/64 of physical blocks, at least 4).
	ReserveBlocks int

	// PrewornErases, when > 0, seeds every block's erase count near this
	// value before the run — the "aged device" scenario: a device that has
	// already lived most of its P/E budget, so endurance projections start
	// deep in life and grown-defect rates bite a realistic population.
	// Applied by the device layer via ftl.FTL.PreWear; consumes no
	// fault-stream draws, so enabling it never perturbs injection.
	PrewornErases int
	// PrewornJitter spreads the preworn counts: each block adds a
	// deterministic draw in [0, PrewornJitter] keyed by Seed and the block
	// number, modelling the uneven wear a real retired workload leaves.
	PrewornJitter int

	// CrashAtRequest, when > 0, makes the replay harness simulate a DRAM
	// power loss after that many processed requests: the run stops and the
	// dirty pages still buffered are counted as lost.
	CrashAtRequest int
	// DestageNs, when > 0, enables periodic destaging: every DestageNs of
	// simulated time the replayer drains victims from the write buffer
	// (policies implementing cache.IdleEvictor), bounding the dirty data a
	// crash can lose.
	DestageNs int64
	// CheckInvariants attaches a Checker to the FTL so the full
	// cross-layer invariant suite runs after every recovery and at end of
	// replay.
	CheckInvariants bool
}

// Enabled reports whether the config injects any fault or enables any
// fault-plane harness feature.
func (c Config) Enabled() bool {
	return c.ProgramFailProb > 0 || c.EraseFailProb > 0 || c.GrownBadProb > 0 ||
		len(c.FailProgramOps) > 0 || len(c.FailEraseOps) > 0 ||
		c.CrashAtRequest > 0 || c.DestageNs > 0 || c.CheckInvariants ||
		c.PrewornErases > 0 || c.PrewornJitter > 0
}

// Validate rejects configurations that cannot mean anything.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"pfail", c.ProgramFailProb}, {"efail", c.EraseFailProb}, {"grown", c.GrownBadProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	for _, op := range c.FailProgramOps {
		if op < 1 {
			return fmt.Errorf("fault: scripted program op %d, ordinals are 1-based", op)
		}
	}
	for _, op := range c.FailEraseOps {
		if op < 1 {
			return fmt.Errorf("fault: scripted erase op %d, ordinals are 1-based", op)
		}
	}
	for _, w := range c.ChipWeights {
		if w < 0 {
			return fmt.Errorf("fault: negative chip weight %v", w)
		}
	}
	if c.RetryLimit < 0 || c.ReserveBlocks < 0 || c.CrashAtRequest < 0 || c.DestageNs < 0 {
		return fmt.Errorf("fault: negative limit in config")
	}
	if c.PrewornErases < 0 || c.PrewornJitter < 0 {
		return fmt.Errorf("fault: negative preworn value in config")
	}
	return nil
}

// ParseSpec parses the command-line fault specification: comma-separated
// key=value pairs, e.g.
//
//	seed=42,pfail=1e-4,efail=1e-3,grown=1e-4,retries=8,reserve=16,
//	pfail-at=100+2000,efail-at=3,crash-at=50000,destage-ms=100,check=1
//
// Scripted operation lists use '+' separators so they fit in one pair.
// An empty spec returns the zero (disabled) Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return c, fmt.Errorf("fault: spec entry %q is not key=value", pair)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseUint(val, 10, 64)
		case "pfail":
			c.ProgramFailProb, err = strconv.ParseFloat(val, 64)
		case "efail":
			c.EraseFailProb, err = strconv.ParseFloat(val, 64)
		case "grown":
			c.GrownBadProb, err = strconv.ParseFloat(val, 64)
		case "pfail-at":
			c.FailProgramOps, err = parseOps(val)
		case "efail-at":
			c.FailEraseOps, err = parseOps(val)
		case "retries":
			c.RetryLimit, err = strconv.Atoi(val)
		case "reserve":
			c.ReserveBlocks, err = strconv.Atoi(val)
		case "crash-at":
			c.CrashAtRequest, err = strconv.Atoi(val)
		case "preworn":
			c.PrewornErases, err = strconv.Atoi(val)
		case "preworn-jitter":
			c.PrewornJitter, err = strconv.Atoi(val)
		case "destage-ms":
			var ms float64
			ms, err = strconv.ParseFloat(val, 64)
			c.DestageNs = int64(ms * 1e6)
		case "check":
			var b bool
			b, err = strconv.ParseBool(val)
			c.CheckInvariants = b
		default:
			return c, fmt.Errorf("fault: unknown spec key %q", key)
		}
		if err != nil {
			return c, fmt.Errorf("fault: bad value for %s: %w", key, err)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

func parseOps(val string) ([]int64, error) {
	var ops []int64
	for _, s := range strings.Split(val, "+") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, err
		}
		ops = append(ops, n)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops, nil
}

// Stats counts the faults an Injector has fired.
type Stats struct {
	// ProgramOps / EraseOps count operations offered to the injector.
	ProgramOps, EraseOps int64
	// ProgramFails counts injected program failures.
	ProgramFails int64
	// EraseFails counts injected erase failures.
	EraseFails int64
	// GrownBad counts blocks retired by post-erase wear detection draws
	// (the flash layer may retire additional blocks on its own after
	// repeated program failures; those are counted by the FTL's
	// RetiredBlocks, not here).
	GrownBad int64
}

// Injector decides which operations fail. It is deterministic (see the
// package comment) and, like the rest of the simulator, not safe for
// concurrent use.
type Injector struct {
	cfg Config

	programRNG rng
	eraseRNG   rng
	grownRNG   rng

	failProgram map[int64]struct{}
	failErase   map[int64]struct{}

	stats Stats
}

// NewInjector builds an injector for a validated config.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{cfg: cfg}
	// Independent streams per fault class, so enabling one class does not
	// shift another's sequence.
	inj.programRNG.seed(cfg.Seed, 0x9e3779b97f4a7c15)
	inj.eraseRNG.seed(cfg.Seed, 0xbf58476d1ce4e5b9)
	inj.grownRNG.seed(cfg.Seed, 0x94d049bb133111eb)
	inj.failProgram = opSet(cfg.FailProgramOps)
	inj.failErase = opSet(cfg.FailEraseOps)
	return inj, nil
}

func opSet(ops []int64) map[int64]struct{} {
	if len(ops) == 0 {
		return nil
	}
	m := make(map[int64]struct{}, len(ops))
	for _, op := range ops {
		m[op] = struct{}{}
	}
	return m
}

// Config returns the injector's configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// Stats returns a copy of the fault counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// chipWeight returns the probabilistic scaling factor for a chip.
func (inj *Injector) chipWeight(chip int) float64 {
	if chip >= 0 && chip < len(inj.cfg.ChipWeights) {
		return inj.cfg.ChipWeights[chip]
	}
	return 1
}

// ProgramFails reports whether the next page program (on the given chip)
// fails. Exactly one call per program operation.
func (inj *Injector) ProgramFails(chip int) bool {
	inj.stats.ProgramOps++
	fail := false
	if inj.cfg.ProgramFailProb > 0 &&
		inj.programRNG.float64() < inj.cfg.ProgramFailProb*inj.chipWeight(chip) {
		fail = true
	}
	if _, ok := inj.failProgram[inj.stats.ProgramOps]; ok {
		fail = true
	}
	if fail {
		inj.stats.ProgramFails++
	}
	return fail
}

// EraseFails reports whether the next block erase (on the given chip)
// fails. Exactly one call per erase operation.
func (inj *Injector) EraseFails(chip int) bool {
	inj.stats.EraseOps++
	fail := false
	if inj.cfg.EraseFailProb > 0 &&
		inj.eraseRNG.float64() < inj.cfg.EraseFailProb*inj.chipWeight(chip) {
		fail = true
	}
	if _, ok := inj.failErase[inj.stats.EraseOps]; ok {
		fail = true
	}
	if fail {
		inj.stats.EraseFails++
	}
	return fail
}

// GrownBad reports whether post-erase wear detection retires the block.
// Called once per successful erase.
func (inj *Injector) GrownBad(chip int) bool {
	if inj.cfg.GrownBadProb == 0 {
		return false
	}
	if inj.grownRNG.float64() < inj.cfg.GrownBadProb*inj.chipWeight(chip) {
		inj.stats.GrownBad++
		return true
	}
	return false
}

// rng is a splitmix64-seeded xorshift64* stream: tiny, fast, and fully
// reproducible across platforms (unlike math/rand's unspecified stream
// stability across Go versions).
type rng struct{ state uint64 }

func (r *rng) seed(seed, salt uint64) {
	// splitmix64 of seed^salt; guarantees a non-zero xorshift state.
	z := seed ^ salt
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	r.state = z
}

func (r *rng) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// float64 returns a uniform draw in [0,1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Invariants is implemented by layers that can self-validate (the FTL
// validates itself plus the flash array beneath it).
type Invariants interface {
	CheckInvariants() error
}

// Checker runs a target's invariant suite after fault recoveries and at
// end of replay, counting runs and retaining the first failure.
type Checker struct {
	target  Invariants
	checks  int64
	failure error
}

// NewChecker builds a checker over a target.
func NewChecker(target Invariants) *Checker {
	return &Checker{target: target}
}

// Check runs the invariant suite once, recording the first failure.
func (c *Checker) Check() error {
	c.checks++
	err := c.target.CheckInvariants()
	if err != nil && c.failure == nil {
		c.failure = err
	}
	return err
}

// Checks returns how many times the suite has run.
func (c *Checker) Checks() int64 { return c.checks }

// Failure returns the first recorded invariant violation, or nil.
func (c *Checker) Failure() error { return c.failure }
