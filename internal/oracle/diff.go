package oracle

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
)

// Divergence is the first observed disagreement between the fast
// implementation and the oracle on one Spec. Step is the request index
// the disagreement surfaced at (-1 for end-of-run checks); Kind names the
// diffed surface ("result", "transitions", "idle", "membership",
// "conservation", "invariant", "ftl").
type Divergence struct {
	Spec   Spec
	Step   int
	Kind   string
	Detail string
}

// Error implements error.
func (d *Divergence) Error() string {
	return fmt.Sprintf("divergence [%s] at step %d (policy %s, seed %d): %s",
		d.Kind, d.Step, d.Spec.Policy, d.Spec.Seed, d.Detail)
}

// recorder buffers list-transition annotations for diffing.
type recorder struct {
	trs []cache.ListTransition
}

func (r *recorder) OnListTransition(tr cache.ListTransition) { r.trs = append(r.trs, tr) }

// pair holds the two sides of one differential run.
type pair struct {
	fast cache.Policy
	ora  Policy
	// Typed handles for the Req-block membership diff; nil otherwise.
	fastRB *core.ReqBlock
	oraRB  *ReqBlock
	// Transition streams; attached only for Req-block.
	fastTr, oraTr *recorder
}

// buildPair constructs both sides from a validated Spec.
func buildPair(s *Spec) pair {
	switch s.Policy {
	case "req-block":
		f := core.NewConfig(s.CapacityPages, core.Config{Delta: s.Delta, Merge: s.Merge, Recency: s.Recency})
		o := NewReqBlock(s.CapacityPages, ReqBlockConfig{
			Delta: s.Delta, Merge: s.Merge, Recency: s.Recency, Mutation: s.Mutation,
		})
		p := pair{fast: f, ora: o, fastRB: f, oraRB: o, fastTr: &recorder{}, oraTr: &recorder{}}
		f.SetTransitionSink(p.fastTr)
		o.SetTransitionSink(p.oraTr)
		return p
	case "lru":
		return pair{fast: cache.NewLRU(s.CapacityPages), ora: NewLRU(s.CapacityPages)}
	case "bplru":
		var f cache.Policy
		if s.Padding {
			f = cache.NewBPLRUWithPadding(s.CapacityPages, s.PagesPerBlock)
		} else {
			f = cache.NewBPLRU(s.CapacityPages, s.PagesPerBlock)
		}
		return pair{fast: f, ora: NewBPLRU(s.CapacityPages, s.PagesPerBlock, s.Padding)}
	case "fab":
		return pair{fast: cache.NewFAB(s.CapacityPages, s.PagesPerBlock), ora: NewFAB(s.CapacityPages, s.PagesPerBlock)}
	case "lfu":
		return pair{fast: cache.NewLFU(s.CapacityPages), ora: NewLFU(s.CapacityPages)}
	case "pud-lru":
		return pair{fast: cache.NewPUDLRU(s.CapacityPages, s.PagesPerBlock), ora: NewPUDLRU(s.CapacityPages, s.PagesPerBlock)}
	}
	panic("oracle: buildPair on unvalidated spec")
}

// ftlPair is the differential FTL sink: every eviction batch is flushed
// through both the fast FTL (tiny 4-plane geometry, 96 logical pages) and
// the naive oracle FTL over the same geometry. Physical placement is
// policy, not contract, so only the live logical set is diffed — plus
// both sides' full invariant suites, which is where the oracle's
// content-stamp check ("GC never loses a live page") bites.
type ftlPair struct {
	fast  *ftl.FTL
	ora   *FTL
	stamp uint64
}

// diffFTLGeometry is the shared tiny geometry: 2 channels × 2 chips ×
// 1 plane × 8 blocks × 4 pages = 128 physical pages, 96 logical after
// 25% over-provisioning, GC floor 2 blocks/plane — small enough that
// campaigns hammer the GC path constantly.
func diffFTLGeometry() flash.Params {
	p := flash.DefaultParams()
	p.Channels, p.ChipsPerChannel, p.PlanesPerChip = 2, 2, 1
	p.BlocksPerPlane, p.PagesPerBlock = 8, 4
	p.OverProvision = 0.25
	p.GCThreshold = 0.25
	return p
}

func newFTLPair() (*ftlPair, error) {
	params := diffFTLGeometry()
	f, err := ftl.New(params)
	if err != nil {
		return nil, err
	}
	return &ftlPair{
		fast: f,
		ora:  NewFTL(params.Planes(), params.BlocksPerPlane, params.PagesPerBlock, params.LogicalPages(), 2),
	}, nil
}

// flush feeds one eviction batch to both FTLs, stamping every page. A nil
// pair (ModeVindex runs without FTLs) takes nothing.
func (fp *ftlPair) flush(now int64, ev Eviction) error {
	if fp == nil || len(ev.LPNs) == 0 {
		return nil
	}
	stamps := make([]uint64, len(ev.LPNs))
	for i := range stamps {
		fp.stamp++
		stamps[i] = fp.stamp
	}
	lpns := append([]int64(nil), ev.LPNs...)
	var fastErr, oraErr error
	if ev.BlockBound {
		_, fastErr = fp.fast.WriteBlockBound(now, lpns)
		oraErr = fp.ora.WriteBlockBound(lpns, stamps)
	} else {
		_, fastErr = fp.fast.WriteStriped(now, lpns)
		oraErr = fp.ora.WriteStriped(lpns, stamps)
	}
	if fastErr != nil {
		return fmt.Errorf("fast ftl: %w", fastErr)
	}
	if oraErr != nil {
		return fmt.Errorf("oracle ftl: %w", oraErr)
	}
	return nil
}

// mappedDiff compares the live logical sets of both FTLs.
func (fp *ftlPair) mappedDiff() string {
	if fp == nil {
		return ""
	}
	for lpn := int64(0); lpn < fp.ora.LogicalPages(); lpn++ {
		if f, o := fp.fast.Mapped(lpn), fp.ora.Mapped(lpn); f != o {
			return fmt.Sprintf("lpn %d: fast mapped=%v, oracle mapped=%v", lpn, f, o)
		}
	}
	return ""
}

// membershipEvery sets the cadence of the deep state diffs (per-page list
// membership, per-list occupancy gauges, FTL mapped sets). They are
// linear scans, so they run periodically rather than per request; the
// final diff always runs.
const membershipEvery = 16

// Run replays a Spec through the fast implementation and the oracle in
// lockstep and returns the first divergence, or nil when the two agree on
// every externally visible decision: per-request hit/miss/insert counts,
// read-miss pages, eviction batches (victim sets, ordering, block
// binding, padding reads), idle-destage decisions, list-transition
// annotations, per-list membership, cache occupancy conservation, FTL
// mapped sets, and both sides' invariant suites. ModeVindex specs run the
// same loop without the FTL pair: their address ranges outgrow its 96
// logical pages.
func Run(spec Spec) *Divergence {
	if err := spec.Validate(); err != nil {
		return &Divergence{Spec: spec, Step: -1, Kind: "spec", Detail: err.Error()}
	}
	if spec.Mode == ModeGCSched {
		// Scheduled-vs-greedy GC over the lockstep FTL triple; Shrink,
		// SaveRepro and the repro corpus reuse this dispatch untouched.
		return runGCSched(spec)
	}
	p := buildPair(&spec)
	var fp *ftlPair
	if spec.Mode != ModeVindex {
		var err error
		if fp, err = newFTLPair(); err != nil {
			return &Divergence{Spec: spec, Step: -1, Kind: "ftl", Detail: err.Error()}
		}
	}
	maxLPN := spec.MaxLPN()
	diverge := func(step int, kind, detail string) *Divergence {
		return &Divergence{Spec: spec, Step: step, Kind: kind, Detail: detail}
	}

	for i, req := range spec.Requests {
		prevLen := p.ora.Len()
		fastRes := p.fast.Access(req)
		oraRes := p.ora.Access(req)
		// Compare immediately: the fast result's slices alias policy-owned
		// buffers that the next Access/EvictIdle call overwrites.
		if d := diffResults(fastRes, oraRes); d != "" {
			return diverge(i, "result", d)
		}
		if p.fastTr != nil {
			if d := diffTransitions(p.fastTr, p.oraTr); d != "" {
				return diverge(i, "transitions", d)
			}
		}
		evicted := 0
		for _, ev := range oraRes.Evictions {
			evicted += len(ev.LPNs) - len(ev.PaddingReads)
			if err := fp.flush(req.Time, ev); err != nil {
				return diverge(i, "ftl", err.Error())
			}
		}
		if want := prevLen + oraRes.Inserted - evicted; p.ora.Len() != want || p.fast.Len() != want {
			return diverge(i, "conservation", fmt.Sprintf(
				"page conservation: had %d, +%d inserted, -%d evicted, want %d; fast holds %d, oracle holds %d",
				prevLen, oraRes.Inserted, evicted, want, p.fast.Len(), p.ora.Len()))
		}
		if f, o := p.fast.NodeCount(), p.ora.NodeCount(); f != o {
			return diverge(i, "membership", fmt.Sprintf("node count: fast %d, oracle %d", f, o))
		}
		if d := checkInvariants(p); d != "" {
			return diverge(i, "invariant", d)
		}

		if spec.IdleEvery > 0 && (i+1)%spec.IdleEvery == 0 {
			now := req.Time + 1
			var fastEv cache.Eviction
			fastOK := false
			if ie, ok := p.fast.(cache.IdleEvictor); ok {
				fastEv, fastOK = ie.EvictIdle(now)
			}
			oraEv, oraOK := p.ora.EvictIdle(now)
			if fastOK != oraOK {
				return diverge(i, "idle", fmt.Sprintf("EvictIdle fired: fast %v, oracle %v", fastOK, oraOK))
			}
			if fastOK {
				if d := diffEvictions(0, cacheToOracleEviction(fastEv), oraEv); d != "" {
					return diverge(i, "idle", d)
				}
				if err := fp.flush(now, oraEv); err != nil {
					return diverge(i, "ftl", err.Error())
				}
			}
			if p.fastTr != nil {
				if d := diffTransitions(p.fastTr, p.oraTr); d != "" {
					return diverge(i, "transitions", d)
				}
			}
			if f, o := p.fast.Len(), p.ora.Len(); f != o {
				return diverge(i, "idle", fmt.Sprintf("post-idle occupancy: fast %d, oracle %d", f, o))
			}
		}

		if (i+1)%membershipEvery == 0 {
			if d := deepDiff(p, fp, maxLPN); d != "" {
				return diverge(i, "membership", d)
			}
		}
	}

	if d := deepDiff(p, fp, maxLPN); d != "" {
		return diverge(-1, "membership", d)
	}
	if fp != nil {
		if err := fp.fast.CheckInvariants(); err != nil {
			return diverge(-1, "invariant", "fast ftl: "+err.Error())
		}
		if err := fp.ora.CheckInvariants(); err != nil {
			return diverge(-1, "invariant", "oracle ftl: "+err.Error())
		}
	}
	return nil
}

// cacheToOracleEviction converts the fast eviction shape for diffing.
func cacheToOracleEviction(ev cache.Eviction) Eviction {
	return Eviction{LPNs: ev.LPNs, BlockBound: ev.BlockBound, PaddingReads: ev.PaddingReads}
}

// diffResults compares every externally visible field of one Access.
func diffResults(f cache.Result, o Result) string {
	if f.Hits != o.Hits || f.Misses != o.Misses || f.Inserted != o.Inserted {
		return fmt.Sprintf("counts: fast hits/misses/inserted %d/%d/%d, oracle %d/%d/%d",
			f.Hits, f.Misses, f.Inserted, o.Hits, o.Misses, o.Inserted)
	}
	if d := diffLPNs("read misses", f.ReadMisses, o.ReadMisses); d != "" {
		return d
	}
	if len(f.Evictions) != len(o.Evictions) {
		return fmt.Sprintf("eviction batches: fast %d, oracle %d", len(f.Evictions), len(o.Evictions))
	}
	for bi := range f.Evictions {
		if d := diffEvictions(bi, cacheToOracleEviction(f.Evictions[bi]), o.Evictions[bi]); d != "" {
			return d
		}
	}
	return ""
}

// diffEvictions compares one eviction batch field by field.
func diffEvictions(batch int, f, o Eviction) string {
	if d := diffLPNs(fmt.Sprintf("eviction %d victims", batch), f.LPNs, o.LPNs); d != "" {
		return d
	}
	if f.BlockBound != o.BlockBound {
		return fmt.Sprintf("eviction %d block-bound: fast %v, oracle %v", batch, f.BlockBound, o.BlockBound)
	}
	return diffLPNs(fmt.Sprintf("eviction %d padding reads", batch), f.PaddingReads, o.PaddingReads)
}

// diffLPNs compares two LPN sequences order-sensitively (both sides emit
// deterministic orders by construction).
func diffLPNs(what string, f, o []int64) string {
	if len(f) != len(o) {
		return fmt.Sprintf("%s: fast %v, oracle %v", what, f, o)
	}
	for i := range f {
		if f[i] != o[i] {
			return fmt.Sprintf("%s: fast %v, oracle %v", what, f, o)
		}
	}
	return ""
}

// diffTransitions compares the buffered annotation streams and drains
// both recorders.
func diffTransitions(f, o *recorder) string {
	defer func() { f.trs, o.trs = f.trs[:0], o.trs[:0] }()
	if len(f.trs) != len(o.trs) {
		return fmt.Sprintf("transition count: fast %v, oracle %v", fmtTrs(f.trs), fmtTrs(o.trs))
	}
	for i := range f.trs {
		if f.trs[i] != o.trs[i] {
			return fmt.Sprintf("transition %d: fast %+v, oracle %+v", i, f.trs[i], o.trs[i])
		}
	}
	return ""
}

func fmtTrs(trs []cache.ListTransition) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, tr := range trs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d×%d:%s→%s", tr.LPN, tr.Pages, tr.From, tr.To)
	}
	b.WriteByte(']')
	return b.String()
}

// checkInvariants runs both sides' self-checks; the fast side's is
// optional per policy.
func checkInvariants(p pair) string {
	if ck, ok := p.fast.(interface{ CheckInvariants() error }); ok {
		if err := ck.CheckInvariants(); err != nil {
			return "fast: " + err.Error()
		}
	}
	if err := p.ora.CheckInvariants(); err != nil {
		return "oracle: " + err.Error()
	}
	return ""
}

// deepDiff runs the linear-scan state comparisons: cache occupancy,
// Req-block per-page list membership and per-list gauges, and the FTL
// mapped sets.
func deepDiff(p pair, fp *ftlPair, maxLPN int64) string {
	if f, o := p.fast.Len(), p.ora.Len(); f != o {
		return fmt.Sprintf("occupancy: fast %d, oracle %d", f, o)
	}
	if p.fastRB != nil {
		for lpn := int64(0); lpn < maxLPN; lpn++ {
			if f, o := p.fastRB.WhereIs(lpn), p.oraRB.WhereIs(lpn); f != o {
				return fmt.Sprintf("membership of lpn %d: fast %q, oracle %q", lpn, f, o)
			}
		}
		fl, ol := p.fastRB.ListPages(), p.oraRB.ListPages()
		for _, name := range listNames {
			if fl[name] != ol[name] {
				return fmt.Sprintf("%s pages: fast %d, oracle %d", name, fl[name], ol[name])
			}
		}
	}
	return fp.mappedDiff()
}
