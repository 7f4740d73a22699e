// Package fault provides deliberate single-fault injection into the
// synthesis engine's bookkeeping. It exists for one purpose: proving that
// the differential-verification harness (internal/oracle, cmd/alscheck)
// detects real engine bugs. A fault plan names one kind of bookkeeping
// mutation and the single opportunity at which to apply it; the engine
// consults the plan at the matching sites (core.Hooks.Fault) and mutates
// its state exactly once. A campaign then asserts that the oracle
// cross-checks flag the corrupted run — if a seeded fault escapes every
// check, the harness has a blind spot.
//
// Production code never sets a plan; a nil *Plan is a faithful run.
package fault

// Kind names one bookkeeping mutation the engine can self-inject.
type Kind string

// The seeded fault kinds. Each corresponds to a class of real bug the
// incremental engine could have: stale caches, missed invalidation,
// corrupted simulation or propagation state, and untruthful reporting.
const (
	// None disables injection (the zero value of a plan's kind).
	None Kind = ""
	// SkipCPMInvalidate drops one cpm.Cache.Invalidate call after an
	// applied LAC, leaving stale rows live across a phase-2 iteration —
	// the exact bug class the cache's invalidation rule guards against.
	SkipCPMInvalidate Kind = "skip-cpm-invalidate"
	// FlipDiffBit flips one bit of one CPM row's diff vector right after
	// an analysis builds it, corrupting a single (pattern, PO) propagation
	// entry the LAC evaluation folds over.
	FlipDiffBit Kind = "flip-diff-bit"
	// SkipResim drops one incremental resimulation after an applied LAC,
	// leaving every downstream node value (and the metric state folded
	// from it) stale.
	SkipResim Kind = "skip-resim"
	// SkipMetricCommit drops one fold of the applied LAC's PO changes into
	// the metric state, desynchronising the tracked error from the
	// simulation.
	SkipMetricCommit Kind = "skip-metric-commit"
	// FlipSimBit flips one bit of one resimulated node value vector,
	// corrupting the simulation state that both the similarity index and
	// the CPM region simulation read.
	FlipSimBit Kind = "flip-sim-bit"
	// MisreportError perturbs the final Result.Error, modelling a
	// reporting bug that leaves the circuit itself intact.
	MisreportError Kind = "misreport-error"
	// SkipCutWarmUpdate drops one cut.Set.UpdateAfter repair after an
	// applied LAC while still marking the set as in sync with the graph —
	// the exact bug class the cross-round warm start of the comprehensive
	// analysis would silently trust: a later pass warm-starts from stale
	// cuts instead of falling back to a cold rebuild.
	SkipCutWarmUpdate Kind = "skip-cut-warm-update"
	// SkipWCECert skips one SAT certification of the WCE-constrained flow
	// while still recording the checkpoint as certified — the claimed bound
	// in Result.CertifiedWCE is then an unproven estimate. Detectable when
	// the skipped check would have failed: the emitted circuit's true
	// worst-case error exceeds the certified bound the run reports.
	SkipWCECert Kind = "skip-wce-cert"
)

// Kinds returns every injectable fault kind, in a stable order.
func Kinds() []Kind {
	return []Kind{
		SkipCPMInvalidate,
		FlipDiffBit,
		SkipResim,
		SkipMetricCommit,
		FlipSimBit,
		MisreportError,
		SkipCutWarmUpdate,
		SkipWCECert,
	}
}

// Plan schedules a single fault: the Nth opportunity of the matching kind
// (1-based; Nth ≤ 0 behaves like 1) fires, every other opportunity is a
// faithful no-op. A plan is single-use — it belongs to exactly one
// synthesis run; build a fresh one per run.
type Plan struct {
	Kind Kind
	Nth  int

	hits  int
	fired bool
}

// New returns a plan that faults the nth opportunity of kind k.
func New(k Kind, nth int) *Plan { return &Plan{Kind: k, Nth: nth} }

// Fire records one opportunity of kind k and reports whether the engine
// must inject the fault now. A nil plan never fires.
func (p *Plan) Fire(k Kind) bool {
	if p == nil || k != p.Kind {
		return false
	}
	p.hits++
	n := p.Nth
	if n <= 0 {
		n = 1
	}
	if p.hits == n {
		p.fired = true
		return true
	}
	return false
}

// Fired reports whether the plan's fault was injected.
func (p *Plan) Fired() bool { return p != nil && p.fired }

// Opportunities returns how many injection opportunities of the plan's
// kind the run offered (fired or not) — used by campaigns to stop scanning
// Nth values past the last real site.
func (p *Plan) Opportunities() int {
	if p == nil {
		return 0
	}
	return p.hits
}
