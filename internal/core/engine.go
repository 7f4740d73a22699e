package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/equiv"
	"dpals/internal/fault"
	"dpals/internal/lac"
	"dpals/internal/metric"
	"dpals/internal/obs"
	"dpals/internal/sim"
)

// Result of a synthesis run.
type Result struct {
	Graph *aig.Graph // approximate circuit, swept
	Error float64    // final error on the training patterns
	Stats Stats
}

// Run synthesises an approximate version of g under opt and returns the
// result. g itself is never modified.
func Run(g *aig.Graph, opt Options) (*Result, error) {
	return RunContext(context.Background(), g, opt, Hooks{})
}

// RunContext is Run with cooperative cancellation, an optional deadline
// and the internal test hooks (the zero Hooks is a production run): when
// ctx is cancelled (or opt.TimeLimit expires) the run stops at the next
// checkpoint — an iteration boundary of the flow, or a wave boundary
// inside a running analysis — and returns the valid best-so-far result
// instead of an error. The returned circuit is swept, its Error is the
// genuine sampled error of that circuit, and it never exceeds the budget;
// Stats.StopReason tells whether the run completed (budget, max-iters) or
// was stopped (cancelled, deadline). An uncancelled run is bit-identical to
// Run for every thread count. Errors are returned only for invalid
// configurations, never for cancellation.
func RunContext(ctx context.Context, g *aig.Graph, opt Options, hooks Hooks) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.Resolved()
	if err := opt.Validate(g.NumPIs(), g.NumPOs()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opt.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.TimeLimit)
		defer cancel()
	}
	if opt.Metric == metric.WCE {
		// The sampled metric and the candidate pruning share the budget
		// machinery of every other flow: the threshold is the bound.
		opt.Threshold = float64(opt.WCEBound)
	}
	// The observability layer rides on the context: a recording tracer,
	// metrics registry, or progress renderer installed by the caller is
	// picked up here; otherwise the shared no-op tracer provides the span
	// timestamps the Stats step and phase times are derived from. Either
	// way the code path is the same and tracing never writes engine state,
	// so a traced run is bit-identical to an untraced one.
	tr := obs.FromContext(ctx)
	run := tr.Start("run")
	run.SetStr("flow", opt.Flow.String())
	run.SetStr("metric", opt.Metric.String())
	run.SetFloat("threshold", opt.Threshold)
	run.SetInt("patterns", int64(opt.Patterns))
	run.SetInt("threads", int64(opt.Threads))
	init := run.Child("init")
	e, err := newEngine(g, opt, hooks)
	if err != nil {
		init.End()
		run.End()
		return nil, err
	}
	init.SetInt("ands", int64(e.stats.NodesBefore))
	init.SetInt("words", int64(e.s.Words()))
	init.End()
	e.ctx = ctx
	e.root, e.cur = run, run
	e.metrics = obs.MetricsFrom(ctx)
	e.prog = obs.ProgressFrom(ctx)
	start := time.Now()
	switch opt.Flow {
	case FlowConventional:
		e.runConventional()
	case FlowVECBEE:
		e.runVECBEE()
	case FlowAccALS:
		e.runAccALS()
	case FlowDP, FlowDPSA:
		e.runDualPhase(opt.Flow == FlowDPSA)
	default:
		run.End()
		return nil, fmt.Errorf("core: unknown flow %d", int(opt.Flow))
	}
	if e.stats.StopReason == "" {
		// Flows record the reason at their exit checkpoint; a flow that
		// returned without one completed naturally.
		e.stats.StopReason = StopBudget
	}
	e.finalizeWCE()
	e.stats.Runtime = time.Since(start)
	e.stats.NodesAfter = e.g.NumAnds()
	e.stats.Pool = e.cache.Pool().Stats()
	sw := run.Child("sweep")
	out := e.g.Sweep()
	sw.End()
	finalErr := e.st.Error()
	if hooks.Fault.Fire(fault.MisreportError) {
		// Seeded reporting bug: the circuit is faithful but the reported
		// error is not — the oracle's recompute-on-the-returned-circuit
		// cross-check must catch exactly this.
		finalErr += 1e-3 * (1 + math.Abs(finalErr))
	}
	run.SetInt("applied", int64(e.stats.Applied))
	run.SetInt("ands_after", int64(out.NumAnds()))
	run.SetFloat("error", finalErr)
	run.SetStr("stop_reason", string(e.stats.StopReason))
	run.End()
	if e.metrics != nil {
		if !e.cancelAt.IsZero() {
			// Cancellation latency: first observation of the dead context
			// to the end of the best-so-far wind-down.
			e.metrics.Gauge("cancel_latency_s").Set(time.Since(e.cancelAt).Seconds())
		}
		e.sampleMetrics()
	}
	e.prog.Done()
	return &Result{Graph: out, Error: finalErr, Stats: e.stats}, nil
}

// engine holds the mutable synthesis state shared by all flows.
type engine struct {
	opt   Options
	hooks Hooks
	ctx   context.Context // run-scoped; checked at iteration and wave boundaries
	g     *aig.Graph
	s     *sim.Sim
	st    *metric.State
	cuts  *cut.Set   // nil for VECBEE flows
	cache *cpm.Cache // every disjoint-cut CPM analysis; bound to g and s
	gen   *lac.Generator
	memo  *lac.Memo // cross-round evaluation memo (dual-phase flows; nil disables it)
	exact []bitvec.Vec
	stats Stats

	poScratch  bitvec.Vec
	targetsBuf []int32 // liveTargets scratch, reused across iterations
	iter       int     // applied-LAC counter (1-based in callbacks)
	incCuts    bool    // maintain cuts incrementally on apply (dual-phase flows)

	// WCE-constrained flow state (Metric == metric.WCE; cert is nil
	// otherwise). lastGood is the most recent SAT-certified state (the
	// pristine input, trivially certified at 0, until the first checkpoint
	// passes); pending records every LAC applied since it, in order, for
	// the rollback-and-replay path of wceCheckpoint; certWCE is the bound
	// lastGood is proven to satisfy.
	cert     *equiv.Certifier
	lastGood snapshot
	pending  []pendingLAC
	certWCE  uint64

	// Observability (see internal/obs). root is the run-level span — never
	// nil, since the no-op tracer still hands out timestamp-only spans the
	// Stats step and phase times are derived from. cur is the span new
	// apply spans nest under; flows point it at their current phase.
	// metrics and prog are nil unless the caller installed them in the
	// context.
	root     *obs.Span
	cur      *obs.Span
	metrics  *obs.Metrics
	prog     *obs.Progress
	cancelAt time.Time // first observation of a cancelled/expired context
}

// step opens a child span named name under parent and returns it together
// with the context analysis calls should run under: when the span records,
// the context carries it so par workers open their lane spans beneath it;
// otherwise the run context passes through untouched.
func (e *engine) step(parent *obs.Span, name string) (*obs.Span, context.Context) {
	sp := parent.Child(name)
	if sp.Recording() {
		return sp, obs.WithSpan(e.ctx, sp)
	}
	return sp, e.ctx
}

// sampleMetrics publishes the engine's iteration-boundary gauges and takes
// one metrics sample. Reads engine state only; called with e.metrics
// non-nil.
func (e *engine) sampleMetrics() {
	m := e.metrics
	m.Gauge("error").Set(e.st.Error())
	m.Gauge("ands").Set(float64(e.g.NumAnds()))
	m.Gauge("applied").Set(float64(e.stats.Applied))
	m.Gauge("phase1_analyses").Set(float64(e.stats.Comprehensive))
	m.Gauge("phase1_warm").Set(float64(e.stats.WarmComprehensive))
	m.Gauge("phase1_reuse_rate").Set(e.stats.Phase1ReuseRate())
	m.Gauge("phase2_iters").Set(float64(e.stats.Incremental))
	m.Gauge("cpm_rows_reused").Set(float64(e.stats.CPMRowsReused))
	m.Gauge("cpm_rows_recomputed").Set(float64(e.stats.CPMRowsRecomputed))
	m.Gauge("eval_memo_hits").Set(float64(e.stats.EvalMemoHits))
	ps := e.cache.Pool().Stats()
	m.Gauge("pool_gets").Set(float64(ps.Gets))
	m.Gauge("pool_puts").Set(float64(ps.Puts))
	m.Gauge("pool_misses").Set(float64(ps.Misses))
	m.Gauge("pool_high_water").Set(float64(ps.HighWater))
	m.Gauge("pool_hit_rate").Set(ps.HitRate())
	m.TakeSample(e.iter)
}

// observe is the engine's iteration-boundary observation hook: metrics
// sample plus live progress line. Nil-safe on both, so apply calls it
// unconditionally.
func (e *engine) observe() {
	if e.metrics != nil {
		e.sampleMetrics()
	}
	e.prog.Update(e.iter, e.g.NumAnds(), e.st.Error(), e.opt.Threshold)
}

// SimOptions builds the simulator configuration a run of g under opt uses
// to draw its Monte-Carlo (or exhaustive) patterns; opt must be valid for
// g (see Options.Validate). Exported so the verification oracle
// (internal/oracle) can recompute the sampled error of a returned circuit
// on exactly the patterns the run trained on.
func SimOptions(g *aig.Graph, opt Options) sim.Options {
	opt = opt.Resolved()
	so := sim.Options{Patterns: opt.Patterns, Seed: opt.Seed, Threads: opt.Threads}
	if opt.Exhaustive {
		so.Patterns = 1 << g.NumPIs()
		so.Dist = sim.Exhaustive{}
	} else if len(opt.InputProbabilities) > 0 {
		so.Dist = sim.Biased{P: opt.InputProbabilities}
	}
	return so
}

// lacOptions is the candidate-generator configuration of a run.
func (o Options) lacOptions() lac.Options {
	return lac.Options{Constants: o.UseConstLACs, SASIMI: o.UseSASIMILACs, MaxPerNode: o.MaxLACsPerNode}
}

func newEngine(orig *aig.Graph, opt Options, hooks Hooks) (*engine, error) {
	g := orig.Sweep() // private, compact working copy
	if g.NumAnds() == 0 {
		return nil, errors.New("core: circuit has no AND nodes to approximate")
	}
	s := sim.New(g, SimOptions(g, opt))
	exact := make([]bitvec.Vec, g.NumPOs())
	for o := range exact {
		exact[o] = bitvec.NewWords(s.Words())
		s.POVal(o, exact[o])
	}
	weights := opt.Weights
	if weights == nil && opt.Metric.Numeric() {
		weights = metric.UnsignedWeights(g.NumPOs())
	}
	st := metric.NewState(opt.Metric, exact, weights, s.Patterns())
	e := &engine{
		opt:       opt,
		hooks:     hooks,
		g:         g,
		s:         s,
		st:        st,
		exact:     exact,
		gen:       lac.NewGenerator(g, s, opt.lacOptions()),
		poScratch: bitvec.NewWords(s.Words()),
	}
	e.newCache()
	e.stats.NodesBefore = g.NumAnds()
	if opt.Metric == metric.WCE {
		// Certify against a frozen copy of the (swept) input — sweeping
		// preserves the function, so a proof against the copy is a proof
		// against the caller's circuit.
		e.cert = equiv.NewCertifier(g.Clone())
		e.cert.Limit = opt.CertConflictLimit
		e.lastGood = snapshot{g: g.Clone()}
	}
	return e, nil
}

// newCache binds a fresh CPM cache to the engine's graph and simulator.
// Under Hooks.NoCPMCache it recomputes every row it is asked for while
// charging the cached path's work (cpm.Cache.NoReuse).
func (e *engine) newCache() {
	e.cache = cpm.NewCache(e.g, e.s)
	e.cache.NoReuse = e.hooks.NoCPMCache
}

// liveTargets returns all live AND nodes in topological order. The slice
// is engine-owned scratch, valid until the next call — every caller hands
// it straight to the evaluator and drops it.
func (e *engine) liveTargets() []int32 {
	out := e.targetsBuf[:0]
	for _, v := range e.g.Topo() {
		if e.g.IsAnd(v) {
			out = append(out, v)
		}
	}
	e.targetsBuf = out
	return out
}

// fire consults the run's fault plan (nil in every production run) at one
// injection opportunity; see internal/fault.
func (e *engine) fire(k fault.Kind) bool { return e.hooks.Fault.Fire(k) }

// apply commits a LAC: rewires the graph, incrementally resimulates, folds
// the PO changes into the metric state, repairs the cuts and the SASIMI
// index. It returns the change set.
func (e *engine) apply(l lac.LAC) aig.ChangeSet {
	sp := e.cur.Child("apply")
	cs := e.g.ReplaceWithLit(l.Target, l.NewLit)
	// changed is simulator-owned scratch, valid only until the next
	// ResimulateFrom call — consumed below before anything resimulates.
	var changed []int32
	if !e.fire(fault.SkipResim) {
		rs := sp.Child("resim")
		changed = e.s.ResimulateFrom(cs.Rewired)
		rs.SetInt("changed_vars", int64(len(changed)))
		rs.SetInt("words", int64(e.s.Words()))
		rs.End()
	}
	if len(changed) > 0 && e.fire(fault.FlipSimBit) {
		e.s.Val(changed[0])[0] ^= 1
	}
	if !e.fire(fault.SkipMetricCommit) {
		for o := 0; o < e.g.NumPOs(); o++ {
			e.s.POVal(o, e.poScratch)
			e.st.CommitPO(o, e.poScratch)
		}
	}
	if e.cuts != nil && e.incCuts {
		cu := sp.Child("cuts.update")
		w0 := e.cuts.Work()
		var sv []int32
		if e.fire(fault.SkipCutWarmUpdate) {
			// Seeded warm-path bug: the incremental repair is skipped but
			// the set still claims to be in sync, so later analyses (and
			// the next round's warm start) trust stale cuts. Invalidate
			// below still sees the full fanin closure — sv is subsumed by
			// the TFI cones of cs.FanoutChanged — so the corruption is
			// isolated to the cut structure itself.
			e.cuts.ForceSync()
		} else {
			sv = e.cuts.UpdateAfter(cs)
			e.stats.CutUpdates++
		}
		cu.End()
		e.stats.CutTime += cu.Duration()
		e.stats.CutWork += e.cuts.Work() - w0
		if !e.fire(fault.SkipCPMInvalidate) {
			e.cache.Invalidate(cs, changed, sv)
		}
	}
	e.gen.Reindex()
	// Any applied LAC moves the global metric state every evaluation is
	// scored against: every memoized evaluation is stale now.
	e.memo.Invalidate()
	e.stats.Applied++
	e.iter++
	if e.cert != nil {
		e.pending = append(e.pending, pendingLAC{l: l, iter: e.iter})
	}
	sp.SetInt("target", int64(l.Target))
	sp.SetFloat("error", e.st.Error())
	sp.SetInt("ands", int64(e.g.NumAnds()))
	sp.End()
	e.observe()
	return cs
}

// reachedCap reports whether the safety iteration cap has been hit.
func (e *engine) reachedCap() bool {
	return e.opt.MaxIters > 0 && e.stats.Applied >= e.opt.MaxIters
}

// cancelled reports whether the run's context is done, recording the
// matching stop reason (deadline vs cancelled) on the first hit. Flows
// call it at iteration boundaries and after every analysis step, and must
// return best-so-far without further graph edits once it fires.
func (e *engine) cancelled() bool {
	if e.ctx == nil {
		return false
	}
	err := e.ctx.Err()
	if err == nil {
		return false
	}
	if e.stats.StopReason == "" {
		if errors.Is(err, context.DeadlineExceeded) {
			e.stats.StopReason = StopDeadline
		} else {
			e.stats.StopReason = StopCancelled
		}
		e.cancelAt = time.Now() // cancel-latency metric origin
	}
	return true
}

// stopped reports whether a flow must stop before starting another
// iteration — context cancelled/deadline expired, or the MaxIters cap
// reached — recording the stop reason. The natural "no LAC fits the
// budget" exit records StopBudget at its own site.
func (e *engine) stopped() bool {
	if e.cancelled() {
		return true
	}
	if e.reachedCap() {
		e.stats.StopReason = StopMaxIters
		return true
	}
	return false
}

// snapshot captures the full synthesis state for rollback (used by the
// baselines whose estimates can be wrong — AccALS and depth-limited VECBEE —
// and by the WCE certification checkpoints). iter is the applied-LAC
// counter at capture time; restore drops the pending-certification records
// of everything applied after it.
type snapshot struct {
	g    *aig.Graph
	iter int
}

func (e *engine) snapshot() snapshot { return snapshot{g: e.g.Clone(), iter: e.iter} }

// restore rolls the engine back to a snapshot, rebuilding the derived
// state (simulation, metric, cuts, generator) from scratch.
func (e *engine) restore(sn snapshot) {
	sp := e.cur.Child("rollback")
	defer sp.End()
	e.g = sn.g
	e.s = sim.New(e.g, SimOptions(e.g, e.opt))
	weights := e.opt.Weights
	if weights == nil && e.opt.Metric.Numeric() {
		weights = metric.UnsignedWeights(e.g.NumPOs())
	}
	e.st = metric.NewState(e.opt.Metric, e.exact, weights, e.s.Patterns())
	for o := 0; o < e.g.NumPOs(); o++ {
		e.s.POVal(o, e.poScratch)
		e.st.CommitPO(o, e.poScratch)
	}
	e.cuts = nil        // next comprehensive pass rebuilds the cuts
	e.newCache()        // the old cache is bound to the replaced graph/simulator
	e.memo.Invalidate() // evaluations reference the replaced state
	e.gen = lac.NewGenerator(e.g, e.s, e.opt.lacOptions())
	if e.cert != nil {
		keep := e.pending[:0]
		for _, p := range e.pending {
			if p.iter <= sn.iter {
				keep = append(keep, p)
			}
		}
		e.pending = keep
	}
	e.stats.Rollbacks++
}

// pendingLAC is one LAC applied since the last certified checkpoint of the
// WCE flow, with the iter it was applied at (for snapshot truncation).
type pendingLAC struct {
	l    lac.LAC
	iter int
}

// certifyAt runs one SAT certification of the current circuit at bound t,
// recording the "cert" span and the certification counters. A
// conflict-budget exhaustion (or any solver error) counts as a failed
// certification, keeping limited runs deterministic. This is also the
// skip-wce-cert fault site: the seeded bug claims success without proving
// anything.
func (e *engine) certifyAt(t uint64) bool {
	if e.fire(fault.SkipWCECert) {
		return true
	}
	sp := e.cur.Child("cert")
	sp.SetInt("bound", int64(t))
	ok, err := e.cert.CheckAt(e.g, t)
	sp.SetInt("sat_calls", int64(e.cert.Calls))
	sp.End()
	e.stats.CertTime += sp.Duration()
	e.stats.CertCalls = e.cert.Calls
	e.stats.CertCexHits = e.cert.CexHits
	return err == nil && ok
}

// markCertified records the current state as proven at bound t: it becomes
// the rollback anchor and the pending records are cleared.
func (e *engine) markCertified(t uint64) {
	e.lastGood = snapshot{g: e.g.Clone(), iter: e.iter}
	e.pending = e.pending[:0]
	e.certWCE = t
}

// restoreCertified rolls the engine back to the last certified state,
// uncounting everything applied since it.
func (e *engine) restoreCertified() {
	n := len(e.pending)
	e.restore(snapshot{g: e.lastGood.g.Clone(), iter: e.lastGood.iter})
	e.stats.Applied -= n
	e.iter -= n
}

// wceCheckpoint is the amortized certification step of the WCE-constrained
// flow. Flows call it after every accepted LAC; every CertEvery accepted
// LACs (or when forced, before emit) the running circuit is certified at
// the bound. On success the state becomes the new rollback anchor; on
// violation the engine rolls back to the last certified state and replays
// the pending LACs one by one, certifying each, keeping the longest
// certified prefix — and reports true, upon which the flow must stop
// (re-proposing the violating LAC would loop forever: the sampled estimate
// that admitted it cannot see the violating input).
func (e *engine) wceCheckpoint(force bool) bool {
	if e.cert == nil || len(e.pending) == 0 {
		return false
	}
	if !force && len(e.pending) < e.opt.CertEvery {
		return false
	}
	if e.certifyAt(e.opt.WCEBound) {
		e.markCertified(e.opt.WCEBound)
		return false
	}
	e.wceReplay()
	return true
}

// wceReplay is the violation path of wceCheckpoint: back to the last
// certified state, then re-apply the recorded LACs in order with a
// certification after each, stopping at (and undoing) the first violator.
// The cached counterexample that refuted the checkpoint screens the
// replayed candidates by plain simulation, so the replay typically costs
// one extra SAT call, not len(pending).
func (e *engine) wceReplay() {
	e.stats.CertRollbacks++
	recs := make([]pendingLAC, len(e.pending))
	copy(recs, e.pending)
	e.restoreCertified()
	for _, r := range recs {
		l := r.l
		if !e.g.IsAnd(l.Target) || e.g.IsDead(l.NewLit.Var()) {
			continue // consumed by an earlier replayed LAC
		}
		if !l.IsConst() && e.g.InTFO(l.Target, l.NewLit.Var()) {
			continue // earlier rewiring made this substitution cyclic
		}
		e.apply(l)
		if e.certifyAt(e.opt.WCEBound) {
			e.markCertified(e.opt.WCEBound)
			continue
		}
		e.restoreCertified()
		break
	}
}

// finalizeWCE closes out a WCE-constrained run before the final sweep, so
// that the emitted circuit always carries a proven bound. Cancelled or
// deadline-stopped runs do no new SAT work: the uncertified tail is rolled
// back and the last certified state is emitted. Completed runs force a
// final checkpoint, then tighten CertifiedWCE by binary search between the
// sampled maximum (a genuine lower bound on the true worst case) and the
// proven bound — with an unlimited conflict budget the result is the exact
// worst-case error; with a limited one, inconclusive probes keep the
// current proven bound.
func (e *engine) finalizeWCE() {
	if e.cert == nil {
		return
	}
	if e.stats.StopReason == StopCancelled || e.stats.StopReason == StopDeadline {
		if len(e.pending) > 0 {
			e.restoreCertified()
		}
		e.stats.CertifiedWCE = e.certWCE
		return
	}
	if len(e.pending) > 0 {
		e.wceCheckpoint(true)
	}
	lo, hi := uint64(0), e.certWCE
	if sm := e.st.Error(); sm > 0 && hi > 0 {
		lo = uint64(sm)
		if lo > hi {
			lo = hi
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if e.certifyAt(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	e.stats.CertifiedWCE = hi
}

// warmStart reports whether the next comprehensive pass may reuse the
// incrementally-maintained analysis state instead of rebuilding cold: the
// dual-phase flow repairs the cuts after every apply (incCuts), the set
// exists and is in sync with the graph — the §III-B cut preservation
// condition held through every change since the last pass — and the A/B
// switch did not force cold passes. A first round (no cuts yet), a
// rollback (cuts dropped), or a cancelled build (set never marked synced)
// all fall back to the cold rebuild.
func (e *engine) warmStart() bool {
	return e.incCuts && !e.hooks.NoWarmStart && e.cuts != nil && e.cuts.InSync()
}
