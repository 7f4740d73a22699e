package core

import (
	"math"

	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/fault"
	"dpals/internal/lac"
	"dpals/internal/obs"
)

// comprehensive performs the full error analysis of Fig. 3(b): disjoint
// cuts of every node, full CPM, evaluation of every candidate LAC. It
// returns the per-node bests sorted by ascending error.
//
// Cross-round warm start (the paper's §III-B/§III-C reuse applied at round
// granularity): in dual-phase flows the engine repairs the cut set and
// invalidates the CPM cache after *every* apply, so when the set is still
// in sync at the next round boundary the pass reuses that state instead of
// discarding it — the cuts are taken as-is (charged at their recorded
// cold-equivalent cost), the CPM recomputes only the rows the
// accumulated changes invalidated, and the evaluation memo serves targets
// whose state did not change since their last evaluation. Every reuse is
// bit-identical to the cold computation; when the repair chain was broken
// (first round, rollback, cancelled build, Hooks.NoWarmStart) the pass
// falls back to the cold rebuild below.
//
// Cancellation makes every step return early at a wave boundary; the
// partial analysis is discarded (nil bests, half-built state dropped) and
// the caller must check e.cancelled() before interpreting nil as "no
// candidates".
func (e *engine) comprehensive(parent *obs.Span) []lac.NodeBest {
	p1 := parent.Child("phase1")
	warm := e.warmStart()
	defer func() {
		p1.End()
		e.stats.Phase1Time += p1.Duration()
		if warm {
			e.stats.Phase1WarmTime += p1.Duration()
		}
	}()
	if warm {
		// The cuts are already exact for the current graph; charge the
		// deterministic cost a cold build would have reported so the DP-SA
		// work profile is warm-invariant.
		sp, _ := e.step(p1, "cuts.warm")
		charged := e.cuts.FullBuildWork()
		sp.SetInt("charged_work", charged)
		sp.End()
		e.stats.CutTime += sp.Duration()
		e.stats.CutWork += charged
		e.stats.SkippedWork += charged
		e.stats.WarmComprehensive++
	} else {
		sp, ctx := e.step(p1, "cuts")
		cuts, err := cut.NewSetCtx(ctx, e.g, e.opt.Threads)
		sp.SetInt("work", cuts.Work())
		sp.End()
		e.stats.CutTime += sp.Duration()
		e.stats.CutWork += cuts.Work()
		if err != nil {
			// Cancelled mid-build: the set is incomplete and must not be
			// stored — a later warm start or phase-2 closure would trust
			// half-built cuts. e.cuts keeps its previous value (nil, or a
			// complete set the unchanged graph still matches).
			return nil
		}
		e.cuts = cuts
	}
	targets := e.liveTargets()
	name := "cpm"
	if warm {
		name = "cpm.warm"
	}
	upd, err := e.refreshCPM(p1, name, targets)
	// Work + ReusedWork == the cold build's deterministic estimate.
	e.stats.CPMWork += upd.Work + upd.ReusedWork
	e.stats.SkippedWork += upd.ReusedWork
	e.stats.Phase1RowsReused += int64(upd.Reused)
	e.stats.Phase1RowsRecomputed += int64(upd.Recomputed)
	if err != nil {
		return nil
	}
	res := upd.Res
	if e.fire(fault.FlipDiffBit) {
		res.FlipDiffBit(e.hooks.Fault.Opportunities())
	}
	sp, ctx := e.step(p1, "eval")
	bests, ew, rw, hits, err := lac.EvaluateTargetsMemoCtx(ctx, e.gen, res, e.st, targets, e.opt.Threads, e.memo)
	sp.SetInt("targets", int64(len(targets)))
	sp.SetInt("lacs_best", int64(len(bests)))
	sp.SetInt("work", ew)
	sp.SetInt("memo_hits", int64(hits))
	sp.End()
	e.stats.EvalTime += sp.Duration()
	e.stats.EvalWork += ew // includes rw: charged cold-equivalent
	e.stats.SkippedWork += rw
	e.stats.EvalMemoHits += int64(hits)
	if err != nil {
		return nil
	}
	e.stats.Comprehensive++
	return bests
}

// refreshCPM is the one CPM analysis of every disjoint-cut flow: it
// ensures the rows of targets' closure through the engine's cache under a
// span named name and records the time and row accounting. Which work the
// Update charges to CPMWork is the caller's choice (phase 1 charges the
// cold-equivalent, phase 2 only the recomputation).
func (e *engine) refreshCPM(parent *obs.Span, name string, targets []int32) (cpm.Update, error) {
	sp, ctx := e.step(parent, name)
	upd, err := e.cache.RefreshCtx(ctx, e.cuts, targets, e.opt.Threads)
	sp.SetInt("targets", int64(len(targets)))
	sp.SetInt("rows_reused", int64(upd.Reused))
	sp.SetInt("rows_recomputed", int64(upd.Recomputed))
	sp.SetInt("work", upd.Work)
	sp.End()
	e.stats.CPMTime += sp.Duration()
	e.stats.CPMRowsReused += int64(upd.Reused)
	e.stats.CPMRowsRecomputed += int64(upd.Recomputed)
	return upd, err
}

// runConventional is the flow of Fig. 3(a): every iteration performs a
// comprehensive analysis and applies the single LAC with the smallest
// error, until no candidate fits the threshold.
func (e *engine) runConventional() {
	for {
		if e.stopped() {
			return
		}
		bests := e.comprehensive(e.root)
		if e.cancelled() {
			return
		}
		if len(bests) == 0 || bests[0].Best.Err > e.opt.Threshold {
			e.stats.StopReason = StopBudget
			return
		}
		chosen := bests[0]
		e.apply(chosen.Best.LAC)
		if e.hooks.OnIteration != nil {
			e.hooks.OnIteration(e.iter, chosen, bests)
		}
		if e.wceCheckpoint(false) {
			// Certification failed: the engine kept the longest certified
			// prefix; re-proposing the violator would loop forever.
			e.stats.StopReason = StopBudget
			return
		}
	}
}

// runVECBEE is the original VECBEE baseline: one-cut CPM with depth limit
// l. With l=∞ the estimate is exact and the loop mirrors the conventional
// flow; with finite l the estimate can be wrong, so every application is
// validated against the real (sampled) error and rolled back on violation.
func (e *engine) runVECBEE() {
	exactMode := e.opt.DepthLimit <= 0
	for {
		if e.stopped() {
			return
		}
		bests, ok := e.vecbeeAnalysis()
		if !ok {
			return
		}
		if len(bests) == 0 || bests[0].Best.Err > e.opt.Threshold {
			e.stats.StopReason = StopBudget
			return
		}
		chosen := bests[0]
		if exactMode {
			e.apply(chosen.Best.LAC)
		} else {
			sn := e.snapshot()
			e.apply(chosen.Best.LAC)
			if e.st.Error() > e.opt.Threshold {
				e.restore(sn)
				e.stats.StopReason = StopBudget
				return
			}
		}
		if e.hooks.OnIteration != nil {
			e.hooks.OnIteration(e.iter, chosen, bests)
		}
		if e.wceCheckpoint(false) {
			e.stats.StopReason = StopBudget
			return
		}
	}
}

// vecbeeAnalysis is one analysis of the original VECBEE baseline: the
// one-cut depth-limited CPM plus LAC evaluation, recorded as a phase-1
// span like every other full analysis. ok is false when the run was
// cancelled mid-analysis (the partial result must be discarded).
func (e *engine) vecbeeAnalysis() (bests []lac.NodeBest, ok bool) {
	p1 := e.root.Child("phase1")
	defer func() {
		p1.End()
		e.stats.Phase1Time += p1.Duration()
	}()
	sp, ctx := e.step(p1, "cpm")
	res, err := cpm.BuildVECBEECtx(ctx, e.g, e.s, e.opt.DepthLimit, nil, e.opt.Threads)
	sp.SetInt("work", res.Work)
	sp.End()
	e.stats.CPMTime += sp.Duration()
	e.stats.CPMWork += res.Work
	if err != nil {
		e.cancelled()
		return nil, false
	}
	if e.fire(fault.FlipDiffBit) {
		res.FlipDiffBit(e.hooks.Fault.Opportunities())
	}
	sp, ctx = e.step(p1, "eval")
	targets := e.liveTargets()
	bests, ew, _, _, err := lac.EvaluateTargetsMemoCtx(ctx, e.gen, res, e.st, targets, e.opt.Threads, nil)
	sp.SetInt("targets", int64(len(targets)))
	sp.SetInt("work", ew)
	sp.End()
	e.stats.EvalTime += sp.Duration()
	e.stats.EvalWork += ew
	if err != nil {
		e.cancelled()
		return nil, false
	}
	e.stats.Comprehensive++
	return bests, true
}

// runAccALS re-implements AccALS [14]: each iteration selects multiple
// LACs greedily on the estimated error, applies them in a batch, and
// validates against the real (sampled) error. When the batch violates the
// bound or deviates too much from the estimate, it rolls back and applies
// only the single best LAC — the SEALS fallback the paper describes.
func (e *engine) runAccALS() {
	tol := accTol
	if e.hooks.AccTol > 0 {
		tol = e.hooks.AccTol
	}
	for {
		if e.stopped() {
			return
		}
		bests := e.comprehensive(e.root)
		if e.cancelled() {
			return
		}
		if len(bests) == 0 || bests[0].Best.Err > e.opt.Threshold {
			e.stats.StopReason = StopBudget
			return
		}
		cur := e.st.Error()
		// Greedy multi-selection on estimated combined error.
		var sel []lac.NodeBest
		est := cur
		for _, nb := range bests {
			inc := nb.Best.Err - cur
			if inc < 0 {
				inc = 0
			}
			if est+inc > e.opt.Threshold {
				break // sorted by error: later candidates are no better
			}
			sel = append(sel, nb)
			est += inc
			if len(sel) == maxMulti {
				break
			}
		}
		if len(sel) <= 1 {
			chosen := bests[0]
			e.apply(chosen.Best.LAC)
			if e.hooks.OnIteration != nil {
				e.hooks.OnIteration(e.iter, chosen, bests)
			}
			if e.wceCheckpoint(false) {
				e.stats.StopReason = StopBudget
				return
			}
			continue
		}
		sn := e.snapshot()
		// Apply the batch but hold the OnIteration callbacks until it
		// validates: a rolled-back batch must not be observed, and its
		// iteration numbers must not be consumed (the fallback single LAC
		// reuses the first of them).
		type appliedRec struct {
			nb   lac.NodeBest
			iter int
		}
		var recs []appliedRec
		for _, nb := range sel {
			l := nb.Best.LAC
			if !e.g.IsAnd(l.Target) || e.g.IsDead(l.NewLit.Var()) {
				continue // consumed by an earlier LAC of this batch
			}
			if !l.IsConst() && e.g.InTFO(l.Target, l.NewLit.Var()) {
				continue // earlier rewiring made this substitution cyclic
			}
			e.apply(l)
			recs = append(recs, appliedRec{nb: nb, iter: e.iter})
		}
		real := e.st.Error()
		dev := math.Abs(real - est)
		if real > e.opt.Threshold || dev > tol*math.Max(est, 1e-12) {
			// Estimate was unreliable: fall back to a single LAC (SEALS).
			e.restore(sn)
			e.stats.Applied -= len(recs)
			e.iter -= len(recs)
			chosen := bests[0]
			e.apply(chosen.Best.LAC)
			if e.hooks.OnIteration != nil {
				e.hooks.OnIteration(e.iter, chosen, bests)
			}
		} else if e.hooks.OnIteration != nil {
			for _, r := range recs {
				e.hooks.OnIteration(r.iter, r.nb, bests)
			}
		}
		if e.wceCheckpoint(false) {
			e.stats.StopReason = StopBudget
			return
		}
	}
}

// runDualPhase is the paper's contribution (Fig. 3(c)): dual-phase rounds
// of one comprehensive analysis followed by up to N incremental
// iterations restricted to the candidate set S_cand. With selfAdapt the
// two §III-D techniques are enabled: parameter tuning from the step-work
// profile of the last dual phase, and the adaptive early stop of phase 2.
func (e *engine) runDualPhase(selfAdapt bool) {
	e.incCuts = true
	if !e.hooks.NoWarmStart {
		// Cross-round evaluation memo: phase-2 evaluations not followed by
		// an apply stay valid into the next comprehensive pass.
		e.memo = lac.NewMemo(e.g.NumVars())
	}
	M := e.opt.M
	if M <= 0 {
		if e.stats.NodesBefore < 4000 {
			M = 60
		} else {
			M = 150
		}
	}
	N := e.opt.N
	if N <= 0 {
		N = M / 3
	}
	if N < 1 {
		N = 1
	}

	for {
		if e.stopped() {
			return
		}
		cuts0, cpm0, eval0 := e.stats.CutWork, e.stats.CPMWork, e.stats.EvalWork
		round := e.root.Child("round")
		round.SetInt("M", int64(M))
		round.SetInt("N", int64(N))
		stop := e.dualPhaseRound(round, M, N, selfAdapt)
		round.End()
		if stop {
			return
		}

		// ---------- Self-adaption: tune parameters from the last phase ----------
		// The paper profiles the steps by runtime; here the profile is the
		// deterministic work estimate (word operations), which tracks
		// serial runtime but is identical between runs regardless of
		// Threads, machine, or load — so the tuned trajectory, and with it
		// the whole DP-SA flow, stays bit-reproducible.
		if selfAdapt {
			dCuts := e.stats.CutWork - cuts0
			dCPM := e.stats.CPMWork - cpm0
			dEval := e.stats.EvalWork - eval0
			total := dCuts + dCPM + dEval
			if total > 0 {
				switch {
				case dCuts*2 > total:
					// Step 1 dominates: growing M amortises the
					// comprehensive pass over more phase-2 iterations
					// without increasing the incremental cut work.
					M = growInt(M, 1+rInc)
				case dCPM*2 > total:
					// Step 2 dominates: shrink the candidate set so fewer
					// CPM entries are rebuilt per iteration.
					M = shrinkInt(M, 1-rInc, 6)
				case dEval*2 > total:
					// Step 3 dominates: fewer LACs per target node. With
					// constant LACs there are only two per node and nothing
					// to reduce; shrinking M instead would buy more
					// comprehensive passes, so leave the parameters alone.
					if e.opt.UseSASIMILACs && e.gen.MaxPerNode() > 1 {
						e.gen.SetMaxPerNode(e.gen.MaxPerNode() / 2)
						// Fewer candidates per node: memoized bests were
						// picked from a larger candidate set.
						e.memo.Invalidate()
					}
				}
				N = M / 3
				if N < 1 {
					N = 1
				}
			}
			e.stats.MTrace = append(e.stats.MTrace, M)
		}
	}
}

// dualPhaseRound runs one round of the dual-phase framework under the given
// round span: a comprehensive phase-1 analysis, the phase-1 apply, and up to
// N incremental phase-2 iterations restricted to the candidate set S_cand of
// the M best remaining nodes. It reports whether the whole flow should stop
// (error budget exhausted, iteration cap reached, or run cancelled).
func (e *engine) dualPhaseRound(round *obs.Span, M, N int, selfAdapt bool) (stop bool) {
	// Applies of this round nest their spans under the round.
	e.cur = round
	defer func() { e.cur = e.root }()

	// ---------- Phase 1: comprehensive analysis ----------
	bests := e.comprehensive(round)
	if e.cancelled() {
		return true
	}
	if len(bests) == 0 || bests[0].Best.Err > e.opt.Threshold {
		e.stats.StopReason = StopBudget
		return true
	}
	E0 := e.st.Error() // error at the start of this dual-phase iteration
	chosen := bests[0]
	cs := e.apply(chosen.Best.LAC)
	if e.hooks.OnIteration != nil {
		e.hooks.OnIteration(e.iter, chosen, bests)
	}
	if e.wceCheckpoint(false) {
		e.stats.StopReason = StopBudget
		return true
	}
	// Candidate set: the M remaining nodes with the smallest errors,
	// excluding anything the applied LAC removed.
	removed := map[int32]bool{}
	for _, r := range cs.Removed {
		removed[r] = true
	}
	var scand []int32
	for _, nb := range bests[1:] {
		if removed[nb.Node] {
			continue
		}
		scand = append(scand, nb.Node)
		if len(scand) == M {
			break
		}
	}

	// ---------- Phase 2: incremental analysis ----------
	p2 := round.Child("phase2")
	e.cur = p2
	iters0 := e.stats.Incremental
	defer func() {
		p2.SetInt("iters", int64(e.stats.Incremental-iters0))
		p2.End()
		e.stats.Phase2Time += p2.Duration()
	}()
	sumEr := 0.0
	for it := 0; it < N && !e.reachedCap(); it++ {
		if e.cancelled() {
			return true
		}
		// Keep only still-live candidates.
		live := scand[:0]
		for _, v := range scand {
			if e.g.IsAnd(v) {
				live = append(live, v)
			}
		}
		scand = live
		if len(scand) == 0 {
			break
		}
		// Incremental analysis: serve the closure of S_cand from the
		// cache, recomputing only rows invalidated since the last
		// analysis — §III-C's reuse, bit-identical to a full rebuild.
		upd, err := e.refreshCPM(p2, "cpm", scand)
		e.stats.CPMWork += upd.Work
		if err != nil {
			e.cancelled()
			return true
		}
		res := upd.Res
		if e.fire(fault.FlipDiffBit) {
			res.FlipDiffBit(e.hooks.Fault.Opportunities())
		}
		// The memo is write-mostly here (an apply separates consecutive
		// phase-2 evaluations, bumping the epoch): its value is that the
		// final evaluation of a round that exits *without* applying stays
		// fresh into the next comprehensive pass.
		sp, ctx := e.step(p2, "eval")
		bests2, ew, rw, hits, err := lac.EvaluateTargetsMemoCtx(ctx, e.gen, res, e.st, scand, e.opt.Threads, e.memo)
		sp.SetInt("targets", int64(len(scand)))
		sp.SetInt("work", ew)
		sp.End()
		e.stats.EvalTime += sp.Duration()
		e.stats.EvalWork += ew
		e.stats.SkippedWork += rw
		e.stats.EvalMemoHits += int64(hits)
		if err != nil {
			e.cancelled()
			return true
		}
		if len(bests2) == 0 || bests2[0].Best.Err > e.opt.Threshold {
			break
		}
		cand := bests2[0]
		er := 0.0
		if selfAdapt {
			E := e.st.Error()
			if einc := cand.Best.Err - E; einc > 0 {
				if E0 > 0 {
					er = einc / E0
				} else {
					er = math.Inf(1)
				}
			}
			Eb := e.opt.Threshold
			halt := false
			switch {
			case E <= bR*Eb:
				// Far from the bound: unconstrained.
			case E <= bS*Eb:
				halt = er > eT
			default:
				halt = sumEr+er > eT
			}
			if halt {
				break
			}
		}
		cs2 := e.apply(cand.Best.LAC)
		e.stats.Incremental++
		sumEr += er
		if e.hooks.OnIteration != nil {
			e.hooks.OnIteration(e.iter, cand, bests2)
		}
		// Remove the target and its removed MFFC from S_cand.
		gone := map[int32]bool{cand.Node: true}
		for _, r := range cs2.Removed {
			gone[r] = true
		}
		kept := scand[:0]
		for _, v := range scand {
			if !gone[v] {
				kept = append(kept, v)
			}
		}
		scand = kept
		if e.wceCheckpoint(false) {
			e.stats.StopReason = StopBudget
			return true
		}
	}
	return false
}

func growInt(v int, f float64) int {
	n := int(float64(v) * f)
	if n <= v {
		n = v + 1
	}
	return n
}

func shrinkInt(v int, f float64, floor int) int {
	n := int(float64(v) * f)
	if n < floor {
		n = floor
	}
	return n
}
