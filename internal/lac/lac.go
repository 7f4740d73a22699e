// Package lac generates and evaluates local approximate changes (LACs).
// Two LAC families are supported, matching the paper's experiments:
//
//   - constant LACs: replace a node by constant 0 or 1;
//   - SASIMI LACs [13]: replace a node by another existing signal, possibly
//     complemented ("substitute and simplify").
//
// Every LAC has a single-output affected region whose output is the target
// node (§III-A), so applying one is exactly aig.Graph.ReplaceWithLit.
// Candidate errors are evaluated in batch against the CPM (package cpm)
// and the metric state (package metric); with a single LAC per iteration
// the estimate is exact w.r.t. the sampled patterns.
package lac

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sync/atomic"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/metric"
	"dpals/internal/par"
	"dpals/internal/sim"
)

// LAC is one candidate local approximate change: replace Target by NewLit.
type LAC struct {
	Target int32
	NewLit aig.Lit
	Gain   int // estimated AND nodes saved (MFFC of the target)
}

// IsConst reports whether the LAC replaces its target by a constant.
func (l LAC) IsConst() bool { return l.NewLit.Var() == 0 }

// DiffOperands returns the unmaterialised form of DiffMask: the target's
// value flips exactly on the set bits of tv ⊕ nv ⊕ inv, where inv is a
// word-level complement mask (all-ones when NewLit is complemented). For
// constant LACs nv is the simulator's all-zero constant vector. Feeding
// the operands straight into metric.Evaluator.EvalLACXor scores the
// candidate without writing a diff vector; padding bits that inv sets
// past the pattern count are harmless because CPM rows are masked.
func (l LAC) DiffOperands(s *sim.Sim) (tv, nv bitvec.Vec, inv uint64) {
	tv = s.Val(l.Target)
	nv = s.Val(l.NewLit.Var())
	if l.NewLit.IsCompl() {
		inv = ^uint64(0)
	}
	return tv, nv, inv
}

// DiffMask writes into dst the patterns under which the target's value
// changes when the LAC is applied: val(target) ⊕ val(NewLit).
func (l LAC) DiffMask(s *sim.Sim, dst bitvec.Vec) {
	tv := s.Val(l.Target)
	nv := s.Val(l.NewLit.Var())
	if l.NewLit.IsCompl() {
		for i := range dst {
			dst[i] = tv[i] ^ ^nv[i]
		}
		dst.Mask(s.Patterns())
	} else {
		dst.Xor(tv, nv)
	}
}

// Options configures candidate generation.
type Options struct {
	Constants bool // generate constant-0/1 LACs
	SASIMI    bool // generate signal-substitution LACs
	// MaxPerNode bounds the number of SASIMI substitution candidates per
	// target node. The paper's third self-adaption knob ("reduce the number
	// of LACs for each target node") lowers this value when step 3
	// dominates the runtime. Default 8.
	MaxPerNode int
	// SampleWords bounds the number of 64-bit words used for the
	// similarity ranking scan (the exact diff mask is still computed over
	// all patterns during evaluation). Default 8 (512 patterns).
	SampleWords int
	// WindowSize is the half-width of the popcount-sorted neighbourhood
	// scanned for similar signals. Default 32.
	WindowSize int
}

func (o Options) withDefaults() Options {
	if o.MaxPerNode <= 0 {
		o.MaxPerNode = 8
	}
	if o.SampleWords <= 0 {
		o.SampleWords = 8
	}
	if o.WindowSize <= 0 {
		o.WindowSize = 32
	}
	return o
}

// Generator produces candidate LACs for target nodes of one graph.
// The SASIMI similarity index must be refreshed (Reindex) after the
// simulation values change; flows refresh it once per iteration.
type Generator struct {
	g   *aig.Graph
	s   *sim.Sim
	opt Options

	// SASIMI similarity index: the PIs and live AND nodes in canonical
	// order, by (sampled popcount, position in the PIs-then-Topo() list).
	signals []int32 // the indexed signals in canonical order
	first   []int32 // per popcount p: index of the first signal with popcount ≥ p
	rank    []int32 // per var: index into signals, −1 if not indexed
	src     []int32 // Reindex scratch: the signals in PIs-then-Topo() order
	srcPop  []int32 // Reindex scratch: their sampled popcounts

	// Reused scratch. Candidate generation is serial by contract (it walks
	// shared graph traversal state), so these need no locking; the
	// per-worker evaluators are indexed by stable par worker ids.
	evs      []*metric.Evaluator // per-worker metric scratch
	evState  *metric.State       // state the evaluators are bound to
	lacBuf   []LAC               // all candidates of one EvaluateTargets call
	offs     [][2]int            // per target: [start, end) into lacBuf
	tfoMark  []bool              // sasimi: TFO membership of the current target
	tfoList  []int32             // sasimi: marked nodes, for O(cone) reset
	tfoStack []int32             // sasimi: DFS stack
	top      []scoredCand        // sasimi: the best distinct neighbours so far
}

// scoredCand is a SASIMI neighbour of the current target: node at sampled
// Hamming distance dist, in the polarity (compl) that minimises it.
type scoredCand struct {
	node  int32
	compl bool
	dist  int
}

// less is the canonical candidate order: by distance, then node id. The
// polarity is a function of the node, so this is a total order on nodes.
func (c scoredCand) less(d scoredCand) bool {
	return c.dist < d.dist || c.dist == d.dist && c.node < d.node
}

// NewGenerator builds a generator and its signal index.
func NewGenerator(g *aig.Graph, s *sim.Sim, opt Options) *Generator {
	gen := &Generator{g: g, s: s, opt: opt.withDefaults()}
	gen.Reindex()
	return gen
}

// MaxPerNode returns the current SASIMI candidate bound per target.
func (gen *Generator) MaxPerNode() int { return gen.opt.MaxPerNode }

// SetMaxPerNode adjusts the SASIMI candidate bound per target (the paper's
// third self-adaption knob). Values below 1 are clamped to 1.
func (gen *Generator) SetMaxPerNode(n int) {
	if n < 1 {
		n = 1
	}
	gen.opt.MaxPerNode = n
}

// Reindex rebuilds the similarity index from the current simulation values.
// Cheap (one popcount per signal and a counting sort); call after every
// applied LAC or once per iteration. The order is canonical — by (sampled
// popcount, position in the PIs-then-Topo() list) — so it depends on no
// sort implementation. A warmed Reindex allocates nothing.
func (gen *Generator) Reindex() {
	if !gen.opt.SASIMI {
		return
	}
	g, s := gen.g, gen.s
	sw := gen.sampleWords()
	src := gen.src[:0]
	for _, v := range g.PIs() {
		src = append(src, v)
	}
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			src = append(src, v)
		}
	}
	// Counting sort: first[p+1] counts popcount p (at most sw·64), and
	// the prefix sums turn it into bucket starts.
	srcPop := resize(gen.srcPop, len(src))
	first := resize(gen.first, sw*64+2)
	clear(first)
	for i, v := range src {
		p := int32(samplePop(s.Val(v), sw))
		srcPop[i] = p
		first[p+1]++
	}
	for p := 1; p < len(first); p++ {
		first[p] += first[p-1]
	}
	// Stable placement with first as the bucket cursors. Each cursor ends
	// at the next bucket's start, so shift first back by one afterwards.
	signals := resize(gen.signals, len(src))
	for i, v := range src {
		p := srcPop[i]
		signals[first[p]] = v
		first[p]++
	}
	copy(first[1:], first)
	first[0] = 0
	rank := resize(gen.rank, g.NumVars())
	for i := range rank {
		rank[i] = -1
	}
	for i, v := range signals {
		rank[v] = int32(i)
	}
	gen.signals, gen.first, gen.rank = signals, first, rank
	gen.src, gen.srcPop = src, srcPop
}

// resize returns b with length n, reallocating only when it lacks capacity.
func resize(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func (gen *Generator) sampleWords() int {
	sw := gen.opt.SampleWords
	if sw > gen.s.Words() {
		sw = gen.s.Words()
	}
	return sw
}

func samplePop(v bitvec.Vec, words int) int {
	n := 0
	for i := 0; i < words; i++ {
		n += popcount(v[i])
	}
	return n
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// CandidatesFor returns the candidate LACs targeting node v. The target's
// MFFC size is attached as the gain of every candidate. Not safe for
// concurrent use (shares graph traversal state and generator scratch).
func (gen *Generator) CandidatesFor(v int32) []LAC {
	return gen.appendCandidates(nil, v)
}

// appendCandidates appends v's candidate LACs to out. The batch evaluator
// routes every target through one shared buffer, so steady-state candidate
// generation allocates nothing.
func (gen *Generator) appendCandidates(out []LAC, v int32) []LAC {
	g := gen.g
	if !g.IsAnd(v) {
		return out
	}
	gain := g.MFFCSize(v)
	if gen.opt.Constants {
		out = append(out,
			LAC{Target: v, NewLit: aig.False, Gain: gain},
			LAC{Target: v, NewLit: aig.True, Gain: gain},
		)
	}
	if gen.opt.SASIMI {
		out = gen.sasimiAppend(out, v, gain)
	}
	return out
}

// markTFO marks v's transitive-fanout cone (v included) in gen.tfoMark,
// resetting the marks of the previous call first — substituting a signal
// from the cone would create a cycle.
func (gen *Generator) markTFO(v int32) {
	g := gen.g
	for _, u := range gen.tfoList {
		gen.tfoMark[u] = false
	}
	gen.tfoList = gen.tfoList[:0]
	if n := g.NumVars(); len(gen.tfoMark) < n {
		gen.tfoMark = make([]bool, n*2)
	}
	gen.tfoMark[v] = true
	gen.tfoList = append(gen.tfoList, v)
	stack := append(gen.tfoStack[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Fanouts(x) {
			if !gen.tfoMark[w] && !g.IsDead(w) {
				gen.tfoMark[w] = true
				gen.tfoList = append(gen.tfoList, w)
				stack = append(stack, w)
			}
		}
	}
	gen.tfoStack = stack[:0]
}

// sasimiAppend scans the popcount-ordered neighbourhood of v for the most
// similar signals (direct or complemented) outside v's transitive fanout
// and appends the MaxPerNode best distinct ones to out, in the canonical
// order (scoredCand.less). The choice depends only on the set of nodes the
// windows cover, not on the order they are scanned in.
func (gen *Generator) sasimiAppend(out []LAC, v int32, gain int) []LAC {
	g := gen.g
	s := gen.s
	sw := gen.sampleWords()
	sampleBits := sw * 64
	if p := s.Patterns(); sampleBits > p {
		sampleBits = p
	}

	if int(v) >= len(gen.rank) || gen.rank[v] < 0 {
		return out
	}
	r := int(gen.rank[v])
	gen.markTFO(v)
	gen.top = gen.top[:0]
	vv := s.Val(v)
	consider := func(i int) {
		if i < 0 || i >= len(gen.signals) {
			return
		}
		u := gen.signals[i]
		if u == v || gen.tfoMark[u] || g.IsDead(u) {
			return
		}
		d := 0
		uv := s.Val(u)
		for w := 0; w < sw; w++ {
			d += popcount(vv[w] ^ uv[w])
		}
		if d <= sampleBits-d {
			gen.offer(scoredCand{u, false, d})
		} else {
			gen.offer(scoredCand{u, true, sampleBits - d})
		}
	}
	// Same-polarity neighbourhood: similar popcount.
	for off := 1; off <= gen.opt.WindowSize; off++ {
		consider(r - off)
		consider(r + off)
	}
	// Complemented candidates live near popcount  (sampleBits - pop(v)):
	// scan that neighbourhood too.
	ci := int(gen.first[sampleBits-samplePop(vv, sw)])
	for off := 0; off <= gen.opt.WindowSize; off++ {
		consider(ci - off - 1)
		consider(ci + off)
	}
	for _, c := range gen.top {
		out = append(out, LAC{Target: v, NewLit: aig.MakeLit(c.node, c.compl), Gain: gain})
	}
	return out
}

// offer inserts c into gen.top, which holds the MaxPerNode best distinct
// candidates offered so far in ascending canonical order. Anything not
// better than a full buffer's last entry is rejected at once; a node the
// two windows both cover has equal keys and is kept once.
func (gen *Generator) offer(c scoredCand) {
	top, k := gen.top, gen.opt.MaxPerNode
	if len(top) == k && !c.less(top[k-1]) {
		return
	}
	i := len(top)
	for i > 0 && c.less(top[i-1]) {
		i--
	}
	if i > 0 && top[i-1].node == c.node {
		return
	}
	if len(top) < k {
		top = append(top, c)
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = c
	gen.top = top
}

// Memo carries per-node evaluation results across EvaluateTargetsMemoCtx
// calls of one synthesis run, keyed by an explicit epoch. A candidate's
// evaluated error depends on the *global* metric state — the error of the
// whole circuit after applying it — so any applied LAC invalidates every
// memoized evaluation, not just the ones near the change: the owner must
// bump the epoch (Invalidate) after every state change that can affect
// generation or evaluation — an applied LAC (graph, simulation, metric
// state, similarity index), a rollback, or a MaxPerNode adjustment. A node
// is served from the memo only when its entry was stored in the current
// epoch, i.e. when nothing at all changed since it was evaluated; the
// reused NodeBest is then trivially bit-identical to a re-evaluation.
//
// The real reuse window is a dual-phase round boundary that applies
// nothing: when phase 2 exits on its error-budget or self-adaption check
// (rather than by applying its last candidate), the following
// comprehensive pass runs under the exact state of the last phase-2
// evaluation and reuses its S_cand evaluations — including the serial
// candidate generation, which no parallelism can hide.
type Memo struct {
	epoch uint64
	stamp []uint64 // per var: epoch of the node's stored evaluation
	best  []NodeBest
	work  []int64 // per var: work estimate of the stored evaluation
}

// NewMemo returns an empty memo for graphs with numVars variables.
func NewMemo(numVars int) *Memo {
	return &Memo{
		epoch: 1,
		stamp: make([]uint64, numVars),
		best:  make([]NodeBest, numVars),
		work:  make([]int64, numVars),
	}
}

// Invalidate starts a new epoch, atomically dropping every memoized
// evaluation. Cheap: entries age out by stamp mismatch. A nil memo (no
// memoization) has nothing to drop.
func (m *Memo) Invalidate() {
	if m != nil {
		m.epoch++
	}
}

// fresh reports whether v's stored evaluation is from the current epoch.
func (m *Memo) fresh(v int32) bool { return m != nil && m.stamp[v] == m.epoch }

// Eval is the evaluated error of one candidate LAC.
type Eval struct {
	LAC
	Err float64 // error of the circuit after applying the LAC (estimated, exact w.r.t. samples)
}

// NodeBest summarises the best LAC of one target node: the paper's E(n) is
// Best.Err − currentError.
type NodeBest struct {
	Node int32
	Best Eval
	N    int // number of candidates evaluated
}

// EvaluateTargets evaluates every candidate LAC for every target that has a
// CPM row and returns per-node bests, sorted by ascending error (ties:
// larger gain first), plus a deterministic work estimate of the evaluation
// in bitvec word operations (the counterpart of cut.Set.Work and
// cpm.Result.Work, used by DP-SA's self-adaption). Candidate generation
// runs serially (it walks shared graph traversal state); evaluation fans
// out over `threads` workers with the pipeline-wide semantics of package
// par (≤0: all CPUs, 1: serial). Results are bit-identical for every
// thread count: each worker evaluates whole targets with private scratch
// and writes only its target's slot.
func EvaluateTargets(gen *Generator, res *cpm.Result, st *metric.State, targets []int32, threads int) ([]NodeBest, int64) {
	bests, work, _, _, _ := EvaluateTargetsMemoCtx(context.Background(), gen, res, st, targets, threads, nil)
	return bests, work
}

// EvaluateTargetsMemoCtx is EvaluateTargets with cooperative cancellation
// and cross-call memoization. Cancellation stops handing out targets once
// ctx is cancelled and returns ctx.Err() alongside partial (unsorted,
// incomplete) bests, which the caller must discard; an uncancelled run is
// bit-identical to EvaluateTargets. Targets whose memo entry is from the
// current epoch skip both candidate generation and evaluation and reuse
// the stored NodeBest — bit-identical by the Memo epoch contract — while
// every freshly evaluated target is stored back. A nil memo disables
// memoization.
//
// The returned work includes reusedWork, the recorded work estimate of the
// reused evaluations: an unchanged state implies an identical re-evaluation
// cost, so charging it keeps the deterministic work profile — and with it
// DP-SA's self-adaption trajectory — bit-identical to a memo-less run.
// hits counts the targets served from the memo.
func EvaluateTargetsMemoCtx(ctx context.Context, gen *Generator, res *cpm.Result, st *metric.State, targets []int32, threads int, memo *Memo) (bests []NodeBest, work, reusedWork int64, hits int, err error) {
	// Candidate generation is serial (shared graph traversal state); all
	// targets share one reused buffer, addressed by [start, end) offsets so
	// growth during generation cannot invalidate earlier targets' slices.
	// Memo-fresh targets keep an empty slot: their generation is skipped.
	gen.lacBuf = gen.lacBuf[:0]
	gen.offs = gen.offs[:0]
	for _, v := range targets {
		start := len(gen.lacBuf)
		if res.Has(v) && !memo.fresh(v) {
			gen.lacBuf = gen.appendCandidates(gen.lacBuf, v)
		}
		gen.offs = append(gen.offs, [2]int{start, len(gen.lacBuf)})
	}
	var hits64 int64
	out := make([]NodeBest, len(targets))
	workers := par.ScratchSlots(threads, len(targets))
	if gen.evState != st {
		gen.evs = gen.evs[:0]
		gen.evState = st
	}
	for len(gen.evs) < workers {
		gen.evs = append(gen.evs, nil)
	}
	evs := gen.evs[:workers]
	err = par.ForCtx(ctx, threads, len(targets), func(w, i int) {
		v := targets[i]
		// Serve memo-fresh targets without touching the evaluator. The
		// res.Has guard is belt-and-braces: a fresh stamp implies an
		// unchanged state, under which every analysis produces a row for v.
		if memo.fresh(v) && res.Has(v) {
			out[i] = memo.best[v]
			atomic.AddInt64(&work, memo.work[v])
			atomic.AddInt64(&reusedWork, memo.work[v])
			atomic.AddInt64(&hits64, 1)
			return
		}
		if evs[w] == nil {
			evs[w] = st.NewEvaluator()
		}
		ev := evs[w]
		cl := gen.lacBuf[gen.offs[i][0]:gen.offs[i][1]]
		nb := NodeBest{Node: v, Best: Eval{Err: -1}}
		row := res.Row(v)
		if len(cl) > 0 {
			ev.BindRow(row) // v's candidates share its row
		}
		// One words-wide fused diff–score pass per row entry, per candidate.
		wk := int64(len(cl)) * int64(len(row.POs)) * int64(gen.s.Words())
		for _, cand := range cl {
			tv, nv, inv := cand.DiffOperands(gen.s)
			e := ev.EvalLACXor(tv, nv, inv)
			nb.N++
			if nb.Best.Err < 0 || e < nb.Best.Err ||
				(e == nb.Best.Err && cand.Gain > nb.Best.Gain) {
				nb.Best = Eval{LAC: cand, Err: e}
			}
		}
		out[i] = nb
		atomic.AddInt64(&work, wk)
		if memo != nil && nb.N > 0 {
			// Distinct targets → distinct slots; race-clean like out[i].
			memo.best[v] = nb
			memo.work[v] = wk
			memo.stamp[v] = memo.epoch
		}
	})
	hits = int(atomic.LoadInt64(&hits64))
	if err != nil {
		return out, work, reusedWork, hits, err
	}
	// Drop targets with no evaluated candidate, sort by error.
	kept := out[:0]
	for _, nb := range out {
		if nb.N > 0 {
			kept = append(kept, nb)
		}
	}
	slices.SortFunc(kept, func(a, b NodeBest) int {
		if c := cmp.Compare(a.Best.Err, b.Best.Err); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Best.Gain, a.Best.Gain); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	return kept, work, reusedWork, hits, nil
}
