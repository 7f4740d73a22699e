// Package cpm builds the change propagation matrix (CPM) of VECBEE [19]:
// P[i,n,o] = 1 iff flipping node n under input pattern i flips primary
// output o. Rows are computed bottom-up in reverse topological order with
// Eq. (1) of the paper, P[i,n,o] = P[i,t,o] ∧ P[i,n,t], where t is the
// disjoint-cut element covering o (SEALS [20]); the local Boolean
// differences P[i,n,t] come from one flip-resimulation of the bounded
// region between n and its cut.
//
// Two builders are provided:
//
//   - BuildDisjoint — the enhanced-VECBEE/SEALS scheme used by the
//     conventional flow and by both phases of the dual-phase framework.
//     With a target set it computes the partial CPM restricted to
//     N(S_cand) exactly as §III-C Example 2 describes.
//   - BuildVECBEE — the original VECBEE baseline with a configurable depth
//     limit l: exact full-TFO flip propagation for l=∞, and the
//     "direct-fanout" approximation of Table II for l=1.
package cpm

import (
	"context"
	"math/bits"
	"sort"
	"sync/atomic"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cut"
	"dpals/internal/par"
	"dpals/internal/sim"
)

// Row holds the CPM entries of one node: for each reachable PO index,
// the patterns under which a flip of the node propagates to that PO.
type Row struct {
	POs   []int32
	Diffs []bitvec.Vec
}

// Find returns the diff vector for PO o, or nil.
func (r *Row) Find(o int32) bitvec.Vec {
	for i, p := range r.POs {
		if p == o {
			return r.Diffs[i]
		}
	}
	return nil
}

// Result is a computed (possibly partial) CPM.
type Result struct {
	Words int
	// Work is the deterministic work estimate of the build in bitvec word
	// operations (region simulation plus row assembly). Unlike wall-clock
	// time it is identical between runs regardless of thread count, machine,
	// or load; DP-SA's self-adaption profiles the analysis steps with it.
	Work int64
	rows []Row // per var; empty when not computed/retained
}

// Row returns the row of node v (empty when not computed or freed).
func (r *Result) Row(v int32) *Row { return &r.rows[v] }

// Has reports whether node v has a retained row.
func (r *Result) Has(v int32) bool { return len(r.rows[v].POs) > 0 }

// FlipDiffBit flips one bit of one retained row's diff vector — the row
// selected by site (mod the retained-row count) and, within it, a bit of
// the first diff word cycled by site — and reports whether a bit was
// flipped. It exists solely for the fault-seeding mode of the
// differential-verification campaign (internal/fault, cmd/alscheck): a
// seeded single-bit CPM corruption the oracle cross-checks must detect.
// Indexing by an injection site lets the campaign's Nth-scan explore
// corruption of different rows, not just the first one. Production code
// never calls it.
func (r *Result) FlipDiffBit(site int) bool {
	if site < 0 {
		site = 0
	}
	var retained []int32
	for v := range r.rows {
		row := &r.rows[v]
		if len(row.Diffs) > 0 && len(row.Diffs[0]) > 0 {
			retained = append(retained, int32(v))
		}
	}
	if len(retained) == 0 {
		return false
	}
	row := &r.rows[retained[site%len(retained)]]
	bit := uint(site/len(retained)) % 64
	row.Diffs[0][0] ^= 1 << bit
	return true
}

// Closure computes N(S_cand) per §III-C: starting from the targets, every
// node whose CPM entries are needed to derive the targets' entries — the
// transitive closure of targets under disjoint-cut membership (sinks
// excluded). The result includes the targets and is deduplicated.
func Closure(cuts *cut.Set, targets []int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	queue := append([]int32(nil), targets...)
	for _, v := range targets {
		seen[v] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, e := range cuts.Cut(v) {
			if !cut.IsSink(e) && !seen[e] {
				seen[e] = true
				queue = append(queue, e)
			}
		}
	}
	return out
}

// regionSimulator performs flip-resimulation of the bounded region between
// a node and a boundary, reusing scratch vectors across calls.
type regionSimulator struct {
	g     *aig.Graph
	s     *sim.Sim
	words int
	pos   []int32 // topo position per var, filled from g.Topo() by the owner

	inRegion []uint32
	epoch    uint32
	arena    *bitvec.Arena // backs scratch and local; never reset
	scratch  []bitvec.Vec
	region   []int32
	stack    []int32    // region-collection DFS scratch
	local    bitvec.Vec // scratch for one element-local diff at a time
	order    []uint64   // orderRegion's topo-position bitmap; all zero between calls
}

// orderRegion puts rs.region in ascending topological position without a
// comparison sort: it sets each node's position in a bitmap, then walks the
// words between the lowest and highest position, mapping set bits back to
// nodes through g.Topo() — the slice rs.pos was filled from — and clearing
// each word as it is read. The topo slice is read live, never copied: a
// structural edit replaces it, and the owner refreshes rs.pos from the new
// one before the next build. Every region node reaches a PO (the pipeline
// runs on swept graphs, and ReplaceWithLit removes the cone it leaves
// dangling), so every one has a distinct position in g.Topo().
func (rs *regionSimulator) orderRegion() {
	topo := rs.g.Topo()
	lo, hi := int32(len(topo)), int32(-1)
	for _, v := range rs.region {
		p := rs.pos[v]
		rs.order[p>>6] |= 1 << uint(p&63)
		lo, hi = min(lo, p), max(hi, p)
	}
	k := 0
	for wi := lo >> 6; wi <= hi>>6; wi++ {
		w := rs.order[wi]
		rs.order[wi] = 0
		for ; w != 0; w &= w - 1 {
			rs.region[k] = topo[int(wi)<<6+bits.TrailingZeros64(w)]
			k++
		}
	}
}

// localDiff returns the worker-private scratch vector used to hold the
// local Boolean difference at one cut element. Only one element is
// assembled at a time, so a single vector per worker suffices.
func (rs *regionSimulator) localDiff() bitvec.Vec {
	if rs.local == nil {
		rs.local = rs.arena.Alloc()
	}
	return rs.local
}

// topoPositions returns the topological position of every variable,
// shared read-only by all workers' region simulators.
func topoPositions(g *aig.Graph) []int32 {
	pos := make([]int32, g.NumVars())
	for i, v := range g.Topo() {
		pos[v] = int32(i)
	}
	return pos
}

func newRegionSimulator(g *aig.Graph, s *sim.Sim, pos []int32) *regionSimulator {
	return &regionSimulator{
		g:        g,
		s:        s,
		words:    s.Words(),
		pos:      pos,
		inRegion: make([]uint32, g.NumVars()),
		arena:    bitvec.NewArena(s.Words()),
		scratch:  make([]bitvec.Vec, g.NumVars()),
		order:    make([]uint64, bitvec.Words(g.NumVars())),
	}
}

// flipVal returns the flipped-simulation value of variable v: its scratch
// value when v is in the current region, its normal value otherwise.
func (rs *regionSimulator) flipVal(v int32) bitvec.Vec {
	if rs.inRegion[v] == rs.epoch {
		return rs.scratch[v]
	}
	return rs.s.Val(v)
}

func (rs *regionSimulator) ensureScratch(v int32) bitvec.Vec {
	if rs.scratch[v] == nil {
		// Arena rows hold garbage; every scratch vector is fully written
		// by propagate before it is read.
		rs.scratch[v] = rs.arena.Alloc()
	}
	return rs.scratch[v]
}

// beginRegion starts a fresh region rooted at n.
func (rs *regionSimulator) beginRegion(n int32) {
	rs.epoch++
	if rs.epoch == 0 {
		for i := range rs.inRegion {
			rs.inRegion[i] = 0
		}
		rs.epoch = 1
	}
	rs.region = rs.region[:0]
	rs.inRegion[n] = rs.epoch
}

// collectBounded gathers the transitive fanout of n, stopping at (but
// including) nodes in boundary.
func (rs *regionSimulator) collectBounded(n int32, boundary map[int32]bool) {
	rs.beginRegion(n)
	g := rs.g
	stack := append(rs.stack[:0], n)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v != n && boundary[v] {
			continue
		}
		for _, f := range g.Fanouts(v) {
			if rs.inRegion[f] != rs.epoch {
				rs.inRegion[f] = rs.epoch
				rs.region = append(rs.region, f)
				stack = append(stack, f)
			}
		}
	}
	rs.stack = stack[:0]
}

// collectDepth gathers the transitive fanout of n up to l levels (edges);
// l ≤ 0 means unbounded. It returns the frontier: region nodes at exactly
// depth l (never expanded). Depths are min edge distances (BFS).
func (rs *regionSimulator) collectDepth(n int32, l int, depth map[int32]int) (frontier []int32) {
	rs.beginRegion(n)
	g := rs.g
	queue := []int32{n}
	depth[n] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if l > 0 && depth[v] >= l {
			frontier = append(frontier, v)
			continue
		}
		for _, f := range g.Fanouts(v) {
			if rs.inRegion[f] != rs.epoch {
				rs.inRegion[f] = rs.epoch
				depth[f] = depth[v] + 1
				rs.region = append(rs.region, f)
				queue = append(queue, f)
			}
		}
	}
	return frontier
}

// propagate flips node n and simulates the collected region in topological
// order. After the call flipVal returns in-region values.
func (rs *regionSimulator) propagate(n int32) {
	rs.orderRegion()
	g := rs.g
	sn := rs.ensureScratch(n)
	sn.Not(rs.s.Val(n))
	sn.Mask(rs.s.Patterns())
	for _, v := range rs.region {
		f0, f1 := g.Fanins(v)
		a, b := rs.flipVal(f0.Var()), rs.flipVal(f1.Var())
		dst := rs.ensureScratch(v)
		m0, m1 := uint64(0), uint64(0)
		if f0.IsCompl() {
			m0 = ^uint64(0)
		}
		if f1.IsCompl() {
			m1 = ^uint64(0)
		}
		for i := range dst {
			dst[i] = (a[i] ^ m0) & (b[i] ^ m1)
		}
		dst.Mask(rs.s.Patterns())
	}
}

// diffAt returns flipVal(v) ⊕ val(v) in dst.
func (rs *regionSimulator) diffAt(v int32, dst bitvec.Vec) {
	dst.Xor(rs.flipVal(v), rs.s.Val(v))
}

// disjointBuilder holds the shared, read-mostly state of one BuildDisjoint
// pass. Workers communicate only through index-addressed rows (each row is
// written by exactly one worker and read only after its dependency wave
// completed) and the atomic reference counts.
type disjointBuilder struct {
	g       *aig.Graph
	s       *sim.Sim
	cuts    *cut.Set
	res     *Result
	keep    []bool
	refs    []int32       // atomic: still-unprocessed consumers per row; nil: keep every row
	pool    *bitvec.Pool  // diff-vector allocator; nil: fall through to arena
	arena   *bitvec.Arena // per-build slab backing when unpooled; nil: plain allocation
	rowWork []int64       // per var: work of the node's row, recorded when non-nil (cache mode)
}

// newVec returns a zero-or-garbage diff vector; every caller fully
// overwrites it before publishing.
func (b *disjointBuilder) newVec() bitvec.Vec {
	if b.pool != nil {
		return b.pool.Get()
	}
	if b.arena != nil {
		return b.arena.Alloc()
	}
	return bitvec.NewWords(b.res.Words)
}

// release frees the row of v, recycling its vectors when pooled.
func (b *disjointBuilder) release(v int32) {
	if b.pool != nil {
		for _, d := range b.res.rows[v].Diffs {
			b.pool.Put(d)
		}
	}
	b.res.rows[v] = Row{}
}

// processNode computes the CPM row of v. All of v's non-sink cut elements
// must already have their rows computed (wave scheduling guarantees this).
func (b *disjointBuilder) processNode(rs *regionSimulator, cutSet map[int32]bool, v int32) {
	elems := b.cuts.Cut(v)
	if len(elems) == 0 {
		if b.rowWork != nil {
			b.rowWork[v] = 0
		}
		return // reaches no PO: a flip can never be observed
	}
	// Flip-simulate the region bounded by the node cut elements. Sink
	// elements leave their whole PO cone inside the region, so the
	// diff at the PO driver is available directly.
	for k := range cutSet {
		delete(cutSet, k)
	}
	for _, e := range elems {
		if !cut.IsSink(e) {
			cutSet[e] = true
		}
	}
	rs.collectBounded(v, cutSet)
	rs.propagate(v)
	// Work accounting: one words-wide pass per region node simulated and
	// per diff vector assembled; folded in with one atomic add per node.
	w := int64(1+len(rs.region)) * int64(b.res.Words)
	// Assemble the row: Eq. (1) per covered PO. The entry count is known
	// up front (one per sink, one per element-row PO), so a fresh or
	// undersized row grows with exactly one allocation per slice instead
	// of doubling its way up — row assembly dominated the builder's
	// allocation profile before this.
	row := &b.res.rows[v]
	total := 0
	for _, e := range elems {
		if cut.IsSink(e) {
			total++
		} else {
			total += len(b.res.rows[e].POs)
		}
	}
	if cap(row.POs) < total {
		row.POs = make([]int32, 0, total)
	}
	if cap(row.Diffs) < total {
		row.Diffs = make([]bitvec.Vec, 0, total)
	}
	for _, e := range elems {
		if cut.IsSink(e) {
			// A sink is a universal one-cut: P[v,o] is the Boolean
			// difference observed at the PO driver (all-ones when v
			// drives o itself).
			o := cut.SinkPO(e)
			d := b.newVec()
			rs.diffAt(b.g.PO(o).Var(), d)
			row.POs = append(row.POs, int32(o))
			row.Diffs = append(row.Diffs, d)
			w += int64(b.res.Words)
			continue
		}
		local := rs.localDiff()
		rs.diffAt(e, local)
		erow := &b.res.rows[e]
		w += int64(1+len(erow.POs)) * int64(b.res.Words)
		for i, o := range erow.POs {
			d := b.newVec()
			d.And(erow.Diffs[i], local)
			row.POs = append(row.POs, o)
			row.Diffs = append(row.Diffs, d)
		}
		// Release the element row once its last consumer is done. The
		// decrement comes after the reads above, so the consumer that
		// drops the count to zero knows every other consumer is done too.
		// A nil refs slice means every row is retained (cache mode).
		if b.refs != nil && atomic.AddInt32(&b.refs[e], -1) == 0 && !b.keep[e] {
			b.release(e)
		}
	}
	// v's own consumers only run in later waves, so a zero count here
	// means the row is needed by nobody (and was not requested).
	if b.refs != nil && atomic.LoadInt32(&b.refs[v]) == 0 && !b.keep[v] {
		b.release(v)
	}
	if b.rowWork != nil {
		b.rowWork[v] = w // single writer per node, like the row itself
	}
	atomic.AddInt64(&b.res.Work, w)
}

// BuildDisjoint computes CPM rows with the disjoint-cut scheme. When
// targets is nil, rows for every live AND node are computed and retained.
// Otherwise only the closure N(targets) is processed and only the targets'
// rows are retained (intermediate rows are reference-counted and freed as
// soon as their last consumer is done).
//
// threads follows the pipeline-wide semantics of package par (≤0: all
// CPUs, 1: serial). Row construction is fanned out over waves of the
// cut-element dependency DAG — a node's row depends only on the rows of
// its non-sink cut elements, read-only simulation values, and the shared
// cut set — and the result is bit-identical for every thread count.
//
// The synthesis engine builds its rows through Cache.RefreshCtx; this
// independent builder is the reference the cache is tested against.
func BuildDisjoint(g *aig.Graph, s *sim.Sim, cuts *cut.Set, targets []int32, threads int) *Result {
	res := &Result{Words: s.Words(), rows: make([]Row, g.NumVars())}

	var procList []int32
	keep := make([]bool, g.NumVars())
	if targets == nil {
		for _, v := range g.Topo() {
			if g.IsAnd(v) {
				procList = append(procList, v)
				keep[v] = true
			}
		}
	} else {
		procList = Closure(cuts, targets)
		for _, v := range targets {
			keep[v] = true
		}
	}

	// Reference counts: how many still-unprocessed nodes need each row.
	refs := make([]int32, g.NumVars())
	for _, v := range procList {
		for _, e := range cuts.Cut(v) {
			if !cut.IsSink(e) {
				refs[e]++
			}
		}
	}

	pos := topoPositions(g)
	sort.Slice(procList, func(i, j int) bool { return pos[procList[i]] > pos[procList[j]] })

	// Wave schedule over the exact dependency DAG: lvl(v) is one more than
	// the deepest non-sink cut element. Cut elements lie strictly in v's
	// transitive fanout, i.e. earlier in the descending-position procList,
	// so one forward sweep suffices.
	lvl := make([]int32, g.NumVars())
	var numLvl int32
	for _, v := range procList {
		var l int32
		for _, e := range cuts.Cut(v) {
			if !cut.IsSink(e) && lvl[e] >= l {
				l = lvl[e] + 1
			}
		}
		lvl[v] = l
		if l+1 > numLvl {
			numLvl = l + 1
		}
	}
	waves := make([][]int32, numLvl)
	for _, v := range procList {
		waves[lvl[v]] = append(waves[lvl[v]], v)
	}

	// Published diff vectors are carved from one per-build arena (released
	// intermediate rows are dropped, not recycled — their slab memory is
	// reclaimed with everything else when the Result is). The Result's rows
	// keep the slabs reachable, so the arena needs no owner beyond b.
	b := &disjointBuilder{g: g, s: s, cuts: cuts, res: res, keep: keep, refs: refs,
		arena: bitvec.NewArena(res.Words)}
	workers := par.ScratchSlots(threads, len(procList))
	rss := make([]*regionSimulator, workers)
	cutSets := make([]map[int32]bool, workers)
	for w := range rss {
		rss[w] = newRegionSimulator(g, s, pos)
		cutSets[w] = make(map[int32]bool)
	}
	for _, wave := range waves {
		par.ForEach(threads, wave, func(w int, v int32) {
			b.processNode(rss[w], cutSets[w], v)
		})
	}
	return res
}

// ReachSets computes, for every variable, the bitset of PO indices
// reachable from it (drivers reach their own POs). Used by the VECBEE
// baseline, which does not build disjoint cuts.
func ReachSets(g *aig.Graph) []bitvec.Vec {
	words := bitvec.Words(g.NumPOs())
	reach := make([]bitvec.Vec, g.NumVars())
	order := g.Topo()
	drivers := map[int32][]int{}
	for o, po := range g.POs() {
		drivers[po.Var()] = append(drivers[po.Var()], o)
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		r := bitvec.NewWords(words)
		for _, o := range drivers[v] {
			r.Set(o, true)
		}
		for _, f := range g.Fanouts(v) {
			if !g.IsDead(f) && reach[f] != nil {
				r.OrWith(reach[f])
			}
		}
		reach[v] = r
	}
	return reach
}

// vecbeeBuilder holds the shared state of one BuildVECBEE pass. With a
// finite depth limit, a node's row composes the rows of its frontier
// nodes, which lie strictly in the node's transitive fanout — so waves of
// one reverse-topological level are independent; with l=∞ rows never
// compose and every node is independent.
type vecbeeBuilder struct {
	g        *aig.Graph
	s        *sim.Sim
	res      *Result
	infinite bool
	l        int
	drivers  map[int32][]int
	ones     bitvec.Vec // shared all-ones diff, read-only
}

func (b *vecbeeBuilder) processNode(rs *regionSimulator, depth map[int32]int, v int32) {
	for k := range depth {
		delete(depth, k)
	}
	frontier := rs.collectDepth(v, b.l, depth)
	rs.propagate(v)
	w := int64(1+len(rs.region)) * int64(b.res.Words)

	row := &b.res.rows[v]
	covered := map[int32]bool{}
	// Exact part: POs whose driver lies inside the simulated region
	// (or is v itself).
	for _, os := range b.drivers[v] {
		row.POs = append(row.POs, int32(os))
		row.Diffs = append(row.Diffs, b.ones)
		covered[int32(os)] = true
	}
	for _, u := range rs.region {
		for _, o := range b.drivers[u] {
			if covered[int32(o)] {
				continue
			}
			d := bitvec.NewWords(b.res.Words)
			rs.diffAt(u, d)
			row.POs = append(row.POs, int32(o))
			row.Diffs = append(row.Diffs, d)
			covered[int32(o)] = true
		}
	}
	// Approximate part: POs beyond the frontier, OR-combined over the
	// frontier nodes' own rows (finite l only; with l=∞ the region is
	// the whole cone and nothing remains).
	if !b.infinite {
		acc := map[int32]bitvec.Vec{}
		scratch := bitvec.NewWords(b.res.Words)
		for _, f := range frontier {
			fdiff := bitvec.NewWords(b.res.Words)
			rs.diffAt(f, fdiff)
			frow := &b.res.rows[f]
			w += int64(1+len(frow.POs)) * int64(b.res.Words)
			for j, o := range frow.POs {
				if covered[o] {
					continue
				}
				scratch.And(frow.Diffs[j], fdiff)
				if a, ok := acc[o]; ok {
					a.OrWith(scratch)
				} else {
					nv := bitvec.NewWords(b.res.Words)
					nv.CopyFrom(scratch)
					acc[o] = nv
				}
			}
		}
		oIdx := make([]int32, 0, len(acc))
		for o := range acc {
			oIdx = append(oIdx, o)
		}
		sort.Slice(oIdx, func(a, b int) bool { return oIdx[a] < oIdx[b] })
		for _, o := range oIdx {
			row.POs = append(row.POs, o)
			row.Diffs = append(row.Diffs, acc[o])
		}
	}
	atomic.AddInt64(&b.res.Work, w)
}

// BuildVECBEE computes CPM rows with the original VECBEE scheme at depth
// limit l: each node's flip is propagated exactly through its transitive
// fanout up to l levels; beyond the frontier the effect is approximated by
// OR-combining the frontier nodes' own rows. l ≤ 0 means ∞ (fully exact,
// one whole-cone resimulation per node). When targets is non-nil only the
// targets' rows are retained, but — unlike the disjoint scheme — every
// node must still be processed when l is finite, because frontier
// composition may need any row.
//
// threads follows the pipeline-wide semantics of package par (≤0: all
// CPUs, 1: serial); the result is bit-identical for every thread count.
func BuildVECBEE(g *aig.Graph, s *sim.Sim, l int, targets []int32, threads int) *Result {
	res, _ := BuildVECBEECtx(context.Background(), g, s, l, targets, threads)
	return res
}

// BuildVECBEECtx is BuildVECBEE with cooperative cancellation: the build
// checks ctx at every wave boundary and stops early once it is cancelled,
// returning the partial result alongside ctx.Err(). A non-nil error means
// the rows are incomplete and must be discarded; an uncancelled build is
// bit-identical to BuildVECBEE.
func BuildVECBEECtx(ctx context.Context, g *aig.Graph, s *sim.Sim, l int, targets []int32, threads int) (*Result, error) {
	res := &Result{Words: s.Words(), rows: make([]Row, g.NumVars())}
	keep := make([]bool, g.NumVars())
	if targets == nil {
		for i := range keep {
			keep[i] = true
		}
	} else {
		for _, v := range targets {
			keep[v] = true
		}
	}

	infinite := l <= 0

	drivers := map[int32][]int{}
	for o, po := range g.POs() {
		drivers[po.Var()] = append(drivers[po.Var()], o)
	}

	ones := bitvec.NewWords(s.Words())
	ones.SetAll()
	ones.Mask(s.Patterns())

	b := &vecbeeBuilder{g: g, s: s, res: res, infinite: infinite, l: l, drivers: drivers, ones: ones}

	// With l=∞ rows never compose, so every node is one independent unit
	// of work (and non-targets can be skipped entirely). With finite l a
	// node composes rows of frontier nodes in its strict transitive
	// fanout, so reverse-topological levels run as waves with barriers.
	var waves [][]int32
	if infinite {
		var flat []int32
		order := g.Topo()
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if g.IsAnd(v) && (targets == nil || keep[v]) {
				flat = append(flat, v)
			}
		}
		waves = [][]int32{flat}
	} else {
		waves = g.ReverseLevels()
	}
	var numNodes int
	for _, wave := range waves {
		numNodes += len(wave)
	}
	pos := topoPositions(g)
	workers := par.ScratchSlots(threads, numNodes)
	rss := make([]*regionSimulator, workers)
	depths := make([]map[int32]int, workers)
	for w := range rss {
		rss[w] = newRegionSimulator(g, s, pos)
		depths[w] = make(map[int32]int)
	}
	for _, wave := range waves {
		if err := par.ForEachCtx(ctx, threads, wave, func(w int, v int32) {
			b.processNode(rss[w], depths[w], v)
		}); err != nil {
			return res, err
		}
	}
	return res, nil
}
