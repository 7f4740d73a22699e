package cpm

import (
	"context"
	"sort"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cut"
	"dpals/internal/par"
	"dpals/internal/sim"
)

// Update summarises one Cache operation: the shared Result the rows live
// in, how many rows the requested closure needed, how many of those were
// served from the cache versus recomputed, and the deterministic work
// estimate of the recomputation (the counterpart of Result.Work for a
// from-scratch build). Reused + Recomputed == Needed. ReusedWork is the
// recompute work the reused rows would have cost: row validity implies
// unchanged construction inputs, so the cost recorded at the row's last
// recompute is exactly what recomputing it now would charge — Work +
// ReusedWork therefore reproduces the deterministic work estimate of a
// from-scratch build of the same closure.
type Update struct {
	Res        *Result
	Needed     int
	Reused     int
	Recomputed int
	Work       int64
	ReusedWork int64
}

// Cache is a persistent incremental CPM: it retains the rows of the last
// comprehensive (phase-1) analysis across the phase-2 iterations of the
// dual-phase framework and recomputes only the rows an applied LAC
// invalidated, instead of rebuilding the closure of S_cand from scratch on
// every iteration (§III-C).
//
// Every disjoint-cut analysis of a run goes through one call,
// RefreshCtx(ctx, cuts, targets, threads); the lifecycle mirrors the
// dual-phase loop:
//
//	cache := NewCache(g, s)                           // one per graph/simulator
//	for each round {
//	    cache.RefreshCtx(ctx, cuts, live, threads)    // phase 1: a new cut set
//	                                                  // rebuilds, a repaired one
//	                                                  // recomputes stale rows
//	    for each phase-2 iteration {
//	        upd, _ := cache.RefreshCtx(ctx, cuts, scand, threads)
//	        … evaluate LACs on upd.Res, apply one …
//	        cache.Invalidate(cs, changed, sv)         // after every apply
//	    }
//	}
//
// Flows without incremental cut repair (the conventional and AccALS
// baselines) build a new cut set per analysis, so each of their passes is
// a full rebuild that recycles the previous pass's vectors.
//
// Invalidation rule (change signals → dependency closure → recompute set):
// an applied LAC announces itself through three signals the engine already
// produces — the structural aig.ChangeSet of ReplaceWithLit, the
// changed-value variables returned by sim.ResimulateFrom, and the cut set
// S_v recomputed by cut.Set.UpdateAfter. A cached row of node n is stale
// iff one of the inputs of its construction changed: a simulation value
// inside its flip region or on the region's side inputs, its disjoint cut,
// the region's fanout structure, or the row of one of its cut elements.
// Every one of those inputs lives in the transitive fanout of n (cut
// elements, region members, PO-cone drivers) or is a fanin of a region
// member, so the stale set is covered by the transitive-fanin closure of
//
//	roots = Removed ∪ FanoutChanged ∪ Rewired ∪ S_v
//	      ∪ changed ∪ fanouts(changed)
//
// walked through dead nodes as well (a removed MFFC preserves its fanin
// literals, and pre-change regions reached the removed nodes). Because the
// closure is transitive, it is automatically closed under the reverse of
// the disjoint-cut dependency used by Closure: if a cut element's row is
// stale, every consumer lies in the element's fanin closure too.
//
// All diff vectors are backed by a free-list pool: vectors of invalidated
// rows are recycled, not reallocated, so steady-state phase-2 iterations
// allocate near zero. Results are bit-identical to a from-scratch
// BuildDisjoint over the same cut set for every thread count.
//
// A Cache is not safe for concurrent use; its methods must be called from
// one goroutine (the internal wave fan-out is race-clean).
type Cache struct {
	// NoReuse makes RefreshCtx recompute every row of the closure, the
	// valid ones included, while Update.Work and Update.ReusedWork keep
	// the cached path's split (valid rows charge their recorded work as
	// reused). Update.Reused is then 0. A caller charging work from the
	// Update follows exactly the trajectory of a cached run, so any row
	// Invalidate failed to mark stale shows up as a divergence: this is
	// the differential reference for the invalidation rule.
	NoReuse bool

	g    *aig.Graph
	s    *sim.Sim
	cuts *cut.Set
	res  *Result
	pool *bitvec.Pool

	valid   []bool  // per var: row is up to date
	pos     []int32 // topo position per var, refreshed per build
	rowWork []int64 // per var: work of the row's last recompute (Update.ReusedWork)

	rss     []*regionSimulator // persistent per-worker scratch
	cutSets []map[int32]bool

	// epoch-stamped scratch (avoids per-call maps and clears)
	mark      []uint32
	epoch     uint32
	queue     []int32 // Invalidate BFS / RefreshCtx closure scratch
	recompute []int32 // RefreshCtx recompute-set scratch
	again     []int32 // RefreshCtx scratch: valid rows recomputed under NoReuse
	lvl       []int32 // wave levels, meaningful only under inSet
	inSet     []bool  // recompute-set membership during runWaves
}

// NewCache returns an empty cache for g simulated by s.
func NewCache(g *aig.Graph, s *sim.Sim) *Cache {
	n := g.NumVars()
	return &Cache{
		g:   g,
		s:   s,
		res: &Result{Words: s.Words(), rows: make([]Row, n)},
		// Pool misses carve rows from a slab arena instead of allocating
		// individually; the arena lives (and is never Reset) as long as the
		// cache, so recycled and carved rows are interchangeable.
		pool:    bitvec.NewArenaPool(s.Words(), bitvec.NewArena(s.Words())),
		valid:   make([]bool, n),
		pos:     make([]int32, n),
		rowWork: make([]int64, n),
		mark:    make([]uint32, n),
		lvl:     make([]int32, n),
		inSet:   make([]bool, n),
	}
}

// Result returns the shared result the cached rows live in. Rows are only
// guaranteed valid for closures ensured by the last RefreshCtx call.
func (c *Cache) Result() *Result { return c.res }

// Pool exposes the diff-vector pool (for allocation-reuse introspection).
func (c *Cache) Pool() *bitvec.Pool { return c.pool }

// releaseRow recycles the diff vectors of v's row into the pool and leaves
// an empty row with retained slice capacity.
func (c *Cache) releaseRow(v int32) {
	row := &c.res.rows[v]
	for i, d := range row.Diffs {
		c.pool.Put(d)
		row.Diffs[i] = nil
	}
	row.POs = row.POs[:0]
	row.Diffs = row.Diffs[:0]
	c.valid[v] = false
}

func (c *Cache) nextEpoch() uint32 {
	c.epoch++
	if c.epoch == 0 {
		for i := range c.mark {
			c.mark[i] = 0
		}
		c.epoch = 1
	}
	return c.epoch
}

func (c *Cache) refreshPos() {
	for i, v := range c.g.Topo() {
		c.pos[v] = int32(i)
	}
}

// simulators returns (growing if needed) the first `workers` persistent
// region simulators. They share c.pos, whose contents refreshPos updates in
// place, so they stay consistent after structural edits.
func (c *Cache) simulators(workers int) ([]*regionSimulator, []map[int32]bool) {
	for len(c.rss) < workers {
		c.rss = append(c.rss, newRegionSimulator(c.g, c.s, c.pos))
		c.cutSets = append(c.cutSets, make(map[int32]bool))
	}
	return c.rss[:workers], c.cutSets[:workers]
}

// Rebuild performs a full build: every live AND row is recomputed against
// cuts and retained, whatever the cache held before. It is RefreshCtx over
// all live ANDs after forgetting the previous cut set, so previously
// cached vectors are recycled through the pool and the rows are
// bit-identical to BuildDisjoint(g, s, cuts, nil, threads).
func (c *Cache) Rebuild(cuts *cut.Set, threads int) Update {
	var ands []int32
	for _, v := range c.g.Topo() {
		if c.g.IsAnd(v) {
			ands = append(ands, v)
		}
	}
	c.cuts = nil
	upd, _ := c.RefreshCtx(context.Background(), cuts, ands, threads)
	return upd
}

// Invalidate marks every row the applied LAC may have changed as stale and
// recycles its vectors. cs is the ChangeSet of the replacement, changed the
// variables sim.ResimulateFrom reported as value-changed (the slice is only
// read during the call, so the simulator-owned scratch may be passed
// directly), and cutsRecomputed the node set cut.Set.UpdateAfter repaired
// (S_v). Must be called after the simulator and the cut set have been
// brought up to date.
func (c *Cache) Invalidate(cs aig.ChangeSet, changed, cutsRecomputed []int32) {
	ep := c.nextEpoch()
	q := c.queue[:0]
	push := func(v int32) {
		if c.mark[v] != ep {
			c.mark[v] = ep
			q = append(q, v)
		}
	}
	for _, v := range cs.Removed {
		push(v)
	}
	for _, v := range cs.FanoutChanged {
		push(v)
	}
	for _, v := range cs.Rewired {
		push(v)
	}
	for _, v := range cutsRecomputed {
		push(v)
	}
	for _, v := range changed {
		// A changed value invalidates regions containing v AND regions
		// where v is only a side input — the latter lie in the fanin
		// closure of v's fanouts.
		push(v)
		for _, f := range c.g.Fanouts(v) {
			push(f)
		}
	}
	// Transitive-fanin closure, walked through dead nodes too: a removed
	// node keeps its fanin literals, and the pre-change region of a stale
	// row may have passed through it.
	for i := 0; i < len(q); i++ {
		v := q[i]
		if c.g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := c.g.Fanins(v)
		push(f0.Var())
		push(f1.Var())
	}
	for _, v := range q {
		c.releaseRow(v)
	}
	c.queue = q[:0]
}

// Refresh is RefreshCtx without cancellation.
func (c *Cache) Refresh(cuts *cut.Set, targets []int32, threads int) Update {
	upd, _ := c.RefreshCtx(context.Background(), cuts, targets, threads)
	return upd
}

// RefreshCtx ensures valid rows for the disjoint-cut closure of targets
// (§III-C N(S_cand)) and returns the shared Result plus reuse accounting.
// It is the cache's one build entry point: a phase-1 pass asks for every
// live AND, a phase-2 iteration for S_cand. Only the stale rows of the
// closure are recomputed; everything else is served from the cache. Row
// contents are bit-identical to a from-scratch
// BuildDisjoint(g, s, cuts, targets, threads) for every thread count, and
// Update.Work + Update.ReusedWork reproduces that build's deterministic
// work estimate.
//
// Row validity is only meaningful relative to the cut set the rows were
// built against, so handed a different set than the last call (a rebuilt
// one, or the first set ever) the cache releases every row and adopts the
// new set first; over all live ANDs that is a full rebuild.
//
// Cancellation is checked at every wave boundary. On a non-nil error the
// rows recomputed by this call are released again and the Update must be
// discarded, while previously valid rows stay valid (except under
// NoReuse, which recomputes those too).
func (c *Cache) RefreshCtx(ctx context.Context, cuts *cut.Set, targets []int32, threads int) (Update, error) {
	if cuts != c.cuts {
		c.cuts = cuts
		for v := range c.res.rows {
			c.releaseRow(int32(v))
		}
	}
	c.refreshPos()
	workBefore := c.res.Work

	// Closure of targets under disjoint-cut membership (sinks excluded) —
	// Closure with epoch-stamped scratch instead of per-call maps.
	ep := c.nextEpoch()
	need := c.queue[:0]
	for _, v := range targets {
		if c.mark[v] != ep {
			c.mark[v] = ep
			need = append(need, v)
		}
	}
	for i := 0; i < len(need); i++ {
		for _, e := range c.cuts.Cut(need[i]) {
			if !cut.IsSink(e) && c.mark[e] != ep {
				c.mark[e] = ep
				need = append(need, e)
			}
		}
	}
	proc := c.recompute[:0]
	again := c.again[:0]
	var reusedWork int64
	for _, v := range need {
		if !c.valid[v] {
			proc = append(proc, v)
			continue
		}
		reusedWork += c.rowWork[v]
		if c.NoReuse {
			c.releaseRow(v)
			again = append(again, v)
		}
	}
	proc = append(proc, again...)
	err := c.runWaves(ctx, proc, threads)
	upd := Update{
		Res:        c.res,
		Needed:     len(need),
		Reused:     len(need) - len(proc),
		Recomputed: len(proc),
		Work:       c.res.Work - workBefore,
		ReusedWork: reusedWork,
	}
	// Under NoReuse the valid rows were recomputed too, but Work charges
	// only the stale ones, exactly like the cached path.
	for _, v := range again {
		upd.Work -= c.rowWork[v]
	}
	c.queue = need[:0]
	c.recompute = proc[:0]
	c.again = again[:0]
	return upd, err
}

// runWaves recomputes the given stale rows over the wave scheduler of
// package par and marks them valid. Rows outside the set are read-only
// dependencies; within the set, a node is scheduled strictly after its
// non-sink cut elements, exactly like BuildDisjoint.
//
// On cancellation it stops at the next wave boundary and releases every
// row of the set again — a cancelled wave leaves some rows complete and
// some untouched, and releasing them all restores the invariant that a
// non-valid row is empty (so a later recompute appends onto a clean row).
func (c *Cache) runWaves(ctx context.Context, proc []int32, threads int) error {
	if len(proc) == 0 {
		return nil
	}
	sort.Slice(proc, func(i, j int) bool { return c.pos[proc[i]] > c.pos[proc[j]] })
	for _, v := range proc {
		c.inSet[v] = true
	}
	// Wave levels over the in-set dependency DAG: cut elements lie in the
	// transitive fanout, i.e. earlier in the descending-position order, so
	// one forward sweep suffices. Valid (out-of-set) elements are done
	// dependencies and contribute no level.
	var numLvl int32
	for _, v := range proc {
		var l int32
		for _, e := range c.cuts.Cut(v) {
			if !cut.IsSink(e) && c.inSet[e] && c.lvl[e] >= l {
				l = c.lvl[e] + 1
			}
		}
		c.lvl[v] = l
		if l+1 > numLvl {
			numLvl = l + 1
		}
	}
	waves := make([][]int32, numLvl)
	for _, v := range proc {
		waves[c.lvl[v]] = append(waves[c.lvl[v]], v)
	}
	b := &disjointBuilder{g: c.g, s: c.s, cuts: c.cuts, res: c.res, pool: c.pool, rowWork: c.rowWork}
	workers := par.ScratchSlots(threads, len(proc))
	rss, cutSets := c.simulators(workers)
	var err error
	for _, wave := range waves {
		if err = par.ForEachCtx(ctx, threads, wave, func(w int, v int32) {
			b.processNode(rss[w], cutSets[w], v)
		}); err != nil {
			break
		}
	}
	for _, v := range proc {
		c.inSet[v] = false
		if err != nil {
			c.releaseRow(v)
			continue
		}
		c.valid[v] = true
	}
	return err
}
