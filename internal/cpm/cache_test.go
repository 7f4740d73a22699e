package cpm

import (
	"math/rand"
	"runtime"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/cut"
	"dpals/internal/gen"
	"dpals/internal/sim"
)

// compareRow fails unless the cached row of v is bit-identical — same PO
// order, same diff vectors — to the reference row.
func compareRow(t *testing.T, label string, v int32, got, want *Row) {
	t.Helper()
	if len(got.POs) != len(want.POs) {
		t.Fatalf("%s: node %d: %d POs, want %d", label, v, len(got.POs), len(want.POs))
	}
	for i := range want.POs {
		if got.POs[i] != want.POs[i] {
			t.Fatalf("%s: node %d: PO[%d] = %d, want %d", label, v, i, got.POs[i], want.POs[i])
		}
		if !got.Diffs[i].Equal(want.Diffs[i]) {
			t.Fatalf("%s: node %d PO %d: diff vector mismatch", label, v, want.POs[i])
		}
	}
}

// randomLAC picks a random legal replacement on g: constant 0/1, a PI, or a
// non-TFO node substitution (the SASIMI shape). Targets with multi-node
// MFFCs occur naturally, exercising MFFC removal.
func randomLAC(rng *rand.Rand, g *aig.Graph) (int32, aig.Lit, bool) {
	var cand []int32
	for v := int32(1); v <= g.MaxVar(); v++ {
		if g.IsAnd(v) {
			cand = append(cand, v)
		}
	}
	if len(cand) == 0 {
		return 0, aig.False, false
	}
	v := cand[rng.Intn(len(cand))]
	var repl aig.Lit
	switch rng.Intn(4) {
	case 0:
		repl = aig.False
	case 1:
		repl = aig.True
	case 2:
		repl = aig.MakeLit(g.PIs()[rng.Intn(g.NumPIs())], rng.Intn(2) == 1)
	default:
		var ok []int32
		for _, w := range cand {
			if w != v && !g.InTFO(v, w) {
				ok = append(ok, w)
			}
		}
		if len(ok) == 0 {
			repl = aig.True
		} else {
			repl = aig.MakeLit(ok[rng.Intn(len(ok))], rng.Intn(2) == 1)
		}
	}
	return v, repl, true
}

// stepAcct is the per-step accounting a cache run produces; it must be
// identical for every thread count.
type stepAcct struct {
	needed, reused, recomputed int
	work                       int64
}

// runCacheSequence replays a seeded random LAC sequence against the cache
// and cross-checks every analysis bit-for-bit against from-scratch
// BuildDisjoint over the same cut set. It returns the per-step accounting.
func runCacheSequence(t *testing.T, seed int64, threads int) []stepAcct {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomGraph(rng, 7, 90, 6)
	s := sim.New(g, sim.Options{Patterns: 256, Seed: seed, Threads: threads})
	cuts := cut.NewSet(g, threads)
	cache := NewCache(g, s)
	// The NoReuse twin recomputes every requested row but must report the
	// cached path's work split; the blind twin is never invalidated, so its
	// rows are correct only because NoReuse ignores validity.
	twin, blind := NewCache(g, s), NewCache(g, s)
	twin.NoReuse, blind.NoReuse = true, true

	var acct []stepAcct

	// Phase-1 equivalent: full build, compared against BuildDisjoint(nil).
	upd := cache.Rebuild(cuts, threads)
	twin.Rebuild(cuts, threads)
	blind.Rebuild(cuts, threads)
	ref := BuildDisjoint(g, s, cuts, nil, threads)
	if upd.Work != ref.Work {
		t.Fatalf("threads=%d: Rebuild work %d, fresh build work %d", threads, upd.Work, ref.Work)
	}
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			compareRow(t, "rebuild", v, upd.Res.Row(v), ref.Row(v))
		}
	}
	acct = append(acct, stepAcct{upd.Needed, upd.Reused, upd.Recomputed, upd.Work})

	// Phase-2 equivalent: LAC, invalidate, partial analyses.
	for step := 0; step < 12; step++ {
		v, repl, ok := randomLAC(rng, g)
		if !ok {
			break
		}
		cs := g.ReplaceWithLit(v, repl)
		changed := s.ResimulateFrom(cs.Rewired)
		sv := cuts.UpdateAfter(cs)
		cache.Invalidate(cs, changed, sv)
		twin.Invalidate(cs, changed, sv)

		// Random target set over the live nodes (like S_cand).
		var live []int32
		for _, u := range g.Topo() {
			if g.IsAnd(u) {
				live = append(live, u)
			}
		}
		if len(live) == 0 {
			break
		}
		var targets []int32
		for _, u := range live {
			if rng.Intn(3) != 0 {
				targets = append(targets, u)
			}
		}
		if len(targets) == 0 {
			targets = live[:1]
		}

		u := cache.Refresh(cuts, targets, threads)
		tu := twin.Refresh(cuts, targets, threads)
		bu := blind.Refresh(cuts, targets, threads)
		if tu.Work != u.Work || tu.ReusedWork != u.ReusedWork || tu.Reused != 0 || tu.Recomputed != u.Needed {
			t.Fatalf("threads=%d step %d: NoReuse update %+v, cached %+v", threads, step, tu, u)
		}
		refPart := BuildDisjoint(g, s, cuts, targets, threads)
		for _, w := range targets {
			compareRow(t, "rows", w, u.Res.Row(w), refPart.Row(w))
			compareRow(t, "no-reuse", w, tu.Res.Row(w), refPart.Row(w))
			compareRow(t, "no-reuse blind", w, bu.Res.Row(w), refPart.Row(w))
		}
		// The whole ensured closure must equal a full fresh build too (the
		// partial reference frees its intermediates, so compare against a
		// full one).
		refFull := BuildDisjoint(g, s, cuts, nil, threads)
		for _, w := range Closure(cuts, targets) {
			compareRow(t, "closure", w, u.Res.Row(w), refFull.Row(w))
		}
		acct = append(acct, stepAcct{u.Needed, u.Reused, u.Recomputed, u.Work})
	}
	return acct
}

// TestCacheMatchesFreshBuild is the differential test of the incremental
// CPM cache: across randomized LAC sequences (constants, PI and SASIMI
// substitutions, MFFC removals) every cache-served analysis must be
// bit-identical to a from-scratch BuildDisjoint on the same cut set, for
// every thread count — and the reuse/recompute accounting must be
// thread-independent.
func TestCacheMatchesFreshBuild(t *testing.T) {
	threadCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 4; trial++ {
		seed := int64(41 + 13*trial)
		var first []stepAcct
		totalReused := 0
		for _, threads := range threadCounts {
			acct := runCacheSequence(t, seed, threads)
			if first == nil {
				first = acct
				for _, a := range acct {
					totalReused += a.reused
				}
				continue
			}
			if len(acct) != len(first) {
				t.Fatalf("trial %d threads=%d: %d steps, want %d", trial, threads, len(acct), len(first))
			}
			for i := range acct {
				if acct[i] != first[i] {
					t.Fatalf("trial %d threads=%d step %d: accounting %+v, want %+v (thread-dependent cache behaviour)",
						trial, threads, i, acct[i], first[i])
				}
			}
		}
		if totalReused == 0 {
			t.Fatalf("trial %d: the cache never reused a row across the whole sequence", trial)
		}
	}
}

// TestCacheOnGeneratedCircuit runs the differential check on a structured
// arithmetic circuit from internal/gen (a multiplier), where MFFC removals
// and deep reconvergence are common.
func TestCacheOnGeneratedCircuit(t *testing.T) {
	g := gen.MultU(4, 4).Sweep()
	rng := rand.New(rand.NewSource(7))
	s := sim.New(g, sim.Options{Patterns: 256, Seed: 7})
	cuts := cut.NewSet(g, 0)
	cache := NewCache(g, s)
	cache.Rebuild(cuts, 0)
	reused := 0
	for step := 0; step < 8; step++ {
		v, repl, ok := randomLAC(rng, g)
		if !ok {
			break
		}
		cs := g.ReplaceWithLit(v, repl)
		changed := s.ResimulateFrom(cs.Rewired)
		sv := cuts.UpdateAfter(cs)
		cache.Invalidate(cs, changed, sv)
		var targets []int32
		for _, u := range g.Topo() {
			if g.IsAnd(u) {
				targets = append(targets, u)
			}
		}
		if len(targets) == 0 {
			break
		}
		u := cache.Refresh(cuts, targets, 0)
		reused += u.Reused
		ref := BuildDisjoint(g, s, cuts, nil, 0)
		for _, w := range targets {
			compareRow(t, "mult", w, u.Res.Row(w), ref.Row(w))
		}
	}
	if reused == 0 {
		t.Fatal("no rows reused on the generated circuit")
	}
}

// TestCachePoolRecycles checks the allocation story: after the first full
// build, invalidation/recompute cycles must predominantly serve diff
// vectors from the free-list pool instead of allocating.
func TestCachePoolRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 7, 120, 6)
	s := sim.New(g, sim.Options{Patterns: 256, Seed: 3})
	cuts := cut.NewSet(g, 1)
	cache := NewCache(g, s)
	cache.Rebuild(cuts, 1)
	ps0 := cache.Pool().Stats()
	for step := 0; step < 6; step++ {
		v, repl, ok := randomLAC(rng, g)
		if !ok {
			break
		}
		cs := g.ReplaceWithLit(v, repl)
		changed := s.ResimulateFrom(cs.Rewired)
		sv := cuts.UpdateAfter(cs)
		cache.Invalidate(cs, changed, sv)
		var targets []int32
		for _, u := range g.Topo() {
			if g.IsAnd(u) {
				targets = append(targets, u)
			}
		}
		cache.Refresh(cuts, targets, 1)
	}
	ps1 := cache.Pool().Stats()
	if ps1.Gets == ps0.Gets {
		t.Skip("no rows recomputed after rebuild (degenerate sequence)")
	}
	if ps1.Reuses == 0 {
		t.Fatalf("pool never reused a vector (%d gets after rebuild)", ps1.Gets-ps0.Gets)
	}
	if ps1.Gets != ps1.Reuses+ps1.Misses {
		t.Errorf("pool stats inconsistent: gets %d != reuses %d + misses %d", ps1.Gets, ps1.Reuses, ps1.Misses)
	}
	if ps1.Puts == 0 || ps1.HighWater == 0 {
		t.Errorf("pool stats missing recycle accounting: %+v", ps1)
	}
}
