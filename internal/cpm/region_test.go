package cpm

import (
	"math/rand"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/cut"
	"dpals/internal/gen"
	"dpals/internal/sim"
)

// propagateChecked collects and simulates the region of v on rs, then
// checks that propagate visited it in ascending topological position of
// the live graph and kept every collected node.
func propagateChecked(t *testing.T, g *aig.Graph, rs *regionSimulator, cuts *cut.Set, v int32) {
	t.Helper()
	boundary := map[int32]bool{}
	for _, e := range cuts.Cut(v) {
		if !cut.IsSink(e) {
			boundary[e] = true
		}
	}
	rs.collectBounded(v, boundary)
	n := len(rs.region)
	rs.propagate(v)
	if len(rs.region) != n {
		t.Fatalf("node %d: region of %d nodes came back with %d", v, n, len(rs.region))
	}
	topo := g.Topo()
	prev := int32(-1)
	for _, u := range rs.region {
		p := rs.pos[u]
		if rs.inRegion[u] != rs.epoch || topo[p] != u {
			t.Fatalf("node %d: region member %d is not a collected live node", v, u)
		}
		if p <= prev {
			t.Fatalf("node %d: region visited out of topological order (position %d after %d)", v, p, prev)
		}
		prev = p
	}
}

// TestRegionOrderAfterEdits drives a cache through LAC sequences, with a
// sweep onto a fresh graph in between, and checks after every refresh that
// the persistent region simulators still order each region by the live
// topological order — a copy of the topo inverse taken at construction
// would go stale here — and that the cached rows equal a fresh
// BuildDisjoint row for row.
func TestRegionOrderAfterEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randomGraph(rng, 8, 120, 7)
	for phase := 0; phase < 2; phase++ {
		s := sim.New(g, sim.Options{Patterns: 200, Seed: 61})
		cuts := cut.NewSet(g, 2)
		cache := NewCache(g, s)
		cache.Rebuild(cuts, 2)
		for step := 0; step < 8; step++ {
			v, repl, ok := randomLAC(rng, g)
			if !ok {
				break
			}
			cs := g.ReplaceWithLit(v, repl)
			changed := s.ResimulateFrom(cs.Rewired)
			cache.Invalidate(cs, changed, cuts.UpdateAfter(cs))
			var live []int32
			for _, u := range g.Topo() {
				if g.IsAnd(u) {
					live = append(live, u)
				}
			}
			upd := cache.Refresh(cuts, live, 2)
			fresh := BuildDisjoint(g, s, cuts, nil, 1)
			for _, u := range live {
				compareRow(t, "refresh", u, upd.Res.Row(u), fresh.Row(u))
				for _, rs := range cache.rss {
					propagateChecked(t, g, rs, cuts, u)
				}
			}
		}
		g = g.Sweep()
	}
}

// warmRegionPass returns a pass that collects and flip-simulates the
// bounded region of every AND node of a generated circuit on one of a
// rebuilt cache's persistent simulators, run once already, and the number
// of regions per pass.
func warmRegionPass() (pass func(), regions int) {
	g := gen.VecMul(2, 4)
	s := sim.New(g, sim.Options{Patterns: 1024, Seed: 1})
	cuts := cut.NewSet(g, 1)
	cache := NewCache(g, s)
	cache.Rebuild(cuts, 1)
	rs := cache.rss[0]
	boundary := map[int32]bool{}
	var nodes []int32
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			nodes = append(nodes, v)
		}
	}
	pass = func() {
		for _, v := range nodes {
			clear(boundary)
			for _, e := range cuts.Cut(v) {
				if !cut.IsSink(e) {
					boundary[e] = true
				}
			}
			rs.collectBounded(v, boundary)
			rs.propagate(v)
		}
	}
	pass()
	return pass, len(nodes)
}

// A warmed region simulator collects and propagates without allocating.
func TestPropagateAllocFree(t *testing.T) {
	pass, regions := warmRegionPass()
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Fatalf("%v allocations per pass over %d regions, want 0", n, regions)
	}
}

// BenchmarkPropagate times the region simulation of a warmed cache; one op
// is one pass over every AND node's region.
func BenchmarkPropagate(b *testing.B) {
	pass, _ := warmRegionPass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
