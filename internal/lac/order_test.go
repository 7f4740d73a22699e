package lac

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dpals/internal/aig"
	circuits "dpals/internal/gen"
	"dpals/internal/sim"
)

// refTopK is the reference SASIMI selection: a stable sort by (dist, node),
// then node dedup, then the first k.
func refTopK(cands []scoredCand, k int) []scoredCand {
	c := append([]scoredCand(nil), cands...)
	sort.SliceStable(c, func(a, b int) bool {
		if c[a].dist != c[b].dist {
			return c[a].dist < c[b].dist
		}
		return c[a].node < c[b].node
	})
	var out []scoredCand
	for _, x := range c {
		if len(out) == k {
			break
		}
		if len(out) > 0 && out[len(out)-1].node == x.node {
			continue
		}
		out = append(out, x)
	}
	return out
}

// offerAll runs cands through the generator's bounded top-k buffer.
func offerAll(gen *Generator, cands []scoredCand) []scoredCand {
	gen.top = gen.top[:0]
	for _, c := range cands {
		gen.offer(c)
	}
	return gen.top
}

func equalCands(a, b []scoredCand) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The bounded top-k buffer keeps exactly the k best distinct nodes in
// (dist, node) order, whatever order they are offered in. Distances come
// from a range of four, so ties are everywhere, and nodes repeat as they
// do when the two SASIMI windows overlap.
func TestOfferMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, k := range []int{1, 2, 3, 8} {
		gen := &Generator{opt: Options{MaxPerNode: k}}
		for trial := 0; trial < 300; trial++ {
			nodes := 1 + rng.Intn(20)
			dist := make([]int, nodes)
			compl := make([]bool, nodes)
			for u := range dist {
				dist[u], compl[u] = rng.Intn(4), rng.Intn(2) == 0
			}
			cands := make([]scoredCand, rng.Intn(40))
			for i := range cands {
				u := rng.Intn(nodes)
				cands[i] = scoredCand{int32(u), compl[u], dist[u]}
			}
			want := refTopK(cands, k)
			if got := offerAll(gen, cands); !equalCands(got, want) {
				t.Fatalf("k=%d trial %d: top-k %v, reference %v", k, trial, got, want)
			}
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			if got := offerAll(gen, cands); !equalCands(got, want) {
				t.Fatalf("k=%d trial %d: shuffled top-k %v, reference %v", k, trial, got, want)
			}
		}
	}
}

// refSASIMI is the reference candidate list of target v: every signal the
// two popcount windows cover, scored, visited in a random order, and then
// selected by refTopK. Equality with CandidatesFor pins that the choice
// depends only on the set the windows cover, not on the scan order.
func refSASIMI(rng *rand.Rand, gen *Generator, v int32) []LAC {
	g, s := gen.g, gen.s
	sw := gen.sampleWords()
	sampleBits := min(sw*64, s.Patterns())
	r := int(gen.rank[v])
	var idx []int
	for off := 1; off <= gen.opt.WindowSize; off++ {
		idx = append(idx, r-off, r+off)
	}
	cpop := sampleBits - samplePop(s.Val(v), sw)
	ci := sort.Search(len(gen.signals), func(i int) bool { return samplePop(s.Val(gen.signals[i]), sw) >= cpop })
	for off := 0; off <= gen.opt.WindowSize; off++ {
		idx = append(idx, ci-off-1, ci+off)
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	var cands []scoredCand
	for _, i := range idx {
		if i < 0 || i >= len(gen.signals) {
			continue
		}
		u := gen.signals[i]
		if g.InTFO(v, u) || g.IsDead(u) {
			continue
		}
		d := 0
		for w := 0; w < sw; w++ {
			d += popcount(s.Val(v)[w] ^ s.Val(u)[w])
		}
		if d <= sampleBits-d {
			cands = append(cands, scoredCand{u, false, d})
		} else {
			cands = append(cands, scoredCand{u, true, sampleBits - d})
		}
	}
	var out []LAC
	gain := g.MFFCSize(v)
	for _, c := range refTopK(cands, gen.opt.MaxPerNode) {
		out = append(out, LAC{Target: v, NewLit: aig.MakeLit(c.node, c.compl), Gain: gain})
	}
	return out
}

// SASIMI candidates equal the scan-order-free reference on random graphs,
// for small and default MaxPerNode and a narrow window (heavy overlap of
// the two windows on few signals) as well as the default one.
func TestSASIMIIndependentOfScanOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 6, 80, 5)
		s := sim.New(g, sim.Options{Patterns: []int{64, 100, 512}[trial%3], Seed: int64(trial)})
		opt := Options{SASIMI: true, MaxPerNode: []int{1, 2, 3, 8}[trial%4], WindowSize: []int{4, 32}[trial%2]}
		gen := NewGenerator(g, s, opt)
		for _, v := range g.Topo() {
			if !g.IsAnd(v) {
				continue
			}
			got, want := gen.CandidatesFor(v), refSASIMI(rng, gen, v)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d node %d: candidates %v, reference %v", trial, v, got, want)
			}
		}
	}
}

// checkIndex compares the similarity index with a stable sort by sampled
// popcount of the PIs-then-Topo() signal list, and checks that rank is its
// exact inverse and first the bucket starts.
func checkIndex(t *testing.T, label string, gen *Generator) {
	t.Helper()
	g := gen.g
	sw := gen.sampleWords()
	var want []int32
	want = append(want, g.PIs()...)
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			want = append(want, v)
		}
	}
	pop := func(v int32) int { return samplePop(gen.s.Val(v), sw) }
	sort.SliceStable(want, func(a, b int) bool { return pop(want[a]) < pop(want[b]) })
	if fmt.Sprint(gen.signals) != fmt.Sprint(want) {
		t.Fatalf("%s: signals %v, reference %v", label, gen.signals, want)
	}
	indexed := 0
	for u, r := range gen.rank {
		if r >= 0 {
			indexed++
			if gen.signals[r] != int32(u) {
				t.Fatalf("%s: rank[%d] = %d, but signals[%d] = %d", label, u, r, r, gen.signals[r])
			}
		}
	}
	if indexed != len(want) || len(gen.rank) < g.NumVars() {
		t.Fatalf("%s: %d vars ranked over %d entries, want %d of %d", label, indexed, len(gen.rank), len(want), g.NumVars())
	}
	for p := range gen.first {
		n := sort.Search(len(want), func(i int) bool { return pop(want[i]) >= p })
		if int(gen.first[p]) != n {
			t.Fatalf("%s: first[%d] = %d, want %d", label, p, gen.first[p], n)
		}
	}
}

// Reindex equals the stable reference sort, with rank its exact inverse,
// on fresh graphs, after applied substitutions (dead nodes leave the index)
// and on a swept graph.
func TestReindexCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 6, 70, 5)
		s := sim.New(g, sim.Options{Patterns: []int{100, 1024}[trial%2], Seed: int64(trial)})
		gen := NewGenerator(g, s, Options{SASIMI: true, SampleWords: []int{1, 8}[trial%2]})
		checkIndex(t, fmt.Sprintf("trial %d fresh", trial), gen)
		for step := 0; step < 6; step++ {
			var l LAC
			for _, v := range g.Topo() {
				if c := gen.CandidatesFor(v); len(c) > 0 {
					l = c[rng.Intn(len(c))]
				}
			}
			if l.Target == 0 {
				break
			}
			cs := g.ReplaceWithLit(l.Target, l.NewLit)
			s.ResimulateFrom(cs.Rewired)
			gen.Reindex()
			checkIndex(t, fmt.Sprintf("trial %d step %d", trial, step), gen)
		}
		sg := g.Sweep()
		gen = NewGenerator(sg, sim.New(sg, sim.Options{Patterns: s.Patterns(), Seed: int64(trial)}), gen.opt)
		checkIndex(t, fmt.Sprintf("trial %d swept", trial), gen)
	}
}

// candidateBed is c3540's stand-in at 1024 patterns with a SASIMI-only
// generator, and its AND nodes as targets.
func candidateBed() (*Generator, []int32) {
	g := circuits.ALUX(8)
	s := sim.New(g, sim.Options{Patterns: 1024, Seed: 1})
	gen := NewGenerator(g, s, Options{SASIMI: true})
	var targets []int32
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			targets = append(targets, v)
		}
	}
	return gen, targets
}

// A warmed Reindex and steady-state candidate generation allocate nothing.
func TestSASIMIGenerationAllocFree(t *testing.T) {
	gen, targets := candidateBed()
	if n := testing.AllocsPerRun(10, gen.Reindex); n != 0 {
		t.Errorf("Reindex: %v allocations per run, want 0", n)
	}
	var buf []LAC
	pass := func() {
		buf = buf[:0]
		for _, v := range targets {
			buf = gen.appendCandidates(buf, v)
		}
	}
	pass()
	if len(buf) == 0 {
		t.Fatal("no SASIMI candidates")
	}
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("appendCandidates: %v allocations per pass, want 0", n)
	}
}

// BenchmarkCandidates times SASIMI candidate generation for every target of
// c3540 at 1024 patterns, after one warming pass.
func BenchmarkCandidates(b *testing.B) {
	gen, targets := candidateBed()
	var buf []LAC
	pass := func() {
		buf = buf[:0]
		for _, v := range targets {
			buf = gen.appendCandidates(buf, v)
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(targets)), "ns/target")
}
