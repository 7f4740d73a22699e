package equiv

import (
	"math/rand"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/gen"
)

// randomConstLAC returns a copy of g with one random live AND node tied to
// a random constant.
func randomConstLAC(g *aig.Graph, rng *rand.Rand) *aig.Graph {
	a := g.Clone()
	var ands []int32
	for _, v := range a.Topo() {
		if a.IsAnd(v) {
			ands = append(ands, v)
		}
	}
	if len(ands) > 0 {
		c := aig.False
		if rng.Intn(2) == 1 {
			c = aig.True
		}
		a.ReplaceWithLit(ands[rng.Intn(len(ands))], c)
	}
	return a
}

// exhaustiveWCE is the worst-case |orig − approx| over every input.
func exhaustiveWCE(orig, approx *aig.Graph) uint64 {
	n := orig.NumPIs()
	pi := make([]bool, n)
	var w uint64
	for in := 0; in < 1<<uint(n); in++ {
		for i := range pi {
			pi[i] = in>>uint(i)&1 == 1
		}
		w = max(w, absDiff(evalOutputs(orig, pi), evalOutputs(approx, pi)))
	}
	return w
}

// TestWCEAtMostMatchesExhaustive checks the solver on real certification
// miters: for multipliers with random constant LACs, the WCEAtMost verdict
// must equal the exhaustive maximum deviation at every threshold, and
// every counterexample must violate its threshold.
func TestWCEAtMostMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, orig := range []*aig.Graph{gen.MultU(3, 3), gen.MultU(4, 3)} {
		for trial := 0; trial < 4; trial++ {
			approx := orig
			for k := 1 + rng.Intn(3); k > 0; k-- {
				approx = randomConstLAC(approx, rng)
			}
			w := exhaustiveWCE(orig, approx)
			for th := uint64(0); th < 1<<uint(orig.NumPOs()); th++ {
				ok, cex, err := WCEAtMost(orig, approx, th)
				if err != nil {
					t.Fatal(err)
				}
				if ok != (w <= th) {
					t.Fatalf("%s trial %d: WCEAtMost(%d) = %v, exhaustive WCE %d", orig.Name, trial, th, ok, w)
				}
				if !ok && absDiff(evalOutputs(orig, cex), evalOutputs(approx, cex)) <= th {
					t.Fatalf("%s trial %d: counterexample does not violate bound %d", orig.Name, trial, th)
				}
			}
		}
	}
}

// BenchmarkCertify times one certification call of the wce-mult shape: a
// 5×6 multiplier with constant LACs whose exhaustive WCE is at most 64,
// proven at bound 64 (an UNSAT miter).
func BenchmarkCertify(b *testing.B) {
	const bound = 64
	orig := gen.MultU(5, 6)
	approx := orig
	rng := rand.New(rand.NewSource(1))
	for applied, tries := 0, 0; applied < 8 && tries < 60; tries++ {
		if next := randomConstLAC(approx, rng); exhaustiveWCE(orig, next) <= bound {
			approx = next
			applied++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var conflicts int64
	for i := 0; i < b.N; i++ {
		ok, _, cost, err := wceAtMost(orig, approx, bound, 0)
		if err != nil || !ok {
			b.Fatalf("certification at %d = %v, %v; want proven", bound, ok, err)
		}
		conflicts += cost.conflicts
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
}
