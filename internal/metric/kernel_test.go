package metric

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"dpals/internal/bitvec"
	"dpals/internal/cpm"
)

// refEval is the per-bit evaluation the word-parallel ER and MSE kernels
// replaced, kept as their differential reference. It visits the row in PO
// order, words ascending, bits ascending, accumulating each flipped
// pattern's mismatch-count delta (ER) or float deviation delta (MSE), and
// folds the touched patterns once in first-touch order.
func refEval(st *State, a, b bitvec.Vec, inv uint64, row *cpm.Row) float64 {
	var touched []int
	seen := make([]bool, st.patterns)
	dMism := make([]int, st.patterns)
	delta := make([]float64, st.patterns)
	for ri, o := range row.POs {
		p, curW, exW := row.Diffs[ri], st.cur[o], st.exact[o]
		for wi := range a {
			w := flipWord(a, b, inv, wi) & p[wi]
			for ; w != 0; w &= w - 1 {
				bit := bits.TrailingZeros64(w)
				i := wi<<6 + bit
				if !seen[i] {
					seen[i] = true
					touched = append(touched, i)
				}
				curBit := curW[wi]>>uint(bit)&1 != 0
				agree := curBit == (exW[wi]>>uint(bit)&1 != 0)
				switch {
				case st.kind == ER && agree:
					dMism[i]++
				case st.kind == ER:
					dMism[i]--
				case curBit:
					delta[i] -= st.weights[o]
				default:
					delta[i] += st.weights[o]
				}
			}
		}
	}
	x := float64(st.patterns)
	if st.kind == ER {
		cnt := st.errCount
		for _, i := range touched {
			m := 0
			for o := range st.cur {
				if st.cur[o].Get(i) != st.exact[o].Get(i) {
					m++
				}
			}
			was, now := m > 0, m+dMism[i] > 0
			if was && !now {
				cnt--
			} else if !was && now {
				cnt++
			}
		}
		return float64(cnt) / x
	}
	sum := st.errSum
	for _, i := range touched {
		nd := st.dev[i] + delta[i]
		sum += nd*nd - st.dev[i]*st.dev[i]
	}
	return sum / x
}

// maskedVecs returns n random vectors over patterns bits, padding cleared
// like simulator output.
func maskedVecs(rng *rand.Rand, n, patterns int, density int) []bitvec.Vec {
	out := make([]bitvec.Vec, n)
	for i := range out {
		out[i] = bitvec.NewWords(bitvec.Words(patterns))
		for w := range out[i] {
			x := rng.Uint64()
			for d := 1; d < density; d++ {
				x &= rng.Uint64()
			}
			out[i][w] = x
		}
		out[i].Mask(patterns)
	}
	return out
}

// randomRow returns a CPM row over a random subset of the POs, each PO at
// most once, with masked diff vectors.
func randomRow(rng *rand.Rand, numPOs, patterns int) *cpm.Row {
	row := &cpm.Row{}
	for _, o := range rng.Perm(numPOs) {
		if rng.Intn(3) == 0 {
			continue
		}
		row.POs = append(row.POs, int32(o))
		row.Diffs = append(row.Diffs, maskedVecs(rng, 1, patterns, 1+rng.Intn(2))[0])
	}
	return row
}

// perturb flips a few random bits of a random PO and commits the result.
func perturb(rng *rand.Rand, st *State, approx []bitvec.Vec, patterns int) {
	o := rng.Intn(len(approx))
	nv := approx[o].Clone()
	for n := 1 + rng.Intn(patterns/4); n > 0; n-- {
		i := rng.Intn(patterns)
		nv.Set(i, !nv.Get(i))
	}
	approx[o] = nv
	st.CommitPO(o, nv)
}

// TestKernelsMatchPerBitReference pins the word-parallel ER and MSE
// kernels to the per-bit scan they replaced with ==, not a tolerance:
// unsigned, two's-complement and non-power-of-two integer weights, both
// complement masks, nil b, pattern counts with padding bits, and states
// after many commits. The "wide" weights (24 unsigned POs) push the MSE
// fold past 2^53, so evalMSE must decline some candidates, which the
// scan then scores.
func TestKernelsMatchPerBitReference(t *testing.T) {
	weightSets := []struct {
		name    string
		weights Weights
	}{
		{"unsigned", UnsignedWeights(9)},
		{"twos", TwosComplementWeights(9)},
		{"integer", Weights{3, -5, 7, 12, -1, 0, 100, -33, 6}},
		{"wide", UnsignedWeights(24)},
	}
	rng := rand.New(rand.NewSource(21))
	for _, ws := range weightSets {
		numPOs := len(ws.weights)
		scored, declined := 0, 0
		for _, patterns := range []int{100, 1000} {
			for _, kind := range []Kind{ER, MSE} {
				exact := maskedVecs(rng, numPOs, patterns, 1)
				st := NewState(kind, exact, ws.weights, patterns)
				if st.planes == nil {
					t.Fatalf("%s/%d/%v: kernel not selected", ws.name, patterns, kind)
				}
				ev := st.NewEvaluator()
				approx := make([]bitvec.Vec, numPOs)
				for o := range approx {
					approx[o] = exact[o].Clone()
				}
				for step := 0; step < 25; step++ {
					perturb(rng, st, approx, patterns)
					for cand := 0; cand < 6; cand++ {
						a := maskedVecs(rng, 1, patterns, 1+rng.Intn(3))[0]
						var b bitvec.Vec
						if rng.Intn(2) == 0 {
							b = maskedVecs(rng, 1, patterns, 1)[0]
						}
						var inv uint64
						if rng.Intn(2) == 0 {
							inv = ^uint64(0)
						}
						row := randomRow(rng, numPOs, patterns)
						if kind == MSE {
							if _, ok := ev.evalMSE(a, b, inv, row); ok {
								scored++
							} else {
								declined++
							}
						}
						got := ev.EvalLACXor(a, b, inv, row)
						want := refEval(st, a, b, inv, row)
						if got != want {
							t.Fatalf("%s/%d/%v step %d: kernel %v, per-bit reference %v", ws.name, patterns, kind, step, got, want)
						}
					}
				}
			}
		}
		switch {
		case scored == 0:
			t.Errorf("%s: the MSE kernel scored no candidate", ws.name)
		case ws.name == "wide" && declined == 0:
			t.Errorf("%s: the MSE kernel declined no candidate", ws.name)
		case ws.name != "wide" && declined != 0:
			t.Errorf("%s: the MSE kernel declined %d candidates far below 2^53", ws.name, declined)
		}
	}
}

// A candidate whose fold crosses 2^53 on the way must be declined even
// when the final sum lies below it. Here errSum is odd and just under 2^53;
// the first flip raises it past 2^53, where the fold rounds, and the second
// brings it back down, so the fold's answer is off by one from the exact
// integer. Only the Σ dev² term of evalMSE's bound sees the excursion.
func TestMSEKernelDeclinesInexactFold(t *testing.T) {
	const numPOs, patterns = 24, 64
	exact := make([]bitvec.Vec, numPOs)
	for o := range exact {
		exact[o] = bitvec.NewWords(1)
	}
	st := NewState(MSE, exact, UnsignedWeights(numPOs), patterns)
	for o := 0; o < numPOs; o++ {
		nv := bitvec.NewWords(1)
		for i := 1; i <= 32; i++ { // deviation 2^24 − 1
			nv.Set(i, true)
		}
		nv.Set(33, o == 0) // deviation 1
		st.CommitPO(o, nv)
	}
	// errSum = 32·(2^24−1)² + 1 = 2^53 − 2^30 + 33.
	if st.errSum != 1<<53-1<<30+33 {
		t.Fatalf("errSum %v", st.errSum)
	}
	// Flip the MSB on pattern 0 (0 → 2^23) and pattern 1 (2^24−1 → 2^23−1).
	a := bitvec.Vec{0b11}
	row := &cpm.Row{POs: []int32{numPOs - 1}, Diffs: []bitvec.Vec{{^uint64(0)}}}
	ev := st.NewEvaluator()
	if _, ok := ev.evalMSE(a, nil, 0, row); ok {
		t.Fatal("evalMSE scored a candidate whose fold passes 2^53")
	}
	want := refEval(st, a, nil, 0, row)
	exactSum := int64(1<<53-1<<30+33) + 1<<46 - 3<<46 + 1<<24
	if want == float64(exactSum)/patterns {
		t.Fatal("the fold stayed exact: the case no longer exercises rounding")
	}
	if got := ev.EvalLACXor(a, nil, 0, row); got != want {
		t.Fatalf("EvalLACXor %v, per-bit reference %v", got, want)
	}
}

// Weights the integer kernel does not admit keep MSE on the per-pattern
// scan, which still matches the from-scratch metric.
func TestMSEOutsideKernelUsesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cases := []struct {
		name     string
		weights  Weights
		patterns int
	}{
		{"fractional", Weights{0.5, 1, 2.25, 4, -8, 16}, 1000},
		{"40 POs", UnsignedWeights(40), 1024},
	}
	for _, c := range cases {
		n := len(c.weights)
		exact := maskedVecs(rng, n, c.patterns, 1)
		st := NewState(MSE, exact, c.weights, c.patterns)
		if st.planes != nil {
			t.Fatalf("%s: took the integer kernel", c.name)
		}
		approx := make([]bitvec.Vec, n)
		for o := range approx {
			approx[o] = exact[o].Clone()
		}
		for step := 0; step < 20; step++ {
			perturb(rng, st, approx, c.patterns)
			D := maskedVecs(rng, 1, c.patterns, 2)[0]
			row := randomRow(rng, n, c.patterns)
			got := st.EvalLAC(D, row)
			want := Compute(MSE, c.weights, exact, applyLACToPOs(approx, D, row), c.patterns)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s step %d: EvalLAC %v vs scratch %v", c.name, step, got, want)
			}
		}
	}
}

// The kernel admits integer weights up to Σ|w| = 2^26 and
// patterns·(Σ|w|)² = 2^60, both bounds included.
func TestMSEKernelAdmission(t *testing.T) {
	for _, c := range []struct {
		weights  Weights
		patterns int
		want     bool
	}{
		{Weights{1 << 25, 1 << 25}, 1 << 8, true}, // (2^26)²·2^8 = 2^60
		{Weights{1 << 25, 1 << 25}, 1<<8 + 1, false},
		{Weights{1<<26 + 1}, 1, false},
		{Weights{1, 0.5}, 64, false},
		{Weights{1, math.NaN()}, 64, false},
		{Weights{math.Inf(1)}, 64, false},
		{TwosComplementWeights(22), 1024, true},
	} {
		if got := mseKernel(c.weights, c.patterns); got != c.want {
			t.Errorf("mseKernel(%v, %d) = %v, want %v", c.weights, c.patterns, got, c.want)
		}
	}
}

// evalFixture is a warmed evaluator and a candidate shaped like DP-SA's MSE
// scoring of a 14-output dot-product unit at 1024 patterns: a row of 14
// POs over 16 words, each PO's diff non-empty in about a third of the
// words; a constant-LAC mask of density 1/2; and a state in which about
// nine POs deviate somewhere in every word.
func evalFixture(kind Kind) (*Evaluator, bitvec.Vec, *cpm.Row) {
	const numPOs, patterns = 14, 1024
	rng := rand.New(rand.NewSource(5))
	exact := maskedVecs(rng, numPOs, patterns, 1)
	st := NewState(kind, exact, UnsignedWeights(numPOs), patterns)
	for o := 0; o < numPOs; o++ {
		if rng.Intn(3) == 0 {
			continue
		}
		nv := exact[o].Clone()
		for n := 0; n < patterns/8; n++ {
			i := rng.Intn(patterns)
			nv.Set(i, !nv.Get(i))
		}
		st.CommitPO(o, nv)
	}
	row := &cpm.Row{}
	for o := 0; o < numPOs; o++ {
		p := maskedVecs(rng, 1, patterns, 1)[0]
		for w := range p {
			if rng.Intn(3) != 0 {
				p[w] = 0
			}
		}
		row.POs = append(row.POs, int32(o))
		row.Diffs = append(row.Diffs, p)
	}
	ev := st.NewEvaluator()
	a := maskedVecs(rng, 1, patterns, 1)[0]
	ev.EvalLACXor(a, nil, 0, row) // grows the scan path's touched list
	return ev, a, row
}

// A warmed evaluator scores candidates without allocating, for every
// metric kind the LAC evaluator drives.
func TestEvalLACXorAllocFree(t *testing.T) {
	for _, kind := range []Kind{ER, MSE, MED, MHD, WCE} {
		ev, a, row := evalFixture(kind)
		if n := testing.AllocsPerRun(20, func() { ev.EvalLACXor(a, nil, ^uint64(0), row) }); n != 0 {
			t.Errorf("%v: %v allocations per evaluation, want 0", kind, n)
		}
	}
}

// evalSink keeps the benchmarked scores observable to the compiler.
var evalSink float64

func BenchmarkEvalLAC(b *testing.B) {
	for _, kind := range []Kind{ER, MSE, MED, MHD, WCE} {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			ev, a, row := evalFixture(kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evalSink = ev.EvalLACXor(a, nil, 0, row)
			}
		})
	}
}
