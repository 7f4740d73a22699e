package equiv_test

import (
	"testing"

	"dpals/internal/aig"
	"dpals/internal/core"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

// evalPO evaluates graph g on one input assignment (indexed like the PIs).
func evalPO(g *aig.Graph, in []bool) []bool {
	val := make([]bool, g.NumVars())
	for i, v := range g.PIs() {
		val[v] = in[i]
	}
	lv := func(l aig.Lit) bool { return val[l.Var()] != l.IsCompl() }
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		val[v] = lv(f0) && lv(f1)
	}
	out := make([]bool, g.NumPOs())
	for o, po := range g.POs() {
		out[o] = lv(po)
	}
	return out
}

func TestEquivalentArchitectures(t *testing.T) {
	// Ripple and Kogge-Stone adders compute the same function; so do the
	// array and Wallace multipliers.
	eq, _, err := equiv.Equivalent(gen.Adder(8), gen.KoggeStoneAdder(8))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("adder architectures not proven equivalent")
	}
	eq, _, err = equiv.Equivalent(gen.MultU(5, 5), gen.WallaceMultiplier(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("multiplier architectures not proven equivalent")
	}
}

func TestInequivalentWithCounterexample(t *testing.T) {
	a := gen.Adder(6)
	// Break one output: complement the LSB.
	b := a.Clone()
	b.SetPO(0, b.PO(0).Not())
	eq, cex, err := equiv.Equivalent(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("broken adder proven equivalent")
	}
	if cex == nil {
		t.Fatal("no counterexample returned")
	}
	oa, ob := evalPO(a, cex), evalPO(b, cex)
	same := true
	for i := range oa {
		if oa[i] != ob[i] {
			same = false
		}
	}
	if same {
		t.Fatal("counterexample does not distinguish the circuits")
	}
}

func TestSelfEquivalenceAfterRoundtrips(t *testing.T) {
	g := gen.ALU(4)
	eq, _, err := equiv.Equivalent(g, g.Sweep())
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("sweep broke equivalence")
	}
}

func TestWCEAtMostExactOnSmall(t *testing.T) {
	// Approximate a 5×4 multiplier, then compare the SAT-certified WCE
	// with the exhaustively measured one.
	orig := gen.MultU(5, 4)
	R := metric.ReferenceError(orig.NumPOs())
	opt := core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: R}
	opt.Patterns = 1 << 9
	opt.Exhaustive = true
	res, err := core.Run(orig, opt)
	if err != nil {
		t.Fatal(err)
	}
	approx := res.Graph

	// Exhaustive ground truth.
	var wceTruth uint64
	nIn := orig.NumPIs()
	for in := 0; in < 1<<uint(nIn); in++ {
		bits := make([]bool, nIn)
		for i := range bits {
			bits[i] = in>>uint(i)&1 == 1
		}
		vo := toUint(evalPO(orig, bits))
		va := toUint(evalPO(approx, bits))
		d := vo - va
		if va > vo {
			d = va - vo
		}
		if d > wceTruth {
			wceTruth = d
		}
	}

	got, err := equiv.WorstCaseError(orig, approx)
	if err != nil {
		t.Fatal(err)
	}
	if got != wceTruth {
		t.Fatalf("SAT WCE %d, exhaustive %d", got, wceTruth)
	}
	// Certification must agree on both sides of the exact value.
	if wceTruth > 0 {
		ok, _, err := equiv.WCEAtMost(orig, approx, wceTruth-1)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("certified below the true WCE")
		}
	}
	ok, cex, err := equiv.WCEAtMost(orig, approx, wceTruth)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("not certified at the true WCE (cex %v)", cex)
	}
}

func TestWCEZeroForIdenticalCircuits(t *testing.T) {
	g := gen.Adder(6)
	wce, err := equiv.WorstCaseError(g, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if wce != 0 {
		t.Errorf("identical circuits have WCE %d", wce)
	}
}

func toUint(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}
