package oracle

import (
	"testing"

	"dpals/internal/core"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

// wceSuite selects every benchmark circuit the exhaustive WCE oracle can
// handle: ≤ MaxPIs inputs (for Exact) and ≤ 62 outputs (for the integer
// interpretation).
func wceSuite(t *testing.T) []gen.Benchmark {
	t.Helper()
	var out []gen.Benchmark
	for _, b := range gen.Suite(true) {
		if b.Graph.NumPIs() <= MaxPIs && b.Graph.NumPOs() <= 62 {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		t.Fatal("no suite circuit fits the exhaustive WCE limits")
	}
	return out
}

func wceRunSpec(bound uint64) RunSpec {
	return RunSpec{
		Options: core.Options{Flow: core.FlowDP,
			Metric:    metric.WCE,
			WCEBound:  bound,
			Threshold: float64(bound),
			Patterns:  512,
			Seed:      1,
			Threads:   1,
			MaxIters:  20},
	}
}

// suiteBound picks a budget in the same spirit as the campaign: the
// paper's reference error, floored at 1 so every circuit has headroom.
func suiteBound(pos int) uint64 {
	b := uint64(metric.ReferenceError(pos))
	if b == 0 {
		b = 1
	}
	return b
}

// TestWCEDifferentialGenSuite is the oracle-backed sweep of the
// WCE-constrained flow (the tentpole's acceptance check): on every
// exhaustively checkable suite circuit, the emitted circuit's SAT-certified
// bound must dominate the TRUE worst-case error from exhaustive
// enumeration, and equiv.WCEAtMost must agree with the enumeration at the
// boundary from both sides — satisfiable at the true WCE, refuted one
// below it.
func TestWCEDifferentialGenSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT-certified sweep over the generator suite")
	}
	for _, b := range wceSuite(t) {
		b := b
		t.Run(b.PaperName, func(t *testing.T) {
			t.Parallel()
			g := b.Graph
			spec := wceRunSpec(suiteBound(g.NumPOs()))
			// Multi-thousand-gate miters (sin, log2) can cost minutes per
			// unlimited SAT call. Capping the conflict budget keeps the sweep
			// fast WITHOUT weakening the test: an exhausted budget counts as
			// a failed certification and rolls back, so the unsoundness check
			// below still applies in full.
			big := g.NumAnds() > 2000
			if big {
				spec.CertConflictLimit = 5000
				spec.MaxIters = 8
			}
			res, _, err := Execute(g, spec)
			if err != nil {
				t.Fatalf("WCE run: %v", err)
			}
			if vs := Verify(g, spec, res); len(vs) > 0 {
				t.Fatalf("verify: %v", vs[0])
			}
			if res.Stats.CertifiedWCE > spec.WCEBound {
				t.Fatalf("certified WCE %d exceeds bound %d", res.Stats.CertifiedWCE, spec.WCEBound)
			}
			ex, err := Exact(g, res.Graph, nil)
			if err != nil {
				t.Fatalf("exhaustive oracle: %v", err)
			}
			if !ex.WCEOK {
				t.Fatalf("oracle cannot enumerate WCE for %d POs", g.NumPOs())
			}
			if ex.WCE > res.Stats.CertifiedWCE {
				t.Fatalf("true WCE %d exceeds the certified bound %d — the certificate is unsound",
					ex.WCE, res.Stats.CertifiedWCE)
			}

			if big {
				// The boundary probes below are unlimited SAT calls; the small
				// circuits cover that agreement, the big ones only need the
				// soundness check above.
				return
			}
			// Boundary agreement, both sides: the SAT certifier and the
			// exhaustive enumeration are independent derivations of the same
			// integer, so WCEAtMost must accept the true WCE and reject one
			// below it.
			ok, _, err := equiv.WCEAtMost(g, res.Graph, ex.WCE)
			if err != nil {
				t.Fatalf("WCEAtMost(%d): %v", ex.WCE, err)
			}
			if !ok {
				t.Fatalf("WCEAtMost rejects the true WCE %d", ex.WCE)
			}
			if ex.WCE > 0 {
				ok, cex, err := equiv.WCEAtMost(g, res.Graph, ex.WCE-1)
				if err != nil {
					t.Fatalf("WCEAtMost(%d): %v", ex.WCE-1, err)
				}
				if ok {
					t.Fatalf("WCEAtMost accepts %d but enumeration says the worst case is %d",
						ex.WCE-1, ex.WCE)
				}
				if cex == nil {
					t.Fatal("refutation returned no counterexample")
				}
			}
		})
	}
}

// TestWCEBoundMonotonicSuite is the metamorphic satellite: tightening the
// certified bound is monotone in achievable savings under the conventional
// flow (applied LACs non-decreasing, gates non-increasing in the bound).
func TestWCEBoundMonotonicSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT-certified metamorphic ladder")
	}
	g := gen.Adder(4)
	spec := wceRunSpec(0)
	spec.Flow = core.FlowConventional
	b := suiteBound(g.NumPOs())
	bounds := []uint64{1, b, 2 * b, 4 * b}
	if vs := CheckWCEBoundMonotonic(g, spec, bounds); len(vs) > 0 {
		t.Fatalf("monotonicity violated: %v", vs[0])
	}
}

// TestWCECancelledRunStillCertified: a mid-run-cancelled WCE run performs
// no further SAT work, yet the circuit it returns must still carry a TRUE
// certified bound — the uncertified tail is rolled back, never emitted.
func TestWCECancelledRunStillCertified(t *testing.T) {
	g := gen.Adder(4)
	spec := wceRunSpec(suiteBound(g.NumPOs()))
	// CertEvery 1 makes every accepted LAC a certification checkpoint, so
	// the cancelled run has certified progress to keep.
	spec.CertEvery = 1
	spec.CancelAfter = 2
	res, _, err := Execute(g, spec)
	if err != nil {
		t.Fatalf("cancelled WCE run: %v", err)
	}
	if res.Stats.StopReason != core.StopCancelled {
		t.Fatalf("stop reason %s, want %s", res.Stats.StopReason, core.StopCancelled)
	}
	if vs := Verify(g, spec, res); len(vs) > 0 {
		t.Fatalf("verify: %v", vs[0])
	}
	ex, err := Exact(g, res.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.WCE > res.Stats.CertifiedWCE {
		t.Fatalf("cancelled run emitted true WCE %d above its certified bound %d",
			ex.WCE, res.Stats.CertifiedWCE)
	}
}

// TestWCEConflictBudgetSound: exhausting the certification conflict budget
// must degrade to a smaller circuit, never to an unsound bound.
func TestWCEConflictBudgetSound(t *testing.T) {
	g := gen.MultU(3, 3)
	spec := wceRunSpec(suiteBound(g.NumPOs()))
	spec.CertConflictLimit = 1 // starve every SAT call
	res, _, err := Execute(g, spec)
	if err != nil {
		t.Fatalf("budget-starved WCE run: %v", err)
	}
	if vs := Verify(g, spec, res); len(vs) > 0 {
		t.Fatalf("verify: %v", vs[0])
	}
	ex, err := Exact(g, res.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.WCE > res.Stats.CertifiedWCE {
		t.Fatalf("budget-starved run emitted true WCE %d above its certified bound %d",
			ex.WCE, res.Stats.CertifiedWCE)
	}
}
