package oracle

import (
	"testing"

	"dpals/internal/aig"
	"dpals/internal/core"
	"dpals/internal/fault"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

// TestShrinkStructuralPredicate drives the shrinker with a pure
// structural predicate — no synthesis runs — so the minimisation
// machinery itself is tested deterministically.
func TestShrinkStructuralPredicate(t *testing.T) {
	g := gen.Random(11, 10, 8, 90)
	start := g.NumAnds()
	if start < 40 {
		t.Fatalf("testbed too small: %d ANDs", start)
	}
	// "Fails" = still has at least 5 AND nodes: the greedy minimum is 5.
	small, trials := Shrink(g, func(c *aig.Graph) bool { return c.NumAnds() >= 5 }, ShrinkOptions{MaxTrials: 2000})
	if small.NumAnds() != 5 {
		t.Errorf("shrunk to %d ANDs, want the predicate minimum 5 (trials %d)", small.NumAnds(), trials)
	}
	if small.NumPOs() < 1 || small.NumPIs() < 1 {
		t.Errorf("shrunk circuit lost its interface: %d PIs, %d POs", small.NumPIs(), small.NumPOs())
	}
	if err := small.Check(); err != nil {
		t.Errorf("shrunk circuit invalid: %v", err)
	}
}

// TestShrinkRespectsTrialBudget checks that MaxTrials truly bounds the
// number of predicate calls.
func TestShrinkRespectsTrialBudget(t *testing.T) {
	g := gen.Random(11, 10, 8, 90)
	calls := 0
	_, trials := Shrink(g, func(c *aig.Graph) bool { calls++; return true }, ShrinkOptions{MaxTrials: 25})
	if calls != trials {
		t.Errorf("reported %d trials but predicate ran %d times", trials, calls)
	}
	if calls > 25 {
		t.Errorf("predicate ran %d times, budget 25", calls)
	}
}

// faultPredicate builds the real campaign predicate: the candidate still
// makes the seeded fault detectable (via violations, panic, or divergence
// from its own clean run).
func faultPredicate(spec RunSpec) Predicate {
	return func(c *aig.Graph) bool {
		clean := CleanOutcome(c, spec)
		if clean.Err != nil {
			return false
		}
		return DetectFault(c, spec, &clean).Detected
	}
}

// TestShrinkSeededFailure is the acceptance-criteria test: seed a fault,
// confirm the harness detects it, then shrink the failing circuit to a
// small repro (≤ 32 AND nodes) on which the failure still reproduces.
func TestShrinkSeededFailure(t *testing.T) {
	g := gen.Random(11, 10, 8, 90)
	base := RunSpec{Options: core.Options{Flow: core.FlowConventional, Metric: metric.MED, Threshold: 10,
		Patterns: 256, Seed: 3, Threads: 1, MaxIters: 30}}
	det, nth := ScanFault(g, base, fault.FlipSimBit, 25)
	if !det.Detected {
		t.Fatalf("flip-sim-bit not detectable on the shrink testbed")
	}
	spec := base
	spec.Fault = fault.FlipSimBit
	spec.FaultNth = nth
	pred := faultPredicate(spec)
	if !pred(g) {
		t.Fatal("predicate does not hold on the unshrunk circuit")
	}
	small, trials := Shrink(g, pred, ShrinkOptions{MaxTrials: 300})
	t.Logf("shrunk %d → %d ANDs, %d PIs, %d POs in %d trials",
		g.NumAnds(), small.NumAnds(), small.NumPIs(), small.NumPOs(), trials)
	if small.NumAnds() > 32 {
		t.Errorf("shrunk repro has %d ANDs, want ≤ 32", small.NumAnds())
	}
	if small.NumAnds() >= g.NumAnds() {
		t.Errorf("shrinker made no progress: %d → %d ANDs", g.NumAnds(), small.NumAnds())
	}
	if !pred(small) {
		t.Error("failure does not reproduce on the shrunk circuit")
	}
	if err := small.Check(); err != nil {
		t.Errorf("shrunk circuit invalid: %v", err)
	}
}

// TestReproRoundTrip saves a shrunk repro and replays it from disk.
func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := gen.Random(3, 8, 6, 60)
	spec := RunSpec{Options: core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: 6,
		Patterns: 256, Seed: 1, Threads: 1, MaxIters: 30}}
	det, nth := ScanFault(g, spec, fault.MisreportError, 5)
	if !det.Detected {
		t.Fatal("misreport-error not detectable")
	}
	spec.Fault = fault.MisreportError
	spec.FaultNth = nth
	rs := ReproSpec{Run: spec, Check: det.How, Detail: det.Detail}
	if err := SaveRepro(dir, "misreport-s1", rs, g); err != nil {
		t.Fatal(err)
	}
	repros, err := LoadRepros(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 1 || repros[0].Name != "misreport-s1" {
		t.Fatalf("loaded %d repros, want [misreport-s1]", len(repros))
	}
	r := repros[0]
	if r.Spec.Run.Fault != fault.MisreportError || r.Spec.Ands != g.NumAnds() {
		t.Errorf("sidecar did not round-trip: %+v", r.Spec)
	}
	if r.Graph.NumPIs() != g.NumPIs() || r.Graph.NumPOs() != g.NumPOs() {
		t.Errorf("circuit did not round-trip: %d PIs %d POs", r.Graph.NumPIs(), r.Graph.NumPOs())
	}
	replay := r.Replay()
	if !replay.Detected {
		t.Error("replayed repro no longer detected")
	}
	// A missing directory is an empty fixture set, not an error.
	none, err := LoadRepros(dir + "/does-not-exist")
	if err != nil || len(none) != 0 {
		t.Errorf("missing dir: %v, %d repros", err, len(none))
	}
}
