package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"dpals/internal/aiger"
	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
	"dpals/internal/obs"
)

// aagBytes serialises a result graph so two runs can be compared for
// bit-identity, not just size.
func aagBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := aiger.Write(&buf, res.Graph); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmComprehensiveMatchesCold is the differential contract of the
// cross-round phase-1 reuse: a dual-phase run with warm starts enabled must
// be bit-identical to the same run with Hooks.NoWarmStart — same circuit,
// same error, same trajectory, and (because reused work is charged at its
// recorded cold-equivalent cost) the same deterministic Work profile that
// DP-SA's self-adaption tunes from, at every thread count. Small M forces
// several rounds so the warm path actually runs; SASIMI LACs are enabled so
// the candidate space includes the fanout-growing substitutions whose cut
// repairs are the hardest to keep in sync. The ER case scores SASIMI
// candidates with ER's per-row binding.
func TestWarmComprehensiveMatchesCold(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	flows := []struct {
		name      string
		flow      Flow
		metric    metric.Kind
		threshold float64
	}{
		{"DP", FlowDP, metric.MSE, R * R},
		{"DP-SA", FlowDPSA, metric.MSE, R * R},
		{"DP-SA/ER", FlowDPSA, metric.ER, 0.05},
	}
	threadCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range flows {
		t.Run(tc.name, func(t *testing.T) {
			for _, threads := range threadCounts {
				run := func(noWarm bool) *Result {
					opt := Options{Flow: tc.flow, Metric: tc.metric, Threshold: tc.threshold}
					opt.Patterns = 1024
					opt.Seed = 7
					opt.Threads = threads
					opt.MaxIters = 25
					opt.M = 8 // several dual-phase rounds within MaxIters
					opt.UseConstLACs = true
					opt.UseSASIMILACs = true
					res, err := RunContext(context.Background(), g, opt, Hooks{NoWarmStart: noWarm})
					if err != nil {
						t.Fatalf("Run(threads=%d, noWarm=%v): %v", threads, noWarm, err)
					}
					return res
				}
				warm := run(false)
				cold := run(true)
				if warm.Stats.WarmComprehensive == 0 {
					t.Fatalf("threads=%d: no warm-started pass in %d comprehensive passes; the differential is vacuous",
						threads, warm.Stats.Comprehensive)
				}
				if cold.Stats.WarmComprehensive != 0 {
					t.Errorf("threads=%d: NoWarmStart run reports %d warm passes", threads, cold.Stats.WarmComprehensive)
				}
				if warm.Error != cold.Error {
					t.Errorf("threads=%d: Error warm %v, cold %v", threads, warm.Error, cold.Error)
				}
				if warm.Stats.Applied != cold.Stats.Applied ||
					warm.Stats.Comprehensive != cold.Stats.Comprehensive ||
					warm.Stats.Incremental != cold.Stats.Incremental {
					t.Errorf("threads=%d: trajectory warm %d/%d/%d, cold %d/%d/%d", threads,
						warm.Stats.Applied, warm.Stats.Comprehensive, warm.Stats.Incremental,
						cold.Stats.Applied, cold.Stats.Comprehensive, cold.Stats.Incremental)
				}
				if warm.Stats.StopReason != cold.Stats.StopReason {
					t.Errorf("threads=%d: StopReason warm %q, cold %q", threads, warm.Stats.StopReason, cold.Stats.StopReason)
				}
				// The charged cold-equivalent work: the fields DP-SA's
				// self-adaption profiles must be invariant under reuse. The
				// *Skipped/memo counters legitimately differ (zero cold).
				if warm.Stats.CutWork != cold.Stats.CutWork ||
					warm.Stats.CPMWork != cold.Stats.CPMWork ||
					warm.Stats.EvalWork != cold.Stats.EvalWork {
					t.Errorf("threads=%d: charged work warm %d/%d/%d, cold %d/%d/%d", threads,
						warm.Stats.CutWork, warm.Stats.CPMWork, warm.Stats.EvalWork,
						cold.Stats.CutWork, cold.Stats.CPMWork, cold.Stats.EvalWork)
				}
				if tc.flow == FlowDPSA {
					wm, cm := warm.Stats.MTrace, cold.Stats.MTrace
					if len(wm) != len(cm) {
						t.Fatalf("threads=%d: MTrace length warm %d, cold %d", threads, len(wm), len(cm))
					}
					for i := range wm {
						if wm[i] != cm[i] {
							t.Errorf("threads=%d: MTrace[%d] warm %d, cold %d", threads, i, wm[i], cm[i])
						}
					}
				}
				if !bytes.Equal(aagBytes(t, warm), aagBytes(t, cold)) {
					t.Errorf("threads=%d: result circuits differ", threads)
				}
			}
		})
	}
}

// TestWarmReuseReportsNonzeroCounters pins the observability side of the
// reuse: a multi-round dual-phase run must reuse CPM rows in its warm
// phase-1 passes and report the skipped work it charged.
func TestWarmReuseReportsNonzeroCounters(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R}
	opt.Patterns = 1024
	opt.Seed = 7
	opt.MaxIters = 25
	opt.M = 8
	opt.UseConstLACs = true
	opt.UseSASIMILACs = true
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WarmComprehensive == 0 {
		t.Fatal("no warm pass; M too large for the iteration budget?")
	}
	if res.Stats.Phase1RowsReused == 0 {
		t.Error("warm passes reused no CPM rows")
	}
	if res.Stats.SkippedWork == 0 {
		t.Error("no skipped work charged")
	}
	if r := res.Stats.Phase1ReuseRate(); r <= 0 || r > 1 {
		t.Errorf("Phase1ReuseRate = %v, want in (0,1]", r)
	}
	if res.Stats.Phase1WarmTime <= 0 {
		t.Error("Phase1WarmTime not recorded")
	}
	if res.Stats.Phase1WarmTime > res.Stats.Phase1Time {
		t.Errorf("Phase1Warm time %v exceeds total Phase1 time %v",
			res.Stats.Phase1WarmTime, res.Stats.Phase1Time)
	}
}

// TestComprehensiveCancelKeepsPreviousCuts is the regression test for the
// half-built-cut-set bug: a comprehensive pass whose cut construction is
// cancelled must leave e.cuts exactly as it found it — nil on a fresh
// engine, or the previous complete set — never a partially built one that a
// later warm start or phase-2 closure would trust.
func TestComprehensiveCancelKeepsPreviousCuts(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R}
	opt.Patterns = 512
	opt.Seed = 3
	mk := func() (*engine, context.CancelFunc) {
		e, err := newEngine(g, opt.Resolved(), Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		run := obs.FromContext(ctx).Start("run")
		e.ctx = ctx
		e.root, e.cur = run, run
		e.incCuts = true
		return e, cancel
	}

	// Fresh engine, pre-cancelled context: no cuts may appear.
	e, cancel := mk()
	cancel()
	if bests := e.comprehensive(e.root); bests != nil {
		t.Fatalf("cancelled pass returned %d bests", len(bests))
	}
	if e.cuts != nil {
		t.Fatal("cancelled first pass stored a (half-built) cut set")
	}

	// Established engine: a complete pass, an applied LAC keeping the set in
	// sync, then a cancelled pass — the previous set must survive untouched
	// and still count as warm for the next attempt.
	e, cancel = mk()
	bests := e.comprehensive(e.root)
	if len(bests) == 0 {
		t.Fatal("no candidates on the seed circuit")
	}
	e.apply(bests[0].Best.LAC)
	prev := e.cuts
	if prev == nil || !prev.InSync() {
		t.Fatal("setup: expected a complete, in-sync cut set after apply")
	}
	e.hooks.NoWarmStart = true // force the cold path, where the bug lived
	cancel()
	if bests := e.comprehensive(e.root); bests != nil {
		t.Fatalf("cancelled pass returned %d bests", len(bests))
	}
	if e.cuts != prev {
		t.Fatal("cancelled rebuild replaced the previous complete cut set")
	}
	if !e.cuts.InSync() {
		t.Fatal("previous set lost sync without any graph change")
	}
}

// TestRollbackThenComprehensiveRebuildsCold: restore() drops the analysis
// state, so the pass after a rollback must run cold and produce the same
// evaluation a fresh engine over the same circuit produces.
func TestRollbackThenComprehensiveRebuildsCold(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R}
	opt.Patterns = 512
	opt.Seed = 3
	e, err := newEngine(g, opt.Resolved(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	run := obs.FromContext(context.Background()).Start("run")
	e.ctx = context.Background()
	e.root, e.cur = run, run
	e.incCuts = true
	e.memo = lac.NewMemo(e.g.NumVars())

	ref := e.comprehensive(e.root)
	if len(ref) == 0 {
		t.Fatal("no candidates on the seed circuit")
	}
	sn := e.snapshot()
	e.apply(ref[0].Best.LAC)
	if !e.warmStart() {
		t.Fatal("setup: engine not warm after an in-sync apply")
	}
	e.restore(sn)
	if e.warmStart() {
		t.Fatal("rollback left the engine claiming a warm start")
	}
	warmAfter := e.stats.WarmComprehensive
	again := e.comprehensive(e.root)
	if e.stats.WarmComprehensive != warmAfter {
		t.Fatal("pass after rollback counted as warm")
	}
	if len(again) != len(ref) {
		t.Fatalf("post-rollback pass found %d bests, fresh pass found %d", len(again), len(ref))
	}
	for i := range ref {
		if again[i].Node != ref[i].Node || again[i].Best.Err != ref[i].Best.Err {
			t.Fatalf("best[%d]: post-rollback {%d %v}, fresh {%d %v}",
				i, again[i].Node, again[i].Best.Err, ref[i].Node, ref[i].Best.Err)
		}
	}
}
