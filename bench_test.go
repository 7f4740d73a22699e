// Benchmarks regenerating the paper's tables and figures. Each benchmark
// is a full (smoke-scale) rerun of one experiment of §IV; custom metrics
// report the quantities the paper's claims are about (speedups, ADP
// deltas, candidate-set hit rates). For the complete experiments, use
// cmd/repro; EXPERIMENTS.md records the paper-vs-measured comparison.
package dpals_test

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"dpals"
	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
	"dpals/internal/obs"
	"dpals/internal/repro"
	"dpals/internal/sim"
	"dpals/internal/techmap"
)

// writeArtifact renders one observability artifact of the benchmark run;
// best-effort (a read-only checkout only costs the artifact, not the
// benchmark).
func writeArtifact(b *testing.B, path string, write func(io.Writer) error) {
	b.Helper()
	f, err := os.Create(path)
	if err != nil {
		b.Logf("could not write %s: %v", path, err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		b.Logf("could not write %s: %v", path, err)
	}
}

// smokeCfg keeps `go test -bench=.` tractable on one core: subset of
// circuits, single (median) thresholds, 512 patterns, 40-LAC cap on large
// circuits.
func smokeCfg() repro.Config {
	return repro.Config{Out: io.Discard, Scaled: true, Quick: true, Patterns: 512, CapIters: 40}
}

// BenchmarkTableI regenerates the benchmark-information table: circuit
// construction plus technology mapping for the whole suite.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bench := range gen.Suite(true) {
			_ = techmap.Summarise(bench.Graph)
		}
	}
}

// BenchmarkFig4 regenerates the candidate-node-set experiment. The
// reported metric hit_k30 is the average T_30/30 across circuits — the
// paper's claim is that it exceeds 80%.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := repro.Fig4(smokeCfg())
		sum := 0.0
		for _, r := range rows {
			sum += r.Rate[2] // k = 30
		}
		if len(rows) > 0 {
			b.ReportMetric(100*sum/float64(len(rows)), "hit_k30_%")
		}
	}
}

// BenchmarkTableII_Small regenerates the small-circuit MSE comparison.
// speedup_dpsa is mean-runtime(VECBEE l=∞) / mean-runtime(DP-SA) — the
// paper reports 9.0×.
func BenchmarkTableII_Small(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := repro.TableII(smokeCfg(), true)
		reportTableII(b, rows)
	}
}

// BenchmarkTableII_Large regenerates the large-circuit MSE comparison.
// The paper reports DP 21.8× faster than VECBEE(l=∞) without quality loss.
func BenchmarkTableII_Large(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := repro.TableII(smokeCfg(), false)
		reportTableII(b, rows)
	}
}

func reportTableII(b *testing.B, rows []repro.TableIIRow) {
	b.Helper()
	var rtInf, rtDP, rtDPSA time.Duration
	var adpInf, adpDP float64
	for _, r := range rows {
		rtInf += r.Runtime[0]
		rtDP += r.Runtime[2]
		rtDPSA += r.Runtime[3]
		adpInf += r.ADP[0]
		adpDP += r.ADP[2]
	}
	if rtDP > 0 {
		b.ReportMetric(float64(rtInf)/float64(rtDP), "speedup_dp")
	}
	if rtDPSA > 0 {
		b.ReportMetric(float64(rtInf)/float64(rtDPSA), "speedup_dpsa")
	}
	if n := float64(len(rows)); n > 0 {
		b.ReportMetric(100*(adpDP-adpInf)/n, "adp_dp_minus_inf_pp")
	}
}

// BenchmarkAblationMSweep quantifies the candidate-set-size trade-off
// behind the §III-D self-adaption: DP runtime at M=15 vs M=120.
func BenchmarkAblationMSweep(b *testing.B) {
	bench := gen.SmallSuite(true)[3] // sm9x8
	for i := 0; i < b.N; i++ {
		rows := repro.AblationMSweep(bench, []int{15, 60, 120}, repro.Config{Out: io.Discard, Patterns: 1024})
		if len(rows) == 3 && rows[2].Runtime > 0 {
			b.ReportMetric(float64(rows[0].Runtime)/float64(rows[2].Runtime), "t_M15_over_M120")
		}
	}
}

// BenchmarkComprehensiveAnalysis measures the tentpole of the parallel
// pipeline: one comprehensive error-analysis pass (step 1 disjoint cuts,
// step 2 CPM, step 3 LAC evaluation) on a ≥4000-AND circuit, serial vs all
// CPUs. The parallel result is verified bit-identical to the serial one
// every iteration; speedup_x reports serial/parallel wall-clock (≈1.0 on a
// single-core machine, where the parallel path still runs but cannot win).
func BenchmarkComprehensiveAnalysis(b *testing.B) {
	g := gen.VecMul(4, 10) // 4730 AND nodes
	if n := g.NumAnds(); n < 4000 {
		b.Fatalf("benchmark circuit too small: %d ANDs", n)
	}
	s := sim.New(g, sim.Options{Patterns: 2048, Seed: 1})
	exact := make([]bitvec.Vec, g.NumPOs())
	for o := range exact {
		exact[o] = bitvec.NewWords(s.Words())
		s.POVal(o, exact[o])
	}
	st := metric.NewState(metric.MSE, exact, metric.UnsignedWeights(g.NumPOs()), s.Patterns())
	generator := lac.NewGenerator(g, s, lac.Options{Constants: true})
	var targets []int32
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			targets = append(targets, v)
		}
	}
	pass := func(threads int) ([]lac.NodeBest, [3]time.Duration) {
		var tm [3]time.Duration
		t0 := time.Now()
		cuts := cut.NewSet(g, threads)
		tm[0] = time.Since(t0)
		t1 := time.Now()
		res := cpm.BuildDisjoint(g, s, cuts, nil, threads)
		tm[1] = time.Since(t1)
		t2 := time.Now()
		bests, _ := lac.EvaluateTargets(generator, res, st, targets, threads)
		tm[2] = time.Since(t2)
		return bests, tm
	}
	var serialTotal, parTotal time.Duration
	for i := 0; i < b.N; i++ {
		sBests, sTm := pass(1)
		pBests, pTm := pass(runtime.GOMAXPROCS(0))
		if len(sBests) != len(pBests) {
			b.Fatalf("parallel pass diverged: %d vs %d bests", len(sBests), len(pBests))
		}
		for j := range sBests {
			if sBests[j] != pBests[j] {
				b.Fatalf("parallel pass diverged at best %d: %+v vs %+v", j, sBests[j], pBests[j])
			}
		}
		serialTotal += sTm[0] + sTm[1] + sTm[2]
		parTotal += pTm[0] + pTm[1] + pTm[2]
		b.ReportMetric(float64(pTm[0].Microseconds()), "cuts_us")
		b.ReportMetric(float64(pTm[1].Microseconds()), "cpm_us")
		b.ReportMetric(float64(pTm[2].Microseconds()), "eval_us")
	}
	if parTotal > 0 {
		b.ReportMetric(float64(serialTotal)/float64(parTotal), "speedup_x")
	}
}

// BenchmarkDualPhase measures a full multi-round dual-phase run (several
// comprehensive analyses plus the phase-2 incremental iterations) on a
// ~5k-AND circuit, with the persistent incremental CPM cache and the
// cross-round phase-1 warm start ("cache") and with the pre-reuse
// from-scratch rebuild of everything ("rebuild": ApproximateRebuild, the
// engine's NoCPMCache + NoWarmStart hooks). Both modes are verified to produce identical results
// before timing starts, and the warm run must reuse phase-1 state and
// make warm comprehensive passes ≥1.4× faster per pass than cold ones.
// After the run the measurements are written to results/BENCH_phase2.json
// (ns/op, allocs/op, phase-1 time and reuse rate, rows recomputed per
// phase-2 iteration) so the perf trajectory is machine-readable.
func BenchmarkDualPhase(b *testing.B) {
	c := dpals.NewVecMul(4, 10) // 4730 AND nodes
	if n := c.NumGates(); n < 4000 {
		b.Fatalf("benchmark circuit too small: %d ANDs", n)
	}
	opt := dpals.Options{
		Flow: dpals.DP, Metric: dpals.MSE,
		Threshold: dpals.ReferenceError(c) * dpals.ReferenceError(c),
		Patterns:  1024, Seed: 1, Threads: 1,
		UseConstLACs: true, MaxIters: 24,
		// Small fixed round shape: 1 phase-1 apply + N phase-2 applies
		// per round, so MaxIters 24 spans eight rounds and the
		// cross-round warm start fires seven times. N is kept small —
		// every apply invalidates the TFI cones of its fanout, so fewer
		// applies per round leave more phase-1 rows reusable.
		M: 18, N: 2,
	}
	approximate := func(rebuild bool) (*dpals.Result, error) {
		if rebuild {
			return dpals.ApproximateRebuild(c, opt)
		}
		return dpals.Approximate(c, opt)
	}
	// Self-check: the cache must not change the synthesis result. The cache
	// run is traced and metered; besides proving observation does not
	// perturb the benchmark workload, its artifacts (trace + metrics, for
	// the CI upload and the Fig. 4-style time-breakdown recipe in
	// EXPERIMENTS.md) are written next to BENCH_phase2.json.
	tracer := obs.New()
	mets := obs.NewMetrics()
	ctx := obs.WithMetrics(obs.WithTracer(context.Background(), tracer), mets)
	withCache, err := dpals.ApproximateContext(ctx, c, opt)
	if err != nil {
		b.Fatal(err)
	}
	withoutCache, err := approximate(true)
	if err != nil {
		b.Fatal(err)
	}
	if withCache.Error != withoutCache.Error ||
		withCache.Stats.Applied != withoutCache.Stats.Applied ||
		withCache.Circuit.NumGates() != withoutCache.Circuit.NumGates() {
		b.Fatalf("cache changed the result: error %g vs %g, applied %d vs %d, gates %d vs %d",
			withCache.Error, withoutCache.Error,
			withCache.Stats.Applied, withoutCache.Stats.Applied,
			withCache.Circuit.NumGates(), withoutCache.Circuit.NumGates())
	}
	// The whole point of the pooled cache is allocation reuse: a dual-phase
	// run on this circuit must recycle diff vectors, or the free list is
	// broken.
	if withCache.Stats.Pool.Reuses == 0 {
		b.Fatalf("CPM pool never reused a vector: %+v", withCache.Stats.Pool)
	}
	// The point of the cross-round warm start is cheaper rounds ≥2: the warm
	// run must actually warm-start passes, reuse phase-1 CPM rows, and spend
	// substantially less wall-clock per warm comprehensive pass than per
	// cold one. The ≥1.4× floor is deliberately conservative — the observed
	// ratio is far higher — so the gate survives machine noise.
	warmPasses := withCache.Stats.WarmComprehensive
	coldPasses := withCache.Stats.Comprehensive - warmPasses
	if warmPasses == 0 || coldPasses == 0 {
		b.Fatalf("degenerate round split: %d warm / %d cold comprehensive passes",
			warmPasses, coldPasses)
	}
	if r := withCache.Stats.Phase1ReuseRate(); r <= 0 {
		b.Fatalf("warm run reused no phase-1 CPM rows (reuse rate %v)", r)
	}
	warmPer := withCache.Stats.Phase1WarmTime / time.Duration(warmPasses)
	coldPer := (withCache.Stats.Phase1Time - withCache.Stats.Phase1WarmTime) / time.Duration(coldPasses)
	if warmPer <= 0 || coldPer < warmPer*14/10 {
		b.Fatalf("warm phase-1 pass not ≥1.4× faster: warm %v/pass, cold %v/pass", warmPer, coldPer)
	}
	writeArtifact(b, "results/BENCH_trace.json", tracer.WritePerfetto)
	writeArtifact(b, "results/BENCH_metrics.jsonl", mets.WriteJSONL)

	type modeResult struct {
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		RowsReused  int64   `json:"cpm_rows_reused"`
		RowsRecomp  int64   `json:"cpm_rows_recomputed"`
		RowsPerIter float64 `json:"rows_recomputed_per_phase2_iter"`
		ReuseRate   float64 `json:"reuse_rate"`
		Phase2Iters int     `json:"phase2_iters"`
		AppliedLACs int     `json:"applied_lacs"`
		// Phase-1 (comprehensive-analysis) slice of the run: its wall-clock
		// time per op, the fraction of its CPM rows served by the
		// cross-round warm start, and how many applied LACs repaired the
		// cut set incrementally instead of forcing a rebuild. The latter
		// two are deterministic; zero reuse in "rebuild" mode is by design.
		Phase1Ns        int64   `json:"phase1_ns"`
		Phase1ReuseRate float64 `json:"phase1_reuse_rate"`
		CutUpdates      int64   `json:"cut_updates_incremental"`
	}
	results := map[string]*modeResult{}
	var warmSpeedup float64

	for _, mode := range []struct {
		name    string
		rebuild bool
	}{{"cache", false}, {"rebuild", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			var last *dpals.Result
			for i := 0; i < b.N; i++ {
				res, err := approximate(mode.rebuild)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			mr := &modeResult{
				NsPerOp:         elapsed.Nanoseconds() / int64(b.N),
				AllocsPerOp:     int64(ms1.Mallocs-ms0.Mallocs) / int64(b.N),
				BytesPerOp:      int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N),
				RowsReused:      last.Stats.CPMRowsReused,
				RowsRecomp:      last.Stats.CPMRowsRecomputed,
				ReuseRate:       last.Stats.ReuseRate(),
				Phase2Iters:     last.Stats.Incremental,
				AppliedLACs:     last.Stats.Applied,
				Phase1Ns:        last.Stats.Phase1Time.Nanoseconds(),
				Phase1ReuseRate: last.Stats.Phase1ReuseRate(),
				CutUpdates:      int64(last.Stats.CutUpdates),
			}
			if mode.name == "cache" {
				// Per-pass phase-1 speedup of rounds ≥2, from the untraced
				// timed run: warm passes vs the cold ones of the same run.
				if w, c := last.Stats.WarmComprehensive, last.Stats.Comprehensive-last.Stats.WarmComprehensive; w > 0 && c > 0 {
					warm := float64(last.Stats.Phase1WarmTime) / float64(w)
					cold := float64(last.Stats.Phase1Time-last.Stats.Phase1WarmTime) / float64(c)
					if warm > 0 {
						warmSpeedup = cold / warm
					}
				}
				b.ReportMetric(100*mr.Phase1ReuseRate, "phase1_reuse_%")
			}
			if last.Stats.Incremental > 0 {
				// Phase-2 recompute volume: total recomputed minus the
				// comprehensive passes' full rebuilds is not separable from
				// Stats alone in rebuild mode, so report the overall mean.
				mr.RowsPerIter = float64(mr.RowsRecomp) / float64(last.Stats.Incremental+last.Stats.Comprehensive)
			}
			b.ReportMetric(100*mr.ReuseRate, "reuse_%")
			b.ReportMetric(mr.RowsPerIter, "rows_recomputed/analysis")
			results[mode.name] = mr
		})
	}

	if results["cache"] != nil && results["rebuild"] != nil {
		if warmSpeedup < 1.4 {
			b.Fatalf("phase-1 warm speedup %.2fx below the 1.4x floor", warmSpeedup)
		}
		payload := struct {
			Circuit     string                 `json:"circuit"`
			Gates       int                    `json:"gates"`
			Patterns    int                    `json:"patterns"`
			MaxIters    int                    `json:"max_iters"`
			Modes       map[string]*modeResult `json:"modes"`
			SpeedupX    float64                `json:"speedup_x"`
			AllocsRatio float64                `json:"allocs_ratio"`
			// Per-pass phase-1 speedup of the warm rounds (≥2) over the
			// cold first round, within the "cache" mode's timed run.
			Phase1WarmSpeedupX float64 `json:"phase1_warm_speedup_x"`
		}{
			Circuit: "vecmul4x10", Gates: c.NumGates(), Patterns: 1024, MaxIters: 24,
			Modes: results, Phase1WarmSpeedupX: warmSpeedup,
		}
		if ns := results["cache"].NsPerOp; ns > 0 {
			payload.SpeedupX = float64(results["rebuild"].NsPerOp) / float64(ns)
		}
		if a := results["cache"].AllocsPerOp; a > 0 {
			payload.AllocsRatio = float64(results["rebuild"].AllocsPerOp) / float64(a)
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("results/BENCH_phase2.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("could not write results/BENCH_phase2.json: %v", err)
		}
	}
}

// BenchmarkTableIII regenerates the AccALS vs DP-SA comparison under ER
// and MED (single-threaded, as in the paper). speedup_med is
// runtime(AccALS)/runtime(DP-SA) under MED — the paper reports 2.1×.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := smokeCfg()
		rows := repro.TableIII(cfg)
		var rtAccER, rtDPER, rtAccMED, rtDPMED time.Duration
		for _, r := range rows {
			rtAccER += r.RTER[0]
			rtDPER += r.RTER[1]
			rtAccMED += r.RTMED[0]
			rtDPMED += r.RTMED[1]
		}
		if rtDPER > 0 {
			b.ReportMetric(float64(rtAccER)/float64(rtDPER), "speedup_er")
		}
		if rtDPMED > 0 {
			b.ReportMetric(float64(rtAccMED)/float64(rtDPMED), "speedup_med")
		}
	}
}
