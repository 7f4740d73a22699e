package core

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"dpals/internal/aiger"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/obs"
)

// normalizeStats strips the wall-clock fields, which legitimately differ
// between runs; everything else must be bit-identical.
func normalizeStats(s Stats) Stats {
	s.Runtime = 0
	s.CutTime, s.CPMTime, s.EvalTime = 0, 0, 0
	s.Phase1Time, s.Phase2Time, s.Phase1WarmTime = 0, 0, 0
	s.CertTime = 0
	return s
}

// TestTracingDoesNotPerturbResults is the central guarantee of the
// observability layer: attaching a recording tracer, a metrics registry
// and a progress renderer must leave the synthesis result — circuit bytes
// and deterministic Stats — bit-identical to an unobserved run, for every
// flow, every metric, and every thread count.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	g := gen.MultU(5, 5)
	R := metric.ReferenceError(g.NumPOs())

	flows := []struct {
		name  string
		flow  Flow
		tweak func(*Options)
		hooks Hooks
	}{
		{"Conventional", FlowConventional, nil, Hooks{}},
		{"VECBEE", FlowVECBEE, func(o *Options) { o.DepthLimit = 3 }, Hooks{}},
		{"AccALS", FlowAccALS, nil, Hooks{AccTol: 0.5}},
		{"DP", FlowDP, nil, Hooks{}},
		{"DP-SA", FlowDPSA, nil, Hooks{}},
	}
	metricCases := []struct {
		name      string
		kind      metric.Kind
		threshold float64
	}{
		{"ER", metric.ER, 0.05},
		{"MSE", metric.MSE, R * R},
		{"MED", metric.MED, R},
		{"MHD", metric.MHD, 0.5},
	}

	for _, fc := range flows {
		for _, mc := range metricCases {
			t.Run(fc.name+"/"+mc.name, func(t *testing.T) {
				run := func(threads int, traced bool) (*Result, []byte) {
					opt := Options{Flow: fc.flow, Metric: mc.kind, Threshold: mc.threshold}
					opt.Patterns = 512
					opt.Seed = 7
					opt.Threads = threads
					opt.MaxIters = 10
					opt.UseConstLACs = true
					opt.UseSASIMILACs = true
					if fc.tweak != nil {
						fc.tweak(&opt)
					}
					ctx := context.Background()
					if traced {
						ctx = obs.WithTracer(ctx, obs.New())
						ctx = obs.WithMetrics(ctx, obs.NewMetrics())
						ctx = obs.WithProgress(ctx, obs.NewProgress(io.Discard, time.Millisecond))
					}
					res, err := RunContext(ctx, g, opt, fc.hooks)
					if err != nil {
						t.Fatalf("RunContext(threads=%d traced=%v): %v", threads, traced, err)
					}
					var buf bytes.Buffer
					if err := aiger.Write(&buf, res.Graph); err != nil {
						t.Fatal(err)
					}
					return res, buf.Bytes()
				}

				base, baseAIG := run(1, false)
				want := normalizeStats(base.Stats)
				for _, threads := range []int{1, 4, 0} {
					got, gotAIG := run(threads, true)
					if !bytes.Equal(baseAIG, gotAIG) {
						t.Errorf("threads=%d: traced circuit differs from untraced baseline", threads)
					}
					if got.Error != base.Error {
						t.Errorf("threads=%d: Error %v, want %v", threads, got.Error, base.Error)
					}
					if ns := normalizeStats(got.Stats); !reflect.DeepEqual(ns, want) {
						t.Errorf("threads=%d: Stats diverge\n traced: %+v\n  plain: %+v", threads, ns, want)
					}
				}
			})
		}
	}
}

// sumSpans returns the summed duration of all main-lane spans with one of
// the names. Worker lane spans share their parent step's name and run
// concurrently inside it, so they are excluded from wall-clock sums.
func sumSpans(spans []obs.SpanData, names ...string) time.Duration {
	var total time.Duration
	for _, sp := range spans {
		if sp.Lane != 0 {
			continue
		}
		for _, n := range names {
			if sp.Name == n {
				total += sp.Dur
			}
		}
	}
	return total
}

// TestSpanTreeMatchesStats: the trace and the Stats must be two views of
// the same measurements — per-step span durations sum exactly to the
// step times, per-phase spans exactly to the phase times (single timing
// code path) — and the tree must be well-formed: no dangling parents, no
// spans left open.
func TestSpanTreeMatchesStats(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	for _, tc := range []struct {
		name string
		flow Flow
	}{
		{"DP-SA", FlowDPSA},
		{"Conventional", FlowConventional},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Flow: tc.flow, Metric: metric.MSE, Threshold: R * R}
			opt.Patterns = 512
			opt.Seed = 3
			opt.Threads = 4
			opt.MaxIters = 15
			tr := obs.New()
			res, err := RunContext(obs.WithTracer(context.Background(), tr), g, opt, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			spans := tr.Snapshot()
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}

			ids := map[uint64]bool{}
			roots := 0
			for _, sp := range spans {
				if sp.Open {
					t.Errorf("span %q left open after the run", sp.Name)
				}
				ids[sp.ID] = true
				if sp.Parent == 0 {
					roots++
					if sp.Name != "run" {
						t.Errorf("root span named %q, want run", sp.Name)
					}
				}
			}
			if roots != 1 {
				t.Fatalf("%d root spans, want 1", roots)
			}
			for _, sp := range spans {
				if sp.Parent != 0 && !ids[sp.Parent] {
					t.Errorf("span %q has dangling parent %d", sp.Name, sp.Parent)
				}
			}

			// Exact, not approximate: the Stats step and phase times are
			// accumulated from these same span durations.
			if got, want := sumSpans(spans, "cuts", "cuts.update", "cuts.warm"), res.Stats.CutTime; got != want {
				t.Errorf("cut spans sum %v, Stats.CutTime %v", got, want)
			}
			if got, want := sumSpans(spans, "cpm", "cpm.warm"), res.Stats.CPMTime; got != want {
				t.Errorf("cpm spans sum %v, Stats.CPMTime %v", got, want)
			}
			if got, want := sumSpans(spans, "eval"), res.Stats.EvalTime; got != want {
				t.Errorf("eval spans sum %v, Stats.EvalTime %v", got, want)
			}
			if got, want := sumSpans(spans, "phase1"), res.Stats.Phase1Time; got != want {
				t.Errorf("phase1 spans sum %v, Stats.Phase1Time %v", got, want)
			}
			if got, want := sumSpans(spans, "phase2"), res.Stats.Phase2Time; got != want {
				t.Errorf("phase2 spans sum %v, Stats.Phase2Time %v", got, want)
			}
			if res.Stats.Phase1Time == 0 {
				t.Error("Phase1Time is zero on a completed run")
			}
			if tc.flow == FlowDPSA && res.Stats.Incremental > 0 && res.Stats.Phase2Time == 0 {
				t.Error("Phase2Time is zero despite phase-2 iterations")
			}

			// Worker lane spans from the parallel pipeline appear under
			// recorded steps and are all closed (covered above); at
			// Threads=4 at least one should exist.
			lanes := 0
			for _, sp := range spans {
				if sp.Lane > 0 {
					lanes++
				}
			}
			if lanes == 0 {
				t.Error("no worker lane spans recorded at Threads=4")
			}
		})
	}
}

// TestUntracedRunStillTimesSteps: without any tracer the engine must still
// produce non-zero step and phase times via the no-op tracer's
// timestamps — the one-code-path property that fixed the -stats drift.
func TestUntracedRunStillTimesSteps(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R}
	opt.Patterns = 512
	opt.MaxIters = 10
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CutTime+res.Stats.CPMTime+res.Stats.EvalTime == 0 {
		t.Error("Step times all zero on an untraced run")
	}
	if res.Stats.Phase1Time+res.Stats.Phase2Time == 0 {
		t.Error("phase times zero on an untraced run")
	}
	if res.Stats.Phase1Time == 0 {
		t.Error("Phase1Time zero on an untraced run")
	}
}
