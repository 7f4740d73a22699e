package core

import (
	"context"
	"math"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
	"dpals/internal/sim"
)

// measure computes the metric between orig and approx from scratch on the
// given patterns — the independent end-to-end check for every flow.
func measure(t *testing.T, orig, approx *aig.Graph, kind metric.Kind, weights metric.Weights, patterns int, seed int64) float64 {
	t.Helper()
	so := sim.New(orig, sim.Options{Patterns: patterns, Seed: seed})
	sa := sim.New(approx, sim.Options{Patterns: patterns, Seed: seed})
	if orig.NumPOs() != approx.NumPOs() || orig.NumPIs() != approx.NumPIs() {
		t.Fatal("interface mismatch between original and approximate circuit")
	}
	eo := make([]bitvec.Vec, orig.NumPOs())
	ea := make([]bitvec.Vec, orig.NumPOs())
	for o := range eo {
		eo[o] = bitvec.NewWords(so.Words())
		so.POVal(o, eo[o])
		ea[o] = bitvec.NewWords(sa.Words())
		sa.POVal(o, ea[o])
	}
	if weights == nil && kind != metric.ER {
		weights = metric.UnsignedWeights(orig.NumPOs())
	}
	return metric.Compute(kind, weights, eo, ea, so.Patterns())
}

func runFlow(t *testing.T, g *aig.Graph, flow Flow, kind metric.Kind, thr float64, tweak func(*Options)) *Result {
	t.Helper()
	opt := Options{Flow: flow, Metric: kind, Threshold: thr}
	opt.Patterns = 1024
	opt.Seed = 11
	if tweak != nil {
		tweak(&opt)
	}
	res, err := Run(g, opt)
	if err != nil {
		t.Fatalf("%v/%v: %v", flow, kind, err)
	}
	if err := res.Graph.Check(); err != nil {
		t.Fatalf("%v/%v: result graph invalid: %v", flow, kind, err)
	}
	// The reported error must match an independent from-scratch measurement
	// on the same patterns.
	real := measure(t, g, res.Graph, kind, opt.Weights, 1024, 11)
	if math.Abs(real-res.Error) > 1e-9*(1+math.Abs(real)) {
		t.Fatalf("%v/%v: reported error %v but independent measurement %v", flow, kind, res.Error, real)
	}
	if res.Error > thr+1e-12 {
		t.Fatalf("%v/%v: error %v exceeds threshold %v", flow, kind, res.Error, thr)
	}
	return res
}

func TestAllFlowsRespectBoundMSE(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	thr := R * R
	for _, flow := range []Flow{FlowConventional, FlowVECBEE, FlowAccALS, FlowDP, FlowDPSA} {
		flow := flow
		res := runFlow(t, g, flow, metric.MSE, thr, func(o *Options) {
			if flow == FlowVECBEE {
				o.DepthLimit = 0
			}
		})
		if res.Stats.Applied == 0 {
			t.Errorf("%v: no LAC applied at threshold %v", flow, thr)
		}
		if res.Graph.NumAnds() >= g.Sweep().NumAnds() && res.Stats.Applied > 0 {
			t.Errorf("%v: applied %d LACs but no area reduction (%d vs %d)",
				flow, res.Stats.Applied, res.Graph.NumAnds(), g.Sweep().NumAnds())
		}
		t.Logf("%-12v applied=%3d ands %4d→%4d err=%.4g", flow, res.Stats.Applied,
			res.Stats.NodesBefore, res.Graph.NumAnds(), res.Error)
	}
}

func TestAllFlowsRespectBoundER(t *testing.T) {
	g := gen.MultU(6, 6)
	for _, flow := range []Flow{FlowConventional, FlowDP, FlowDPSA, FlowAccALS} {
		res := runFlow(t, g, flow, metric.ER, 0.05, func(o *Options) {
			o.UseConstLACs = true
			o.UseSASIMILACs = true
			o.MaxLACsPerNode = 4
		})
		if res.Stats.Applied == 0 {
			t.Errorf("%v: applied no LACs under 5%% ER with SASIMI", flow)
		}
		t.Logf("%-12v applied=%3d err=%.4g", flow, res.Stats.Applied, res.Error)
	}
}

func TestAllFlowsRespectBoundMED(t *testing.T) {
	g := gen.MultS(5, 5)
	w := metric.TwosComplementWeights(g.NumPOs())
	R := metric.ReferenceError(g.NumPOs())
	for _, flow := range []Flow{FlowConventional, FlowDP, FlowDPSA} {
		res := runFlow(t, g, flow, metric.MED, R, func(o *Options) {
			o.Weights = w
			o.UseConstLACs = true
			o.UseSASIMILACs = true
			o.MaxLACsPerNode = 4
		})
		t.Logf("%-12v applied=%3d err=%.4g (R=%.4g)", flow, res.Stats.Applied, res.Error, R)
	}
}

func TestVECBEEDepth1RunsAndRespectsBound(t *testing.T) {
	g := gen.MultU(5, 5)
	R := metric.ReferenceError(g.NumPOs())
	res := runFlow(t, g, FlowVECBEE, metric.MSE, R*R, func(o *Options) { o.DepthLimit = 1 })
	t.Logf("VECBEE(l=1) applied=%d err=%.4g rollbacks=%d", res.Stats.Applied, res.Error, res.Stats.Rollbacks)
}

// DP must achieve quality comparable to the conventional flow: same error
// bound, and a final size within a modest factor.
func TestDPQualityMatchesConventional(t *testing.T) {
	g := gen.MultU(7, 7)
	R := metric.ReferenceError(g.NumPOs())
	thr := R * R
	conv := runFlow(t, g, FlowConventional, metric.MSE, thr, nil)
	dp := runFlow(t, g, FlowDP, metric.MSE, thr, nil)
	if conv.Stats.Applied == 0 {
		t.Skip("conventional applied nothing; threshold too tight for this seed")
	}
	ratio := float64(dp.Graph.NumAnds()) / float64(conv.Graph.NumAnds())
	t.Logf("conventional: %d ands (%d LACs); DP: %d ands (%d LACs, %d phase-2); ratio %.3f",
		conv.Graph.NumAnds(), conv.Stats.Applied, dp.Graph.NumAnds(), dp.Stats.Applied, dp.Stats.Incremental, ratio)
	if ratio > 1.10 {
		t.Errorf("DP quality degraded: %.3f× conventional size", ratio)
	}
	if dp.Stats.Incremental == 0 {
		t.Error("DP applied no phase-2 LACs — incremental path untested")
	}
	// The acceleration claim: DP must do far fewer comprehensive passes.
	if dp.Stats.Comprehensive >= conv.Stats.Comprehensive {
		t.Errorf("DP ran %d comprehensive passes, conventional %d", dp.Stats.Comprehensive, conv.Stats.Comprehensive)
	}
}

func TestDPSASelfAdaption(t *testing.T) {
	g := gen.MultU(7, 7)
	R := metric.ReferenceError(g.NumPOs())
	res := runFlow(t, g, FlowDPSA, metric.MSE, R*R, func(o *Options) {
		o.UseConstLACs = true
		o.UseSASIMILACs = true
		o.MaxLACsPerNode = 8
	})
	if len(res.Stats.MTrace) == 0 {
		t.Error("DP-SA recorded no self-adaption trace")
	}
	t.Logf("DP-SA M trace: %v", res.Stats.MTrace)
}

func TestOnIterationCallback(t *testing.T) {
	g := gen.Adder(10)
	var iters []int
	opt := Options{Flow: FlowConventional, Metric: metric.ER, Threshold: 0.05}
	opt.Patterns = 512
	onIter := func(iter int, chosen lac.NodeBest, bests []lac.NodeBest) {
		iters = append(iters, iter)
		if len(bests) == 0 {
			t.Error("callback with empty bests")
		}
		if chosen.Best.Err > 0.05 {
			t.Errorf("callback chosen err %v exceeds bound", chosen.Best.Err)
		}
	}
	res, err := RunContext(context.Background(), g, opt, Hooks{OnIteration: onIter})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != res.Stats.Applied {
		t.Errorf("callback fired %d times, %d LACs applied", len(iters), res.Stats.Applied)
	}
	for i := range iters {
		if iters[i] != i+1 {
			t.Errorf("iteration numbering wrong: %v", iters)
			break
		}
	}
}

func TestZeroThresholdAppliesNothingHarmful(t *testing.T) {
	g := gen.MultU(4, 4)
	res := runFlow(t, g, FlowConventional, metric.ER, 0, nil)
	if res.Error != 0 {
		t.Errorf("zero threshold produced error %v", res.Error)
	}
}

func TestMaxItersCap(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	res := runFlow(t, g, FlowDP, metric.MSE, R*R*4, func(o *Options) { o.MaxIters = 5 })
	if res.Stats.Applied > 5 {
		t.Errorf("MaxIters=5 but %d LACs applied", res.Stats.Applied)
	}
}

func TestErrorsOnBadOptions(t *testing.T) {
	g := gen.Adder(4)
	if _, err := Run(g, Options{Flow: FlowDP, Metric: metric.ER, Threshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := Run(g, Options{Flow: FlowDP, Metric: metric.MSE, Threshold: 0.1, Weights: metric.Weights{1}}); err == nil {
		t.Error("weights of the wrong length accepted")
	}
	empty := aig.New("empty")
	empty.AddPO(empty.AddPI("a"), "o")
	if _, err := Run(empty, Options{Flow: FlowDP, Metric: metric.ER, Threshold: 0.1}); err == nil {
		t.Error("AND-free circuit accepted")
	}
}

// SASIMI LACs on the signed multiplier with MED: the classic ALS showcase.
func TestSASIMISignedMultiplierMED(t *testing.T) {
	g := gen.MultS(6, 5)
	w := metric.TwosComplementWeights(g.NumPOs())
	R := metric.ReferenceError(g.NumPOs())
	res := runFlow(t, g, FlowDPSA, metric.MED, 2*R, func(o *Options) {
		o.Weights = w
		o.UseConstLACs = true
		o.UseSASIMILACs = true
		o.MaxLACsPerNode = 6
	})
	before := g.Sweep().NumAnds()
	t.Logf("sm6x5 MED≤%.3g: %d→%d ands (%.1f%%), %d LACs", 2*R, before, res.Graph.NumAnds(),
		100*float64(res.Graph.NumAnds())/float64(before), res.Stats.Applied)
	if res.Graph.NumAnds() >= before {
		t.Error("no area reduction on the showcase circuit")
	}
}
