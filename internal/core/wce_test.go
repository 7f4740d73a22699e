package core

import (
	"testing"

	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

func wceOptions(flow Flow, bound uint64) Options {
	opt := Options{Flow: flow, Metric: metric.WCE, Threshold: float64(bound)}
	opt.WCEBound = bound
	opt.Patterns = 512
	opt.Threads = 1
	opt.MaxIters = 20
	return opt
}

func TestWCERejectsBadOptions(t *testing.T) {
	g := gen.Adder(4)

	opt := wceOptions(FlowDP, 3)
	opt.Weights = metric.UnsignedWeights(g.NumPOs())
	if _, err := Run(g, opt); err == nil {
		t.Error("explicit weights accepted on the WCE path")
	}

	wide := gen.Adder(63) // 64 POs
	if _, err := Run(wide, wceOptions(FlowDP, 3)); err == nil {
		t.Error("a 64-output circuit accepted on the WCE path")
	}

	med := Options{Flow: FlowDP, Metric: metric.MED, Threshold: 2}
	med.WCEBound = 3
	if _, err := Run(gen.Adder(4), med); err == nil {
		t.Error("WCEBound accepted for a non-WCE metric")
	}
}

// Every flow under the WCE metric must emit a circuit whose worst case —
// proven by an independent SAT query, not the engine's own certifier — is
// within the requested bound, with a consistent certificate in Stats.
func TestWCEAllFlowsCertifiedWithinBound(t *testing.T) {
	g := gen.MultU(4, 3)
	const bound = 6
	for _, flow := range []Flow{FlowConventional, FlowVECBEE, FlowAccALS, FlowDP, FlowDPSA} {
		res, err := Run(g, wceOptions(flow, bound))
		if err != nil {
			t.Fatalf("%v: %v", flow, err)
		}
		if res.Stats.CertifiedWCE > bound {
			t.Errorf("%v: certified WCE %d exceeds bound %d", flow, res.Stats.CertifiedWCE, bound)
		}
		if res.Stats.Applied > 0 && res.Stats.CertCalls == 0 {
			t.Errorf("%v: applied %d LACs with zero certification calls", flow, res.Stats.Applied)
		}
		ok, cex, err := equiv.WCEAtMost(g, res.Graph, res.Stats.CertifiedWCE)
		if err != nil {
			t.Fatalf("%v: recheck: %v", flow, err)
		}
		if !ok {
			t.Errorf("%v: independent SAT query refutes the certificate %d (cex %v)",
				flow, res.Stats.CertifiedWCE, cex)
		}
	}
}

// CertEvery only moves the amortisation points, never the soundness: with
// per-LAC certification (CertEvery 1) and with the default batching the
// certificate must hold either way, and per-LAC certification can never
// certify less than it applied.
func TestWCECertEveryAmortisation(t *testing.T) {
	g := gen.MultU(4, 3)
	for _, every := range []int{1, 3, 8} {
		opt := wceOptions(FlowDP, 6)
		opt.CertEvery = every
		res, err := Run(g, opt)
		if err != nil {
			t.Fatalf("CertEvery %d: %v", every, err)
		}
		ok, _, err := equiv.WCEAtMost(g, res.Graph, res.Stats.CertifiedWCE)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("CertEvery %d: unsound certificate %d", every, res.Stats.CertifiedWCE)
		}
		if every == 1 && res.Stats.Applied > 0 && res.Stats.CertCalls < res.Stats.Applied {
			t.Errorf("CertEvery 1: %d applied but only %d certification calls",
				res.Stats.Applied, res.Stats.CertCalls)
		}
	}
}
