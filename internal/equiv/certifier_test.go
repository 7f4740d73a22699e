package equiv_test

import (
	"testing"

	"dpals/internal/core"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

func TestCertifierCexScreening(t *testing.T) {
	orig := gen.MultU(4, 3)
	opt := core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: metric.ReferenceError(orig.NumPOs())}
	opt.Patterns = 1 << 7
	res, err := core.Run(orig, opt)
	if err != nil {
		t.Fatal(err)
	}
	approx := res.Graph
	w, err := equiv.WorstCaseError(orig, approx)
	if err != nil {
		t.Fatal(err)
	}
	if w < 2 {
		t.Fatalf("approximation too faithful for the test (WCE %d)", w)
	}

	cert := equiv.NewCertifier(orig)

	// A genuine refutation burns one SAT call and caches its witness.
	ok, err := cert.CheckAt(approx, w-1)
	if err != nil || ok {
		t.Fatalf("CheckAt(%d) = %v, %v; want refuted", w-1, ok, err)
	}
	if cert.Calls != 1 || cert.CexHits != 0 {
		t.Fatalf("after first refutation: %d calls, %d cex hits", cert.Calls, cert.CexHits)
	}

	// The same question again must be answered by the cached witness
	// without touching the solver.
	ok, err = cert.CheckAt(approx, w-1)
	if err != nil || ok {
		t.Fatalf("cached CheckAt(%d) = %v, %v; want refuted", w-1, ok, err)
	}
	if cert.Calls != 1 || cert.CexHits != 1 {
		t.Fatalf("after cached refutation: %d calls, %d cex hits (want 1, 1)", cert.Calls, cert.CexHits)
	}

	// A tighter bound is refuted by the SAME witness: its deviation is at
	// least w, which violates every threshold below w.
	ok, err = cert.CheckAt(approx, w-2)
	if err != nil || ok {
		t.Fatalf("cached CheckAt(%d) = %v, %v; want refuted", w-2, ok, err)
	}
	if cert.Calls != 1 || cert.CexHits != 2 {
		t.Fatalf("after second cached refutation: %d calls, %d cex hits (want 1, 2)", cert.Calls, cert.CexHits)
	}

	// At the true WCE the witness does not violate, so the certifier must
	// fall through to a real SAT call and certify.
	ok, err = cert.CheckAt(approx, w)
	if err != nil || !ok {
		t.Fatalf("CheckAt(%d) = %v, %v; want certified", w, ok, err)
	}
	if cert.Calls != 2 {
		t.Fatalf("certification did not reach the solver: %d calls", cert.Calls)
	}
}

func TestCertifierBudgetExhaustion(t *testing.T) {
	orig := gen.MultU(4, 3)
	opt := core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: metric.ReferenceError(orig.NumPOs())}
	opt.Patterns = 1 << 7
	res, err := core.Run(orig, opt)
	if err != nil {
		t.Fatal(err)
	}
	approx := res.Graph
	w, err := equiv.WorstCaseError(orig, approx)
	if err != nil {
		t.Fatal(err)
	}

	cert := equiv.NewCertifier(orig)
	cert.Limit = 1
	// Proving the bound holds at the exact WCE is an UNSAT instance that
	// needs conflict analysis; one conflict cannot finish it.
	if _, err := cert.CheckAt(approx, w); err != equiv.ErrBudget {
		t.Fatalf("starved certification returned %v, want ErrBudget", err)
	}
	// Lifting the limit on the same certifier must succeed.
	cert.Limit = 0
	ok, err := cert.CheckAt(approx, w)
	if err != nil || !ok {
		t.Fatalf("unlimited retry = %v, %v; want certified", ok, err)
	}
}
