package dpals

import (
	"bytes"
	"math"
	"testing"
)

func TestQuickstartPath(t *testing.T) {
	c := NewMultiplier(6, 6, false)
	if c.NumInputs() != 12 || c.NumOutputs() != 12 {
		t.Fatalf("multiplier interface %d/%d", c.NumInputs(), c.NumOutputs())
	}
	R := ReferenceError(c)
	res, err := Approximate(c, Options{
		Flow:      DPSA,
		Metric:    MSE,
		Threshold: R * R,
		Patterns:  1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error > R*R {
		t.Errorf("error %v exceeds budget %v", res.Error, R*R)
	}
	if res.ADPRatio >= 1 || res.ADPRatio <= 0 {
		t.Errorf("ADP ratio %v not in (0,1)", res.ADPRatio)
	}
	if res.Stats.Applied == 0 {
		t.Error("nothing applied")
	}
	// Independent verification.
	real, err := MeasureError(c, res.Circuit, MSE, nil, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real-res.Error) > 1e-9*(1+real) {
		t.Errorf("reported %v, measured %v", res.Error, real)
	}
}

func TestAllPublicFlows(t *testing.T) {
	c := NewAdder(12)
	for _, f := range []Flow{Conventional, VECBEE, AccALS, DP, DPSA} {
		res, err := Approximate(c, Options{
			Flow: f, Metric: MED, Threshold: 2 * ReferenceError(c),
			Patterns: 512, UseConstLACs: true, UseSASIMILACs: true, MaxLACsPerNode: 4,
		})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if res.Error > 2*ReferenceError(c) {
			t.Errorf("%v: over budget", f)
		}
	}
}

func TestBLIFRoundTripPublic(t *testing.T) {
	c := NewALU(4)
	var buf bytes.Buffer
	if err := c.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBLIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e, err := MeasureError(c, back, ER, nil, 2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("roundtrip changed function: ER=%v", e)
	}
}

func TestAIGERRoundTripPublic(t *testing.T) {
	c := NewSqrt(8)
	var buf bytes.Buffer
	if err := c.WriteAIGER(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAIGER(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e, err := MeasureError(c, back, ER, nil, 2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("roundtrip changed function: ER=%v", e)
	}
}

func TestBenchmarkSuitePublic(t *testing.T) {
	suite := BenchmarkSuite(true)
	if len(suite) != 13 {
		t.Fatalf("suite has %d circuits, want 13", len(suite))
	}
	smalls := 0
	for _, b := range suite {
		if b.Circuit.NumGates() == 0 {
			t.Errorf("%s: empty", b.Name)
		}
		if b.Small {
			smalls++
			if b.Circuit.NumGates() >= 4000 {
				t.Errorf("%s: small group but %d gates", b.Name, b.Circuit.NumGates())
			}
		} else if b.Circuit.NumGates() < 4000 {
			t.Errorf("%s: large group but only %d gates", b.Name, b.Circuit.NumGates())
		}
	}
	if smalls != 7 {
		t.Errorf("%d small circuits, want 7", smalls)
	}
}

func TestMeasureErrorInterfaceMismatch(t *testing.T) {
	a := NewAdder(4)
	b := NewAdder(5)
	if _, err := MeasureError(a, b, ER, nil, 64, 1); err == nil {
		t.Error("interface mismatch accepted")
	}
	// Every measurement path reports which interface differs and how.
	const want = "dpals: interface mismatch (8/10 inputs, 5/6 outputs)"
	for name, run := range map[string]func() (float64, error){
		"MeasureError":       func() (float64, error) { return MeasureError(a, b, ER, nil, 64, 1) },
		"MeasureErrorBiased": func() (float64, error) { return MeasureErrorBiased(a, b, ER, nil, 64, 1, []float64{0.3}) },
		"MeasureErrorExact":  func() (float64, error) { return MeasureErrorExact(a, b, ER, nil) },
	} {
		if _, err := run(); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
}

func TestCircuitAccessors(t *testing.T) {
	c := NewButterfly(4)
	if c.Area() <= 0 || c.Delay() <= 0 || c.ADP() <= 0 {
		t.Error("mapping metrics must be positive")
	}
	if c.Weights() == nil {
		t.Error("butterfly should carry signed weights")
	}
	if c.Depth() <= 0 || c.NumGates() <= 0 {
		t.Error("structure accessors wrong")
	}
	if got := len(c.Weights()); got != c.NumOutputs() {
		t.Errorf("weights %d vs POs %d", got, c.NumOutputs())
	}
}

func TestNilCircuit(t *testing.T) {
	if _, err := Approximate(nil, Options{}); err == nil {
		t.Error("nil circuit accepted")
	}
}

// Approximation must reduce the FPGA-style LUT count too, not just the
// cell-based area model.
func TestLUTCountShrinks(t *testing.T) {
	c := NewMultiplier(7, 7, false)
	before := c.LUTs(6)
	if before <= 0 {
		t.Fatalf("LUT count %d", before)
	}
	R := ReferenceError(c)
	res, err := Approximate(c, Options{Flow: DPSA, Metric: MSE, Threshold: R * R, Patterns: 1024})
	if err != nil {
		t.Fatal(err)
	}
	after := res.Circuit.LUTs(6)
	if after >= before {
		t.Errorf("LUTs %d → %d: no reduction", before, after)
	}
	t.Logf("6-LUTs %d → %d (gates %d → %d)", before, after, c.NumGates(), res.Circuit.NumGates())
}
