package main

import (
	"encoding/json"
	"os"
	"testing"

	"dpals"
)

// smoke is a reduced-size run: small circuits and a short window.
func smoke(corrupt func(*dpals.Circuit) *dpals.Circuit, trace bool) config {
	return config{seed: 3, seconds: 0.2, trace: trace, small: true, corrupt: corrupt}
}

// specMetrics reads the metric names and units BENCHMARK.json declares.
func specMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestEveryMetricEmitted runs every workload at reduced size, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// declares for that mode, with their units, and that no job failed.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layer := specMetrics(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			res, err := run(w, smoke(nil, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d jobs failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w, trace, name, m.Unit, unit)
				}
			}
			if !trace && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v with no failures", w, res.Metrics["ok_frac"].Value)
			}
		}
	}
}

// invertLastPO rewires the last output of c to the complement of the
// signal that feeds it: a wrong circuit every check must reject.
func invertLastPO(c *dpals.Circuit) *dpals.Circuit {
	g := c.Graph().Clone()
	last := g.NumPOs() - 1
	g.SetPO(last, g.PO(last).Not())
	return dpals.FromGraph(g)
}

// TestCorruptedResultCounted shows that the checks bite: with one output
// of every returned circuit rewired, every workload counts failed jobs
// and reports ok_frac below 1.
func TestCorruptedResultCounted(t *testing.T) {
	for _, w := range workloadNames() {
		res, err := run(w, smoke(invertLastPO, false))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted results passed: correct=%v, %d of %d jobs failed", w, res.Correct, res.Failed, res.Attempted)
		}
		if f := res.Metrics["ok_frac"].Value; f >= 1 {
			t.Errorf("%s: ok_frac %v despite corrupted results", w, f)
		}
	}
}

// TestMergeCountsFingerprintMismatch checks how the results of worker
// processes combine: counts add up, metrics take the median, and a job
// whose fingerprint differs between workers counts as failed.
func TestMergeCountsFingerprintMismatch(t *testing.T) {
	worker := func(wall float64, fp string) *result {
		return &result{Correct: true, Attempted: 2, Metrics: map[string]metricValue{
			"wall_s": {Value: wall, Unit: "s"}, "ok_frac": {Value: 1, Unit: "ratio"},
		}, Fingerprints: map[string]string{"a": "same", "b": fp}}
	}
	m := merge([]*result{worker(3, "x"), worker(1, "x"), worker(2, "x")})
	if !m.Correct || m.Attempted != 6 || m.Failed != 0 || m.Metrics["wall_s"].Value != 2 {
		t.Errorf("agreeing workers: %+v", m)
	}
	m = merge([]*result{worker(3, "x"), worker(1, "y"), worker(2, "x")})
	if m.Correct || m.Failed != 1 || m.Metrics["ok_frac"].Value != 5.0/6 {
		t.Errorf("disagreeing workers: %+v", m)
	}
	if m.Fingerprints != nil {
		t.Errorf("merged result carries fingerprints: %v", m.Fingerprints)
	}
}
