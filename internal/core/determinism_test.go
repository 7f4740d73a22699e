package core

import (
	"context"
	"reflect"
	"testing"

	"dpals/internal/gen"
	"dpals/internal/metric"
)

// TestFlowsDeterministicAcrossThreads is the contract behind the parallel
// analysis pipeline: every flow must produce bit-identical results for every
// Threads value. Threads=8 on a smaller GOMAXPROCS still exercises the
// concurrent code paths (package par never reduces the worker count to the
// CPU count), so the comparison is meaningful on any machine. The ER
// cases cover SASIMI generation and the per-worker row binding of ER
// scoring.
func TestFlowsDeterministicAcrossThreads(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	er := func(o *Options) { o.Metric, o.Threshold = metric.ER, 0.05 }

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
		{"DP/ER", FlowDP, er, Hooks{}},
		{"DP-SA/ER", FlowDPSA, er, Hooks{}},
	}
	for _, tc := range flows {
		t.Run(tc.name, func(t *testing.T) {
			run := func(threads int) *Result {
				opt := Options{Flow: tc.flow, Metric: metric.MSE, Threshold: R * R}
				opt.Patterns = 1024
				opt.Seed = 7
				opt.Threads = threads
				opt.MaxIters = 25
				opt.UseConstLACs = true
				opt.UseSASIMILACs = true
				if tc.tweak != nil {
					tc.tweak(&opt)
				}
				res, err := RunContext(context.Background(), g, opt, tc.hooks)
				if err != nil {
					t.Fatalf("Run(threads=%d): %v", threads, err)
				}
				return res
			}
			serial := run(1)
			parallel := run(8)
			if serial.Stats.Applied == 0 {
				t.Fatal("no LAC applied; the comparison is vacuous")
			}
			if serial.Error != parallel.Error {
				t.Errorf("Error: serial %v, parallel %v", serial.Error, parallel.Error)
			}
			if serial.Stats.Applied != parallel.Stats.Applied {
				t.Errorf("Applied: serial %d, parallel %d", serial.Stats.Applied, parallel.Stats.Applied)
			}
			// DP-SA's §III-D parameter tuning profiles the steps with
			// the deterministic work estimate (not wall-clock), so
			// even its phase partition and work counters must agree.
			if serial.Stats.Comprehensive != parallel.Stats.Comprehensive || serial.Stats.Incremental != parallel.Stats.Incremental {
				t.Errorf("analyses: serial %d+%d, parallel %d+%d",
					serial.Stats.Comprehensive, serial.Stats.Incremental, parallel.Stats.Comprehensive, parallel.Stats.Incremental)
			}
			if serial.Stats.Rollbacks != parallel.Stats.Rollbacks {
				t.Errorf("Rollbacks: serial %d, parallel %d", serial.Stats.Rollbacks, parallel.Stats.Rollbacks)
			}
			if sn, pn := normalizeStats(serial.Stats), normalizeStats(parallel.Stats); !reflect.DeepEqual(sn, pn) {
				t.Errorf("Stats: serial %+v, parallel %+v", sn, pn)
			}
			if sn, pn := serial.Graph.NumAnds(), parallel.Graph.NumAnds(); sn != pn {
				t.Errorf("NumAnds: serial %d, parallel %d", sn, pn)
			}
		})
	}
}
