package core

import (
	"context"
	"testing"

	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
)

// OnIteration must observe exactly the LACs that survive in the result:
// when an AccALS batch is rolled back, the undone applications must be
// invisible to the callback, and the SEALS fallback must not re-report an
// already-used iteration number. The sequence of reported iteration
// numbers has to be 1, 2, ..., Stats.Applied with no gaps or repeats.
func TestAccALSRollbackIterationNumbering(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowAccALS, Metric: metric.MSE, Threshold: 4 * R * R}
	opt.Patterns = 1024
	opt.Seed = 11
	opt.MaxIters = 30

	var iters []int
	hooks := Hooks{
		// A vanishing estimate-deviation tolerance forces every multi-LAC
		// batch to roll back to the single-LAC fallback.
		AccTol: 1e-15,
		OnIteration: func(iter int, chosen lac.NodeBest, bests []lac.NodeBest) {
			iters = append(iters, iter)
		},
	}
	res, err := RunContext(context.Background(), g, opt, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rollbacks == 0 {
		t.Fatal("test did not force a rollback; tighten AccTol or loosen the threshold")
	}
	if len(iters) != res.Stats.Applied {
		t.Errorf("callback fired %d times for %d applied LACs: %v", len(iters), res.Stats.Applied, iters)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Errorf("iteration numbers not gap-free and strictly increasing: %v", iters)
			break
		}
	}
}
