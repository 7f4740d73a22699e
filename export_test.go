package dpals

import (
	"context"

	"dpals/internal/core"
)

// ApproximateRebuild is Approximate with the engine's reuse layers
// switched off: the CPM cache recomputes every row it is asked for, and
// there is no cross-round warm start, so every analysis recomputes from
// scratch while charging the cached run's work. It is the bit-identical
// reference BenchmarkDualPhase times the reuse against.
func ApproximateRebuild(c *Circuit, opt Options) (*Result, error) {
	return approximate(context.Background(), c, opt, core.Hooks{NoCPMCache: true, NoWarmStart: true})
}
