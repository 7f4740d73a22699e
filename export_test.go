package dpals

import (
	"context"

	"dpals/internal/core"
)

// ApproximateRebuild is Approximate with the engine's reuse layers
// switched off — no incremental CPM cache and no cross-round warm start,
// so every analysis rebuilds from scratch. It is the bit-identical
// reference BenchmarkDualPhase times the reuse against.
func ApproximateRebuild(c *Circuit, opt Options) (*Result, error) {
	return approximate(context.Background(), c, opt, core.Hooks{NoCPMCache: true, NoWarmStart: true})
}
