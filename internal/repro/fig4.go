package repro

import (
	"context"
	"dpals/internal/core"
	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
)

// Fig4Row holds the candidate-set hit rates T_k/k of one circuit for
// k = 10, 20, …, 60 (paper Fig. 4).
type Fig4Row struct {
	Circuit string
	Rate    [6]float64 // index i: k = 10(i+1)
	Ran     int        // iterations actually observed (flow may stop early)
}

// Fig4 reruns the paper's motivating experiment: run the conventional flow,
// form the candidate set S from the top-60 nodes (by smallest error
// increase) at the end of iteration 1, then measure how many of the next k
// optimal choices fall inside S.
func Fig4(cfg Config) []Fig4Row {
	suite := gen.SmallSuite(cfg.Scaled)
	if cfg.Quick {
		suite = quickSubset(suite)
	}
	const setSize = 60
	cfg.printf("FIG. 4 — fraction of the next k optimal choices contained in the top-%d candidate set (MSE, patterns=%d)\n",
		setSize, cfg.patterns())
	cfg.printf("%-10s |", "Circuit")
	for k := 10; k <= 60; k += 10 {
		cfg.printf(" k=%-4d", k)
	}
	cfg.printf("\n")

	var rows []Fig4Row
	for _, b := range suite {
		thr := thresholds(metric.MSE, b.Graph.NumPOs())[2] // generous: need 61 iterations
		opt := core.Options{
			Flow: core.FlowConventional, Metric: metric.MSE, Threshold: thr,
			Patterns: cfg.patterns(), Seed: cfg.seed(), Threads: cfg.threads(),
			UseConstLACs: true, UseSASIMILACs: true,
			MaxIters: 61,
		}

		inSet := map[int32]bool{}
		hits := 0
		row := Fig4Row{Circuit: b.PaperName}
		onIter := func(iter int, chosen lac.NodeBest, bests []lac.NodeBest) {
			if iter == 1 {
				for _, nb := range bests {
					if nb.Node == chosen.Node {
						continue
					}
					inSet[nb.Node] = true
					if len(inSet) == setSize {
						break
					}
				}
				return
			}
			k := iter - 1 // 1-based count of post-selection iterations
			if inSet[chosen.Node] {
				hits++
			}
			row.Ran = k
			if k%10 == 0 && k/10 <= 6 {
				row.Rate[k/10-1] = float64(hits) / float64(k)
			}
		}
		if _, err := core.RunContext(context.Background(), b.Graph, opt, core.Hooks{OnIteration: onIter}); err != nil {
			panic("repro fig4: " + err.Error())
		}
		// Fill trailing entries when the flow stopped early: carry the
		// final observed rate.
		last := 0.0
		if row.Ran > 0 {
			last = float64(hits) / float64(row.Ran)
		}
		for i := range row.Rate {
			if 10*(i+1) > row.Ran {
				row.Rate[i] = last
			}
		}
		rows = append(rows, row)
		cfg.printf("%-10s |", row.Circuit)
		for _, r := range row.Rate {
			cfg.printf(" %5.1f%%", 100*r)
		}
		cfg.printf("   (observed %d iters)\n", row.Ran)
	}
	return rows
}
