package repro

import (
	"io"
	"testing"

	"dpals/internal/gen"
)

// Incremental cut repair must cost less deterministic work than fresh
// recomputation over the same LAC sequence. The timed comparison is
// BenchmarkAblationCutUpdate.
func TestAblationCutUpdateFasterThanFresh(t *testing.T) {
	g := gen.MultU(10, 10)
	inc, fresh, avgSv := AblationCutUpdate(g, 20, 1)
	t.Logf("incremental work %d vs fresh %d (avg |S_v| = %.0f of %d nodes)", inc.Work, fresh.Work, avgSv, g.NumAnds())
	if inc.Work <= 0 || inc.Work >= fresh.Work {
		t.Errorf("incremental cut update work %d not below fresh recomputation work %d", inc.Work, fresh.Work)
	}
	if avgSv <= 0 || avgSv >= float64(g.NumAnds()) {
		t.Errorf("avg |S_v| = %v out of range", avgSv)
	}
}

// The partial CPM over N(S_cand) must cost less deterministic work than
// the full CPM. The timed comparison is BenchmarkAblationPartialCPM.
func TestAblationPartialCPMFasterThanFull(t *testing.T) {
	g := gen.MultU(10, 10)
	partial, full, closure := AblationPartialCPM(g, 60, 2048, 1)
	t.Logf("partial (M=60, |N(S)|=%d) work %d vs full %d", closure, partial.Work, full.Work)
	if partial.Work <= 0 || partial.Work >= full.Work {
		t.Errorf("partial CPM work %d not below full CPM work %d", partial.Work, full.Work)
	}
	if closure < 60 {
		t.Errorf("closure %d smaller than the target set", closure)
	}
}

func TestAblationMSweepRuns(t *testing.T) {
	b := gen.SmallSuite(true)[3] // sm9x8
	rows := AblationMSweep(b, []int{15, 60}, Config{Out: io.Discard, Patterns: 512, CapIters: 40})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Applied == 0 || r.ADP <= 0 || r.ADP > 1.01 {
			t.Errorf("M=%d: applied=%d ADP=%v", r.M, r.Applied, r.ADP)
		}
	}
}

func TestAblationPatternsSweepRuns(t *testing.T) {
	b := gen.SmallSuite(true)[0] // c880
	rows := AblationPatternsSweep(b, []int{256, 1024}, Config{Out: io.Discard, CapIters: 40})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.TrainErr > r.Threshold {
			t.Errorf("patterns=%d: training error %v exceeds budget %v", r.Patterns, r.TrainErr, r.Threshold)
		}
		if r.ValidErr <= 0 {
			t.Errorf("patterns=%d: validation error %v", r.Patterns, r.ValidErr)
		}
	}
}

// BenchmarkAblationCutUpdate isolates §III-B: incremental disjoint-cut
// repair vs full recomputation over a sequence of LACs. speedup_x is
// fresh/incremental wall time, work_x the same ratio of work estimates.
func BenchmarkAblationCutUpdate(b *testing.B) {
	g := gen.MultU(10, 10)
	for i := 0; i < b.N; i++ {
		inc, fresh, avgSv := AblationCutUpdate(g, 20, 1)
		if inc.Time > 0 {
			b.ReportMetric(float64(fresh.Time)/float64(inc.Time), "speedup_x")
		}
		if inc.Work > 0 {
			b.ReportMetric(float64(fresh.Work)/float64(inc.Work), "work_x")
		}
		b.ReportMetric(avgSv, "avg_Sv_nodes")
	}
}

// BenchmarkAblationPartialCPM isolates §III-C: the partial CPM over
// N(S_cand) for M=60 vs the full CPM. speedup_x is full/partial wall
// time, work_x the same ratio of work estimates.
func BenchmarkAblationPartialCPM(b *testing.B) {
	g := gen.MultU(10, 10)
	for i := 0; i < b.N; i++ {
		partial, full, closure := AblationPartialCPM(g, 60, 2048, 1)
		if partial.Time > 0 {
			b.ReportMetric(float64(full.Time)/float64(partial.Time), "speedup_x")
		}
		if partial.Work > 0 {
			b.ReportMetric(float64(full.Work)/float64(partial.Work), "work_x")
		}
		b.ReportMetric(float64(closure), "closure_nodes")
	}
}
