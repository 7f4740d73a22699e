package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"dpals"
	"dpals/internal/aiger"
	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/equiv"
	"dpals/internal/lac"
	"dpals/internal/metric"
	"dpals/internal/sim"
	"dpals/internal/techmap"
)

// probeReps is how often each layer probe repeats; the median counts.
const probeReps = 3

// coreLayer fills the core.* metrics from the engine's own Stats of
// traced passes: step and phase times as the median over passes of their
// per-pass sums, deterministic counters as exact per-pass sums.
func coreLayer(layer map[string]float64, passes []libPass) {
	times := map[string][]float64{}
	for _, p := range passes {
		sum := map[string]float64{}
		for _, r := range p.res {
			if r == nil {
				continue
			}
			sum["core.eval_ms"] += ms(r.Stats.EvalTime)
			sum["core.cpm_ms"] += ms(r.Stats.CPMTime)
			sum["core.cuts_ms"] += ms(r.Stats.CutTime)
			sum["core.phase2_ms"] += ms(r.Stats.Phase2Time)
			sum["core.cert_ms"] += ms(r.Stats.CertTime)
		}
		for _, a := range p.alloc {
			sum["core.alloc_mb"] += a
		}
		for k, v := range sum {
			times[k] = append(times[k], v)
		}
	}
	for _, k := range []string{"core.eval_ms", "core.cpm_ms", "core.cuts_ms", "core.phase2_ms", "core.cert_ms", "core.alloc_mb"} {
		layer[k] = median(times[k])
	}

	var n struct {
		memo, calls, rollbacks, cuts, cpm, eval, mtrace, comp, inc, applied int64
		reused, recomputed, p1reused, p1recomputed                          int64
		pool                                                                bitvec.PoolStats
	}
	for _, r := range passes[len(passes)-1].res {
		if r == nil {
			continue
		}
		s := r.Stats
		n.memo += s.EvalMemoHits
		n.calls += int64(s.CertCalls)
		n.rollbacks += int64(s.CertRollbacks)
		n.cuts += s.CutWork
		n.cpm += s.CPMWork
		n.eval += s.EvalWork
		n.mtrace += int64(len(s.MTrace))
		n.comp += int64(s.Comprehensive)
		n.inc += int64(s.Incremental)
		n.applied += int64(s.Applied)
		n.reused += s.CPMRowsReused
		n.recomputed += s.CPMRowsRecomputed
		n.p1reused += s.Phase1RowsReused
		n.p1recomputed += s.Phase1RowsRecomputed
		n.pool.Gets += s.Pool.Gets
		n.pool.Reuses += s.Pool.Reuses
	}
	layer["core.memo_hits"] = float64(n.memo)
	layer["core.cert_calls"] = float64(n.calls)
	layer["core.cert_rollbacks"] = float64(n.rollbacks)
	layer["core.work_cuts"] = float64(n.cuts)
	layer["core.work_cpm"] = float64(n.cpm)
	layer["core.work_eval"] = float64(n.eval)
	layer["core.mtrace_len"] = float64(n.mtrace)
	layer["core.comprehensive"] = float64(n.comp)
	layer["core.incremental"] = float64(n.inc)
	layer["core.applied"] = float64(n.applied)
	layer["core.rows_reused_frac"] = frac(n.reused, n.reused+n.recomputed)
	layer["core.phase1_reuse_frac"] = frac(n.p1reused, n.p1reused+n.p1recomputed)
	layer["core.pool_reuse_frac"] = frac(n.pool.Reuses, n.pool.Gets)
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spanLog is the benchmark's own trace: the durations of the calls it
// makes into each layer, by span name.
type spanLog map[string][]time.Duration

func (s spanLog) time(name string, fn func()) {
	t := time.Now()
	fn()
	s[name] = append(s[name], time.Since(t))
}

// ms is the median duration of a span name, in ms.
func (s spanLog) ms(name string) float64 {
	xs := make([]float64, len(s[name]))
	for i, d := range s[name] {
		xs[i] = ms(d)
	}
	return median(xs)
}

// probeLayers times the public functions of each analysis layer from
// outside, on each distinct circuit of the jobs with the options of its
// first job, and adds the per-circuit figures up. Each step runs at
// Threads 1 and 2, which gives the par.* speedups; the *_ms figures are
// those at the job's own thread count. approx holds the jobs' results,
// for the SAT check of WCE jobs.
func probeLayers(layer map[string]float64, jobs []job, approx []*dpals.Result) {
	sum := map[string]float64{}
	probed := map[*dpals.Circuit]bool{}
	for i, j := range jobs {
		if probed[j.circuit] {
			continue
		}
		probed[j.circuit] = true
		var res *dpals.Circuit
		if approx[i] != nil {
			res = approx[i].Circuit
		}
		for k, v := range probeJob(j, res) {
			sum[k] += v
		}
	}
	for _, k := range []string{"sim.new_ms", "sim.resim_ms", "cut.build_ms", "cut.work", "cpm.build_ms",
		"cpm.cache_rebuild_ms", "cpm.work", "cpm.rows", "lac.eval_ms", "lac.eval_work", "lac.candidates",
		"techmap.map_ms", "aiger.read_ms", "aiger.write_ms", "aig.digest_ms", "equiv.check_ms"} {
		layer[k] = sum[k]
	}
	layer["par.cut_speedup"] = sum["cut.t1"] / sum["cut.t2"]
	layer["par.cpm_speedup"] = sum["cpm.t1"] / sum["cpm.t2"]
	layer["par.eval_speedup"] = sum["lac.t1"] / sum["lac.t2"]
	layer["lac.ns_per_candidate"] = 0
	if sum["lac.candidates"] > 0 {
		layer["lac.ns_per_candidate"] = sum["lac.eval_ms"] * 1e6 / sum["lac.candidates"]
	}
}

// probeJob runs one job's analysis pipeline step by step through the
// layers' public functions: simulation, disjoint cuts, the CPM (direct and
// through the incremental cache), LAC evaluation of every AND node, then
// mapping, AIGER I/O, the structural digest and, for WCE jobs, one SAT
// check of the synthesised circuit against the bound.
func probeJob(j job, approx *dpals.Circuit) map[string]float64 {
	o := j.opt.Resolved()
	g := j.circuit.Graph().Clone()
	weights := metric.Weights(j.circuit.Weights())
	if weights == nil {
		weights = metric.UnsignedWeights(g.NumPOs())
	}
	var targets []int32
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			targets = append(targets, v)
		}
	}
	lib := techmap.GenericLibrary()
	sp := spanLog{}
	out := map[string]float64{}
	for r := 0; r < probeReps; r++ {
		var s *sim.Sim
		sp.time("sim.new", func() { s = sim.New(g, sim.Options{Patterns: o.Patterns, Seed: o.Seed, Threads: o.Threads}) })
		sp.time("sim.resim", s.Resimulate)
		exact := make([]bitvec.Vec, g.NumPOs())
		for i := range exact {
			exact[i] = bitvec.NewWords(s.Words())
			s.POVal(i, exact[i])
		}
		st := metric.NewState(metric.Kind(o.Metric), exact, weights, s.Patterns())
		gen := lac.NewGenerator(g, s, lac.Options{Constants: o.UseConstLACs, SASIMI: o.UseSASIMILACs, MaxPerNode: o.MaxLACsPerNode})
		var cuts *cut.Set
		for _, th := range []int{1, 2} {
			var res *cpm.Result
			var bests []lac.NodeBest
			var work int64
			sp.time(fmt.Sprint("cut.t", th), func() { cuts = cut.NewSet(g, th) })
			sp.time(fmt.Sprint("cpm.t", th), func() { res = cpm.BuildDisjoint(g, s, cuts, nil, th) })
			sp.time(fmt.Sprint("lac.t", th), func() { bests, work = lac.EvaluateTargets(gen, res, st, targets, th) })
			out["cut.work"], out["cpm.work"], out["lac.eval_work"] = float64(cuts.Work()), float64(res.Work), float64(work)
			cands := 0
			for _, b := range bests {
				cands += b.N
			}
			out["lac.candidates"] = float64(cands)
		}
		var upd cpm.Update
		sp.time("cpm.cache_rebuild", func() { upd = cpm.NewCache(g, s).Rebuild(cuts, o.Threads) })
		out["cpm.rows"] = float64(upd.Recomputed)
		sp.time("techmap.map", func() { techmap.Map(g, lib) })
		// The probes only time these calls; the checks of the synthesised
		// results verify what they compute, so their results are dropped.
		var buf bytes.Buffer
		sp.time("aiger.write", func() { _ = aiger.Write(&buf, g) })
		sp.time("aiger.read", func() { _, _ = aiger.Read(bytes.NewReader(buf.Bytes())) })
		sp.time("aig.digest", func() { g.StructuralDigest() })
		if o.Metric == dpals.WCE && approx != nil {
			sp.time("equiv.check", func() { _, _, _ = equiv.WCEAtMost(g, approx.Graph(), o.WCEBound) })
		}
	}
	th := fmt.Sprint(o.Threads)
	for _, k := range []string{"cut.t1", "cut.t2", "cpm.t1", "cpm.t2", "lac.t1", "lac.t2"} {
		out[k] = sp.ms(k)
	}
	out["sim.new_ms"] = sp.ms("sim.new")
	out["sim.resim_ms"] = sp.ms("sim.resim")
	out["cut.build_ms"] = sp.ms("cut.t" + th)
	out["cpm.build_ms"] = sp.ms("cpm.t" + th)
	out["lac.eval_ms"] = sp.ms("lac.t" + th)
	out["cpm.cache_rebuild_ms"] = sp.ms("cpm.cache_rebuild")
	out["techmap.map_ms"] = sp.ms("techmap.map")
	out["aiger.write_ms"] = sp.ms("aiger.write")
	out["aiger.read_ms"] = sp.ms("aiger.read")
	out["aig.digest_ms"] = sp.ms("aig.digest")
	out["equiv.check_ms"] = sp.ms("equiv.check")
	return out
}

// zeroServer sets the server.* metrics of a workload that runs no server.
func zeroServer(layer map[string]float64) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "server.") {
			layer[d.name] = 0
		}
	}
}
