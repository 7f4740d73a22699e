package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dpals"
	"dpals/internal/obs"
)

// job is one synthesis call of a workload.
type job struct {
	key     string // identity within the workload, for fingerprints
	circuit *dpals.Circuit
	opt     dpals.Options
}

// libSpec describes a workload that calls the library directly.
type libSpec struct {
	// jobs builds the job list of one pass from the run's seed.
	jobs func(cfg config) ([]job, error)
	// twin reruns the first job once at Threads 1 after the timed window,
	// in the first worker process only; its fingerprint must match the
	// timed runs'.
	twin bool
}

// subSeed derives the pattern seed of the i-th job of a pass from the
// run's seed; it is never 0, which the library reads as its default seed.
func subSeed(seed int64, i int) int64 { return seed*16 + int64(i) + 1 }

// mseVecmul is the paper's large-circuit setting: numeric scoring, CPM
// region simulation and the parallel pipeline do most of the work. A pass
// runs the circuit at two pattern seeds.
var mseVecmul = libSpec{twin: true, jobs: func(cfg config) ([]job, error) {
	d, w := 4, 6
	if cfg.small {
		d, w = 2, 3
	}
	c, err := loadCircuit(dpals.NewVecMul(d, w))
	if err != nil {
		return nil, err
	}
	r := dpals.ReferenceError(c)
	var jobs []job
	for k := 0; k < 2; k++ {
		seed := subSeed(cfg.seed, k)
		jobs = append(jobs, job{
			key:     fmt.Sprintf("vecmul%dx%d/seed%d", d, w, seed),
			circuit: c,
			opt: dpals.Options{
				Flow: dpals.DPSA, Metric: dpals.MSE, Threshold: r * r,
				Patterns: 1024, Seed: seed, Threads: 2, UseConstLACs: true,
			},
		})
	}
	return jobs, nil
}}

// erSasimi scores by mismatch over four suite circuits with SASIMI
// substitutions: candidate generation, the LAC memo and phase 2 matter,
// the numeric kernel never runs. A pass runs every circuit at four
// pattern seeds, which evens out how much a seed shortens or lengthens a
// run.
var erSasimi = libSpec{jobs: func(cfg config) ([]job, error) {
	names := []string{"c880", "c1908", "c3540", "sm9x8"}
	patterns, seeds := 1024, 4
	if cfg.small {
		names, patterns, seeds = names[:1], 512, 1
	}
	suite := map[string]*dpals.Circuit{}
	for _, b := range dpals.BenchmarkSuite(true) {
		suite[b.Name] = b.Circuit
	}
	var jobs []job
	for _, name := range names {
		if suite[name] == nil {
			return nil, fmt.Errorf("suite has no circuit %s", name)
		}
		c, err := loadCircuit(suite[name])
		if err != nil {
			return nil, err
		}
		for k := 0; k < seeds; k++ {
			seed := subSeed(cfg.seed, k)
			jobs = append(jobs, job{key: fmt.Sprintf("%s/seed%d", name, seed), circuit: c, opt: dpals.Options{
				Flow: dpals.DPSA, Metric: dpals.ER, Threshold: 0.05,
				Patterns: patterns, Seed: seed, Threads: 1,
				UseConstLACs: true, UseSASIMILACs: true,
			}})
		}
	}
	return jobs, nil
}}

// wceMult runs SAT-certified worst-case-error synthesis, where
// certification does most of the work and eval/CPM little.
var wceMult = libSpec{jobs: func(cfg config) ([]job, error) {
	n, m, bound := 5, 6, uint64(64)
	if cfg.small {
		n, m, bound = 3, 3, 4
	}
	c, err := loadCircuit(dpals.NewMultiplier(n, m, false))
	if err != nil {
		return nil, err
	}
	return []job{{
		key:     fmt.Sprintf("mult%dx%d", n, m),
		circuit: c,
		opt: dpals.Options{
			Flow: dpals.DPSA, Metric: dpals.WCE, WCEBound: bound, CertConflictLimit: 200000,
			Patterns: 4096, Seed: subSeed(cfg.seed, 0), Threads: 1, UseConstLACs: true,
		},
	}}, nil
}}

// libPass is what one pass over a library workload's jobs produced.
type libPass struct {
	dur   time.Duration   // summed call time of the pass's jobs
	res   []*dpals.Result // per job; nil where the job failed
	alloc []float64       // per-job bytes allocated, MB (traced passes)
}

// runPass calls the library once per job, timing only the calls, and
// checks every result after its call returns.
func runPass(rep *report, jobs []job, traced bool) libPass {
	var p libPass
	for _, j := range jobs {
		ctx := context.Background()
		var m0, m1 runtime.MemStats
		if traced {
			ctx = obs.WithMetrics(obs.WithTracer(ctx, obs.New()), obs.NewMetrics())
			runtime.ReadMemStats(&m0)
		}
		t := time.Now()
		res, err := dpals.ApproximateContext(ctx, j.circuit, j.opt)
		d := time.Since(t)
		if traced {
			runtime.ReadMemStats(&m1)
			p.alloc = append(p.alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		}
		p.dur += d
		if !rep.checkLibrary(j, res, err) {
			res = nil
		}
		p.res = append(p.res, res)
	}
	return p
}

// checkLibrary counts one attempted job and checks its result
// independently of the engine; it reports whether the job passed.
func (c *checker) checkLibrary(j job, res *dpals.Result, err error) bool {
	c.attempted++
	if err != nil {
		c.fail(j.key, "run error: %v", err)
		return false
	}
	if !completed(res.Stats.StopReason) {
		c.fail(j.key, "stopped early: %v", res.Stats.StopReason)
		return false
	}
	approx := c.circuit(res.Circuit)
	aag, err := aigerBytes(approx)
	if err != nil {
		c.fail(j.key, "write AIGER: %v", err)
		return false
	}
	ok := c.fingerprint(j.key, fingerprint(aag, &res.Stats))
	if err := verifyError(j.circuit, approx, j.opt, res.Error, res.Stats.CertifiedWCE); err != nil {
		c.fail(j.key, "%v", err)
		ok = false
	}
	return ok
}

// runLibrary runs a library workload: set-up, the timed untraced passes,
// the set-up timing, in a traced run the traced passes and layer probes,
// then the twin.
func runLibrary(cfg config, spec libSpec) (*report, error) {
	rep := newReport(cfg)
	build := func() ([]job, error) { return spec.jobs(cfg) }
	jobs, err := build()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	window := cfg.window()
	var last libPass // only the last pass is kept, so results do not pile up in memory
	untraced, err := timePasses(window, func() (time.Duration, error) {
		last = runPass(rep, jobs, false)
		return last.dur, nil
	})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.e2e["wall_s"] = median(untraced)
	rep.e2e["peak_rss_mb"] = rss
	rep.e2e["area_ratio"], rep.e2e["adp_ratio"] = quality(last.res)
	if err := timeSetup(rep, build); err != nil {
		return nil, err
	}

	if cfg.trace {
		var tpasses []libPass
		traced, err := timePasses(window, func() (time.Duration, error) {
			p := runPass(rep, jobs, true)
			tpasses = append(tpasses, p)
			return p.dur, nil
		})
		if err != nil {
			return nil, err
		}
		coreLayer(rep.layer, tpasses)
		probeLayers(rep.layer, jobs, tpasses[len(tpasses)-1].res)
		zeroServer(rep.layer)
		rep.layer["trace.overhead_s"] = median(traced) - median(untraced)
	}

	if spec.twin && cfg.child <= 1 {
		j := jobs[0]
		j.opt.Threads = 1
		res, err := dpals.Approximate(j.circuit, j.opt)
		rep.checkLibrary(j, res, err)
	}
	return rep, nil
}

// quality is the geometric mean area and ADP ratio of a pass's results,
// over the jobs that passed their checks (0 when none did).
func quality(res []*dpals.Result) (area, adp float64) {
	var as, ds []float64
	for _, r := range res {
		if r != nil {
			as = append(as, r.AreaRatio)
			ds = append(ds, r.ADPRatio)
		}
	}
	return geomean(as), geomean(ds)
}
