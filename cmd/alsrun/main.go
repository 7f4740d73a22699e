// Command alsrun runs one approximate-logic-synthesis flow on a circuit.
//
// Usage:
//
//	alsrun -flow dpsa -metric mse -threshold 1e4 -o out.blif in.blif
//	alsrun -flow dp -metric er -threshold 0.01 -sasimi in.aag
//
// Input format is chosen by extension (.aag = ASCII AIGER, anything else =
// BLIF). When -threshold is not given, the paper's median threshold for
// the metric is used (R = 2^(POs/3): MED→R, MSE→R², ER→1%).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof-http serves the standard profiling endpoints
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"dpals"
	"dpals/internal/obs"
	"dpals/internal/par"
)

func main() {
	flowName := flag.String("flow", "dpsa", "flow: conventional, vecbee, accals, dp, dpsa")
	metricName := flag.String("metric", "mse", "error metric: er, mse, med, mhd, wce")
	threshold := flag.Float64("threshold", -1, "error budget (ER: fraction; MSE/MED: absolute; <0: paper median)")
	wceBound := flag.Uint64("wce-bound", 0, "worst-case error budget for -metric wce (SAT-certified on the result)")
	certEvery := flag.Int("cert-every", 0, "WCE: accepted LACs per SAT certification call (0 = default 8)")
	certConflicts := flag.Int64("cert-conflict-limit", 0, "WCE: SAT conflict cap per certification call (0 = unlimited)")
	patterns := flag.Int("patterns", 8192, "Monte-Carlo patterns")
	seed := flag.Int64("seed", 1, "simulation seed")
	threads := flag.Int("threads", 0, "analysis worker threads (<=0 = all CPUs, 1 = serial)")
	sasimi := flag.Bool("sasimi", false, "enable SASIMI signal-substitution LACs")
	depth := flag.Int("l", 0, "VECBEE depth limit (0 = exact)")
	out := flag.String("o", "", "output file (.blif or .aag); empty: no output written")
	maxIters := flag.Int("max-iters", 0, "cap on applied LACs (0 = unlimited)")
	timeLimit := flag.Duration("time-limit", 0, "wall-clock budget; on expiry the best-so-far circuit is written (0 = unlimited)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file (taken after the run)")
	statsOut := flag.String("stats", "", "write run statistics (step times, work counters, MTrace, reuse rate) as JSON to this file")
	traceOut := flag.String("trace", "", "record a span trace of the run and write it to this file (Chrome/Perfetto trace.json; .jsonl extension selects the flat JSONL event log)")
	metricsOut := flag.String("metrics", "", "sample engine and runtime metrics each iteration and write them as JSONL to this file")
	progress := flag.Bool("progress", false, "render a live progress line (iteration, gates, error, ETA) on stderr")
	pprofHTTP := flag.String("pprof-http", "", "serve net/http/pprof and /debug/obs (live span stack + metrics) on this address, e.g. :6060")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: alsrun [flags] <circuit.blif|circuit.aag>")
		flag.Usage()
		os.Exit(2)
	}

	c, err := load(flag.Arg(0))
	check(err)

	flow, err := dpals.ParseFlow(*flowName)
	check(err)
	m, err := dpals.ParseMetric(*metricName)
	check(err)
	thr := *threshold
	bound := *wceBound
	if m == dpals.WCE {
		if bound == 0 {
			// Default budget: the paper's reference error R = 2^(POs/3),
			// rounded down, at least 1 — the same median MED would use.
			bound = uint64(dpals.ReferenceError(c))
			if bound == 0 {
				bound = 1
			}
		}
		thr = float64(bound)
	} else if thr < 0 {
		R := dpals.ReferenceError(c)
		switch m {
		case dpals.ER:
			thr = 0.01
		case dpals.MSE:
			thr = R * R
		default:
			thr = R
		}
	}

	fmt.Printf("input : %s (%d PIs, %d POs, %d gates, depth %d)\n",
		flag.Arg(0), c.NumInputs(), c.NumOutputs(), c.NumGates(), c.Depth())
	fmt.Printf("flow  : %v  metric %v ≤ %g  patterns %d  threads %d\n", flow, m, thr, *patterns, par.Workers(*threads))

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		defer f.Close()
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	// Observability: a recording tracer when -trace or -pprof-http asks for
	// one, a metrics registry for -metrics/-pprof-http, a live progress line
	// for -progress. All hooks are nil-safe in the engine, so leaving them
	// out keeps the default run on the exact same code path.
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceOut != "" || *pprofHTTP != "" {
		tracer = obs.New()
		ctx = obs.WithTracer(ctx, tracer)
	}
	var mets *obs.Metrics
	if *metricsOut != "" || *pprofHTTP != "" {
		mets = obs.NewMetrics()
		ctx = obs.WithMetrics(ctx, mets)
	}
	var prog *obs.Progress
	if *progress {
		prog = obs.NewProgress(os.Stderr, 100*time.Millisecond)
		ctx = obs.WithProgress(ctx, prog)
	}
	if *pprofHTTP != "" {
		http.Handle("/debug/obs", obs.Handler(tracer, mets))
		go func() {
			if err := http.ListenAndServe(*pprofHTTP, nil); err != nil {
				fmt.Fprintln(os.Stderr, "alsrun: pprof server:", err)
			}
		}()
		fmt.Printf("pprof : http://%s/debug/pprof/ (+ /debug/obs)\n", *pprofHTTP)
	}

	// flushObs writes the trace and metrics files. It runs once, on whichever
	// exit path comes first — the normal end of the run or the hard-abort
	// signal path — so even an aborted run leaves truncated-but-parseable
	// artifacts (still-open spans are exported with their current duration).
	var flushOnce sync.Once
	flushObs := func() {
		flushOnce.Do(func() {
			prog.Done()
			if tracer != nil && *traceOut != "" {
				if err := writeTo(*traceOut, func(f io.Writer) error {
					if strings.HasSuffix(*traceOut, ".jsonl") {
						return tracer.WriteJSONL(f)
					}
					return tracer.WritePerfetto(f)
				}); err != nil {
					fmt.Fprintln(os.Stderr, "alsrun: trace:", err)
				}
			}
			if mets != nil && *metricsOut != "" {
				if err := writeTo(*metricsOut, mets.WriteJSONL); err != nil {
					fmt.Fprintln(os.Stderr, "alsrun: metrics:", err)
				}
			}
		})
	}

	// SIGINT/SIGTERM cancel the run cooperatively: the synthesis stops
	// within one analysis wave and the best-so-far circuit and stats are
	// still written below. A second signal aborts immediately — but still
	// flushes the observability artifacts first.
	ctx, cancel := context.WithCancel(ctx)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "alsrun: interrupted — stopping at the next checkpoint (press again to abort)")
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "alsrun: aborted")
		flushObs()
		os.Exit(130)
	}()

	opt := dpals.Options{
		Flow: flow, Metric: m, Threshold: thr,
		Patterns: *patterns, Seed: *seed, Threads: *threads,
		UseConstLACs: true, UseSASIMILACs: *sasimi,
		DepthLimit: *depth, MaxIters: *maxIters,
		TimeLimit: *timeLimit,
	}
	if m == dpals.WCE {
		opt.WCEBound = bound
		opt.CertEvery = *certEvery
		opt.CertConflictLimit = *certConflicts
	} else if *wceBound != 0 {
		check(fmt.Errorf("-wce-bound requires -metric wce"))
	}
	res, err := dpals.ApproximateContext(ctx, c, opt)
	check(err)
	signal.Stop(sigc)
	cancel()
	flushObs()

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		check(err)
		runtime.GC() // materialize the retained heap before the snapshot
		check(pprof.WriteHeapProfile(f))
		f.Close()
	}
	if *statsOut != "" {
		check(writeStats(*statsOut, flow, m, thr, res))
	}

	fmt.Printf("result: %d gates (%.1f%% of original), error %g\n",
		res.Circuit.NumGates(), 100*float64(res.Circuit.NumGates())/float64(c.NumGates()), res.Error)
	fmt.Printf("        area ratio %.1f%%  delay ratio %.1f%%  ADP ratio %.1f%%\n",
		100*res.AreaRatio, 100*res.DelayRatio, 100*res.ADPRatio)
	fmt.Printf("        %d LACs applied (%d comprehensive + %d incremental analyses, %d rollbacks) in %v\n",
		res.Stats.Applied, res.Stats.Comprehensive, res.Stats.Incremental, res.Stats.Rollbacks, res.Stats.Runtime)
	if m == dpals.WCE {
		fmt.Printf("        certified WCE ≤ %d (budget %d): %d SAT calls, %d cex-cache hits, %d rollbacks, %v certifying\n",
			res.Stats.CertifiedWCE, bound, res.Stats.CertCalls, res.Stats.CertCexHits,
			res.Stats.CertRollbacks, res.Stats.CertTime)
	}
	if res.Stats.StopReason == dpals.StopCancelled || res.Stats.StopReason == dpals.StopDeadline {
		fmt.Printf("        stopped early (%s): result is the valid best-so-far circuit\n", res.Stats.StopReason)
	}
	fmt.Printf("        step times: cuts %v, CPM %v, evaluation %v\n",
		res.Stats.CutTime, res.Stats.CPMTime, res.Stats.EvalTime)
	if res.Stats.Phase1Time+res.Stats.Phase2Time > 0 {
		fmt.Printf("        phase times: phase 1 %v, phase 2 %v\n",
			res.Stats.Phase1Time, res.Stats.Phase2Time)
	}
	if res.Stats.CPMRowsReused+res.Stats.CPMRowsRecomputed > 0 {
		fmt.Printf("        CPM rows: %d reused, %d recomputed (%.1f%% reuse)\n",
			res.Stats.CPMRowsReused, res.Stats.CPMRowsRecomputed, 100*res.Stats.ReuseRate())
	}
	if res.Stats.WarmComprehensive > 0 {
		fmt.Printf("        warm start: %d/%d comprehensive passes warm (%.1f%% phase-1 row reuse, %d memo hits)\n",
			res.Stats.WarmComprehensive, res.Stats.Comprehensive,
			100*res.Stats.Phase1ReuseRate(), res.Stats.EvalMemoHits)
	}
	if res.Stats.Pool.Gets > 0 {
		fmt.Printf("        CPM pool: %d gets, %d reused (%.1f%% hit rate), high water %d\n",
			res.Stats.Pool.Gets, res.Stats.Pool.Reuses, 100*res.Stats.Pool.HitRate(), res.Stats.Pool.HighWater)
	}
	if tracer != nil && *traceOut != "" {
		fmt.Printf("trace : %s\n", *traceOut)
		if err := tracer.WriteSummary(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "alsrun: trace summary:", err)
		}
	}
	if mets != nil && *metricsOut != "" {
		fmt.Printf("metrics: %s\n", *metricsOut)
		if err := mets.WriteSummary(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "alsrun: metrics summary:", err)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		defer f.Close()
		switch {
		case strings.HasSuffix(*out, ".aag"):
			check(res.Circuit.WriteAIGER(f))
		case strings.HasSuffix(*out, ".aig"):
			check(res.Circuit.WriteAIGERBinary(f))
		case strings.HasSuffix(*out, ".v"):
			check(res.Circuit.WriteVerilog(f))
		default:
			check(res.Circuit.WriteBLIF(f))
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// runStats is the JSON schema written by -stats: run configuration, final
// quality, the run's Stats through their own JSON tags (step and phase
// times, deterministic work profile, CPM reuse, MTrace, certification),
// and the rates derived from them.
type runStats struct {
	Flow      string  `json:"flow"`
	Metric    string  `json:"metric"`
	Threshold float64 `json:"threshold"`
	Error     float64 `json:"error"`
	Gates     int     `json:"gates"`
	AreaRatio float64 `json:"area_ratio"`
	ADPRatio  float64 `json:"adp_ratio"`

	dpals.Stats

	ReuseRate       float64 `json:"reuse_rate"`
	Phase1ReuseRate float64 `json:"phase1_reuse_rate,omitempty"`
	PoolGets        int64   `json:"pool_gets,omitempty"`
	PoolReuses      int64   `json:"pool_reuses,omitempty"`
	PoolHitRate     float64 `json:"pool_hit_rate,omitempty"`
}

func writeStats(path string, flow dpals.Flow, m dpals.Metric, thr float64, res *dpals.Result) error {
	s := runStats{
		Flow:      flow.String(),
		Metric:    m.String(),
		Threshold: thr,
		Error:     res.Error,
		Gates:     res.Circuit.NumGates(),
		AreaRatio: res.AreaRatio,
		ADPRatio:  res.ADPRatio,

		Stats: res.Stats,

		ReuseRate:       res.Stats.ReuseRate(),
		Phase1ReuseRate: res.Stats.Phase1ReuseRate(),
		PoolGets:        res.Stats.Pool.Gets,
		PoolReuses:      res.Stats.Pool.Reuses,
		PoolHitRate:     res.Stats.Pool.HitRate(),
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeTo creates path, runs write against it, and closes it, reporting the
// first error. Used by the observability flush so the artifact is complete
// on disk before the process exits.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func load(path string) (*dpals.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".aag") {
		return dpals.ReadAIGER(f)
	}
	return dpals.ReadBLIF(f)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "alsrun:", err)
		os.Exit(1)
	}
}
