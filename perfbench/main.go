// Command perfbench is the repository's benchmark. It runs one named
// workload of the dpals library for a fixed time, checks every result
// independently, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	bash perfbench/run.sh --workload mse-vecmul --seed 1 --seconds 12 --trace 0
//
// --trace 0 times the workload untraced and prints the end-to-end metrics;
// --trace 1 is a separate run that repeats the workload with tracing on,
// probes each layer from outside and prints the per-layer metrics. The
// workloads, metrics and their meaning are listed in BENCHMARK.json at the
// root of the repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"dpals"
)

// metricDef names one emitted metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"area_ratio", "ratio"},
	{"adp_ratio", "ratio"},
	{"ok_frac", "ratio"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"core.eval_ms", "ms"},
	{"core.cpm_ms", "ms"},
	{"core.cuts_ms", "ms"},
	{"core.phase2_ms", "ms"},
	{"core.cert_ms", "ms"},
	{"core.rows_reused_frac", "ratio"},
	{"core.phase1_reuse_frac", "ratio"},
	{"core.memo_hits", "count"},
	{"core.cert_calls", "count"},
	{"core.cert_rollbacks", "count"},
	{"core.work_cuts", "wordops"},
	{"core.work_cpm", "wordops"},
	{"core.work_eval", "wordops"},
	{"core.mtrace_len", "count"},
	{"core.comprehensive", "count"},
	{"core.incremental", "count"},
	{"core.applied", "count"},
	{"core.alloc_mb", "MB"},
	{"core.pool_reuse_frac", "ratio"},
	{"lac.eval_ms", "ms"},
	{"lac.ns_per_candidate", "ns"},
	{"lac.eval_work", "wordops"},
	{"lac.candidates", "count"},
	{"cpm.build_ms", "ms"},
	{"cpm.cache_rebuild_ms", "ms"},
	{"cpm.work", "wordops"},
	{"cpm.rows", "count"},
	{"cut.build_ms", "ms"},
	{"cut.work", "wordops"},
	{"sim.new_ms", "ms"},
	{"sim.resim_ms", "ms"},
	{"equiv.check_ms", "ms"},
	{"par.cut_speedup", "x"},
	{"par.cpm_speedup", "x"},
	{"par.eval_speedup", "x"},
	{"techmap.map_ms", "ms"},
	{"aiger.read_ms", "ms"},
	{"aiger.write_ms", "ms"},
	{"aig.digest_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.hit_frac", "ratio"},
	{"server.dup_cold", "count"},
	{"server.miss_p50_ms", "ms"},
	{"server.miss_tail_ms", "ms"},
	{"server.miss_tail_pct", "%"},
	{"server.miss_n", "count"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_tail_ms", "ms"},
	{"server.hit_tail_pct", "%"},
	{"server.hit_n", "count"},
	{"trace.overhead_s", "s"},
}

// config is one invocation of the benchmark.
type config struct {
	seed    int64
	seconds float64 // length of the timed window
	trace   bool
	// child numbers the worker processes of an untraced run from 1; 0 runs
	// the whole workload in this process.
	child int
	// small selects reduced circuit sizes, for the package's own smoke test.
	small bool
	// corrupt, when set, is applied to every synthesised circuit before it
	// is checked; the smoke test uses it to show that the checks bite.
	corrupt func(*dpals.Circuit) *dpals.Circuit
}

// result is what the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Fingerprints, by job key, is passed from a worker process to its
	// parent, which checks that all workers agree; never printed otherwise.
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 12, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	child := flag.Int("child", 0, "internal: the number of this worker process of an untraced run")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *child < 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, child: *child}
	var res *result
	var err error
	if cfg.trace || cfg.child > 0 {
		res, err = run(*name, cfg)
	} else {
		res, err = runWorkers(*name, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and assembles the printed result: the
// end-to-end metrics for an untraced run, the per-layer ones for a traced
// run.
func run(name string, cfg config) (*result, error) {
	rep, err := workloads[name](cfg)
	if err != nil {
		return nil, err
	}
	rep.e2e["ok_frac"] = float64(rep.attempted-len(rep.failures)) / float64(rep.attempted)
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	res := &result{Attempted: rep.attempted, Failed: len(rep.failures), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if cfg.child > 0 {
		res.Fingerprints = rep.fps
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	return res, nil
}
