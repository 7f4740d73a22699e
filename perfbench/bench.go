package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dpals"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"mse-vecmul": func(cfg config) (*report, error) { return runLibrary(cfg, mseVecmul) },
	"er-sasimi":  func(cfg config) (*report, error) { return runLibrary(cfg, erSasimi) },
	"wce-mult":   func(cfg config) (*report, error) { return runLibrary(cfg, wceMult) },
	"serve-mix":  runServe,
}

// setupRepeats is how often a run builds its inputs; setup_s is the median.
const setupRepeats = 21

// window returns the timed window of each half of a run: the whole
// window untraced, or half of it untraced and half traced.
func (cfg config) window() float64 {
	if cfg.trace {
		return cfg.seconds / 2
	}
	return cfg.seconds
}

// report is what one run of a workload measured.
type report struct {
	checker
	e2e   map[string]float64
	layer map[string]float64
}

func newReport(cfg config) *report {
	return &report{
		checker: checker{corrupt: cfg.corrupt, fps: map[string]string{}},
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
	}
}

// timeSetup builds a workload's inputs setupRepeats more times, each from
// a collected heap, and records the median as setup_s. Runs call it after
// their timed passes, when the process is warm.
func timeSetup[T any](rep *report, build func() (T, error)) error {
	secs := make([]float64, setupRepeats)
	for i := range secs {
		runtime.GC()
		t := time.Now()
		if _, err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs[i] = time.Since(t).Seconds()
	}
	rep.e2e["setup_s"] = median(secs)
	return nil
}

// timePasses calls pass at least once, and again while at least half of
// another pass still fits in the window, and returns the reported times in
// seconds. Garbage is collected before each pass, so that no pass pays for
// the garbage of the one before or of the checks between them.
func timePasses(window float64, pass func() (time.Duration, error)) ([]float64, error) {
	var secs []float64
	total := 0.0
	for len(secs) == 0 || total+secs[len(secs)-1]/2 <= window {
		runtime.GC()
		d, err := pass()
		if err != nil {
			return nil, err
		}
		secs = append(secs, d.Seconds())
		total += d.Seconds()
		fmt.Fprintf(os.Stderr, "pass %d: %.3fs\n", len(secs), d.Seconds())
	}
	return secs, nil
}

// checker counts attempted jobs and the failures of their independent
// checks, and holds the determinism fingerprint of every job key.
type checker struct {
	corrupt   func(*dpals.Circuit) *dpals.Circuit
	fps       map[string]string
	attempted int
	failures  []string
}

func (c *checker) fail(key string, format string, args ...any) {
	c.failures = append(c.failures, key+": "+fmt.Sprintf(format, args...))
}

// circuit returns the circuit a check should see: the synthesised one, or
// its deliberately corrupted copy in the smoke test.
func (c *checker) circuit(x *dpals.Circuit) *dpals.Circuit {
	if c.corrupt != nil {
		return c.corrupt(x)
	}
	return x
}

// fingerprint records fp for key and fails the job when an earlier run of
// the same key produced a different one.
func (c *checker) fingerprint(key, fp string) bool {
	first, seen := c.fps[key]
	if !seen {
		c.fps[key] = fp
		return true
	}
	if first != fp {
		c.fail(key, "determinism fingerprint %.12s differs from the first run's %.12s", fp, first)
		return false
	}
	return true
}

// fingerprint hashes a result's AIGER text together with the engine's
// deterministic counters: two runs of one job must agree on all of them.
func fingerprint(aag []byte, st *dpals.Stats) string {
	h := sha256.New()
	h.Write(aag)
	if st != nil {
		fmt.Fprintf(h, "|%d|%d|%d|%d|%d|%d|%v|%d|%d", st.Applied, st.Comprehensive, st.Incremental,
			st.CutWork, st.CPMWork, st.EvalWork, st.MTrace, st.CertCalls, st.CertifiedWCE)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyError recomputes the error of approx against orig independently of
// the engine and returns why it is not acceptable, or nil. For WCE the
// exact worst case over all inputs must fit the bound and equal the
// certified one; otherwise the error on the run's own seed and patterns
// must fit the budget and match the reported error.
func verifyError(orig, approx *dpals.Circuit, opt dpals.Options, reported float64, certified uint64) error {
	opt = opt.Resolved()
	if opt.Metric == dpals.WCE {
		exact, err := dpals.MeasureErrorExact(orig, approx, dpals.WCE, nil)
		if err != nil {
			return err
		}
		if exact > float64(opt.WCEBound) {
			return fmt.Errorf("exact WCE %g exceeds the bound %d", exact, opt.WCEBound)
		}
		if exact != float64(certified) {
			return fmt.Errorf("exact WCE %g differs from the certified %d", exact, certified)
		}
		return nil
	}
	e, err := dpals.MeasureError(orig, approx, opt.Metric, opt.Weights, opt.Patterns, opt.Seed)
	if err != nil {
		return err
	}
	if e > opt.Threshold {
		return fmt.Errorf("recomputed %v error %g exceeds the budget %g", opt.Metric, e, opt.Threshold)
	}
	if math.Abs(e-reported) > 1e-9*math.Max(1, math.Abs(reported)) {
		return fmt.Errorf("recomputed %v error %g differs from the reported %g", opt.Metric, e, reported)
	}
	return nil
}

// completed reports whether a run stopped for a reason that leaves a
// finished, deterministic result.
func completed(r dpals.StopReason) bool {
	return r == dpals.StopBudget || r == dpals.StopMaxIters
}

// aigerBytes renders c as ASCII AIGER.
func aigerBytes(c *dpals.Circuit) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.WriteAIGER(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loadCircuit round-trips c through ASCII AIGER, as a user loading the
// netlist from a file would, and keeps its output weights.
func loadCircuit(c *dpals.Circuit) (*dpals.Circuit, error) {
	aag, err := aigerBytes(c)
	if err != nil {
		return nil, err
	}
	out, err := dpals.ReadAIGER(bytes.NewReader(aag))
	if err != nil {
		return nil, err
	}
	return out, out.SetWeights(c.Weights())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// above it, and that percentile. With ten samples or fewer no percentile
// qualifies, and tail returns the maximum as percentile 100.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
