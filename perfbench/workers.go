package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// workers is how many processes an untraced run is split into. Speed
// differs from process to process on a shared machine (a few-millisecond
// set-up by up to 2x, a pass by 10-20%), so the median over several
// processes is steadier than any one of them.
const workers = 3

// runWorkers runs an untraced run as workers processes one after the
// other, each timing its share of the window, and merges their results:
// job counts add up, each metric is the median over the workers, and the
// determinism fingerprint of every job must be the same in all of them.
func runWorkers(name string, cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var rs []*result
	for i := 1; i <= workers; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds/workers, 'g', -1, 64), "--trace", "0",
			"--child", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		r := &result{}
		if err := json.Unmarshal(lines[len(lines)-1], r); err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		rs = append(rs, r)
	}
	return merge(rs), nil
}

// merge combines the results of the worker processes of one run.
func merge(rs []*result) *result {
	m := &result{Metrics: map[string]metricValue{}}
	first := map[string]string{}
	for i, r := range rs {
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		for key, fp := range r.Fingerprints {
			if f, ok := first[key]; !ok {
				first[key] = fp
			} else if f != fp {
				m.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s: worker %d's fingerprint %.12s differs from %.12s\n", key, i+1, fp, f)
			}
		}
	}
	for name, v := range rs[0].Metrics {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.Metrics[name].Value
		}
		m.Metrics[name] = metricValue{Value: median(xs), Unit: v.Unit}
	}
	if m.Attempted > 0 {
		m.Metrics["ok_frac"] = metricValue{Value: float64(m.Attempted-m.Failed) / float64(m.Attempted), Unit: "ratio"}
	}
	m.Correct = m.Failed == 0 && m.Attempted > 0
	return m
}
