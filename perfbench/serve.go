package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dpals"
	"dpals/internal/server"
)

// serveJob is one distinct job of serve-mix.
type serveJob struct {
	job         // the circuit as the server parses it, with the job's options
	body []byte // the JSON request
}

// serveSetup is serve-mix's input: its distinct jobs and the sequence of
// job indices each of its two closed-loop clients submits.
type serveSetup struct {
	jobs  []serveJob
	plans [2][]int
}

// hitRounds is how often a client resubmits each job it has completed,
// after every new job it completes.
const hitRounds = 3

// buildServe makes serve-mix's inputs: three suite circuits under ER with
// SASIMI substitutions and a 4x4 multiplier under ER, each at two pattern
// seeds. Client c submits every circuit at its own seed c, in an order
// drawn from the run's seed, so both clients carry the same kind of load.
// Both also open with the multiplier at seed 0, sent at the same moment,
// which gives a cold duplicate. After each new job a client resubmits
// everything it has completed.
func buildServe(cfg config) (*serveSetup, error) {
	names := []string{"c880", "c1908", "c3540"}
	patterns := 4096
	if cfg.small {
		names, patterns = names[:1], 512
	}
	suite := map[string]*dpals.Circuit{}
	for _, b := range dpals.BenchmarkSuite(true) {
		suite[b.Name] = b.Circuit
	}
	type spec struct {
		name   string
		c      *dpals.Circuit
		sasimi bool
	}
	// The multiplier comes first: it is the shared opening job.
	specs := []spec{{"mult4x4", dpals.NewMultiplier(4, 4, false), false}}
	for _, n := range names {
		if suite[n] == nil {
			return nil, fmt.Errorf("suite has no circuit %s", n)
		}
		specs = append(specs, spec{n, suite[n], true})
	}

	st := &serveSetup{}
	aags := make([][]byte, len(specs))
	parsed := make([]*dpals.Circuit, len(specs))
	for i, sp := range specs {
		var err error
		if aags[i], err = aigerBytes(sp.c); err != nil {
			return nil, err
		}
		if parsed[i], err = dpals.ReadAIGER(bytes.NewReader(aags[i])); err != nil {
			return nil, err
		}
	}
	for k := 0; k < 2; k++ {
		for i, sp := range specs {
			aag := aags[i]
			req := server.JobRequest{
				Circuit: string(aag), Format: "aiger", Flow: "dpsa", Metric: "er", Threshold: 0.05,
				Patterns: patterns, Seed: subSeed(cfg.seed, k), UseConstLACs: true, UseSASIMILACs: sp.sasimi,
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			st.jobs = append(st.jobs, serveJob{body: body, job: job{
				key:     fmt.Sprintf("%s/seed%d", sp.name, req.Seed),
				circuit: parsed[i],
				opt: dpals.Options{
					Flow: dpals.DPSA, Metric: dpals.ER, Threshold: req.Threshold, Patterns: req.Patterns,
					Seed: req.Seed, Threads: 1, UseConstLACs: true, UseSASIMILACs: sp.sasimi,
				},
			}})
		}
	}
	// Job index k*len(specs)+i is spec i at seed k.
	rng := rand.New(rand.NewSource(cfg.seed))
	var own [2][]int
	for cl := range own {
		own[cl] = append(own[cl], 0)
		for _, i := range rng.Perm(len(specs)) {
			if idx := cl*len(specs) + i; idx != 0 {
				own[cl] = append(own[cl], idx)
			}
		}
	}
	for cl := range own {
		var done []int
		for _, idx := range own[cl] {
			st.plans[cl] = append(st.plans[cl], idx)
			done = append(done, idx)
			for r := 0; r < hitRounds; r++ {
				st.plans[cl] = append(st.plans[cl], done...)
			}
		}
	}
	// Bring the service up and down once, as a deployment would.
	_, stop, err := startServer()
	if err != nil {
		return nil, err
	}
	return st, stop()
}

// startServer serves a fresh alsd server (two workers, one engine thread
// per job, an empty cache) on a loopback port. stop shuts it down and
// waits for its goroutines.
func startServer() (addr string, stop func() error, err error) {
	srv := server.New(server.Config{Workers: 2, ThreadsPerJob: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop = func() error {
		err := hs.Shutdown(context.Background())
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		srv.Drain()
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// reply is one response a client received.
type reply struct {
	job     int
	status  int
	latency time.Duration
	resp    server.JobResponse
	err     error
}

// servePass starts a fresh server, lets both clients run their plans to
// completion, and returns the replies and the time from the first
// submission to the last answer.
func servePass(st *serveSetup) ([]reply, time.Duration, error) {
	addr, stop, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: len(st.plans)}
	client := &http.Client{Transport: tr}
	replies := make([][]reply, len(st.plans))
	var wg sync.WaitGroup
	t := time.Now()
	for cl := range st.plans {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for _, idx := range st.plans[cl] {
				replies[cl] = append(replies[cl], submit(client, addr, idx, st.jobs[idx].body))
			}
		}(cl)
	}
	wg.Wait()
	d := time.Since(t)
	tr.CloseIdleConnections()
	if err := stop(); err != nil {
		return nil, 0, fmt.Errorf("stop server: %w", err)
	}
	return append(replies[0], replies[1]...), d, nil
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

func submit(client *http.Client, addr string, idx int, body []byte) reply {
	r := reply{job: idx}
	t := time.Now()
	resp, err := client.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	r.latency = time.Since(t)
	r.status = resp.StatusCode
	if err == nil {
		err = json.Unmarshal(data, &r.resp)
	}
	r.err = err
	return r
}

// serveChecker checks served results against direct library calls, which
// it makes once per job, untimed.
type serveChecker struct {
	rep      *report
	st       *serveSetup
	direct   map[int][]byte        // job index → AIGER of the direct call
	results  map[int]*dpals.Result // job index → the direct call's result
	alloc    []float64             // MB allocated by each direct call
	verified map[[32]byte]error    // served AIGER → outcome of its error check
}

// check counts one reply and checks it: HTTP 200, a completed run, AIGER
// byte-identical to a direct library call with the same options (so a hit
// equals its miss), an error within budget that matches the reported one,
// and the same fingerprint as every earlier answer for the job.
func (sc *serveChecker) check(r reply) {
	rep := sc.rep
	j := sc.st.jobs[r.job]
	rep.attempted++
	switch {
	case r.err != nil:
		rep.fail(j.key, "request: %v", r.err)
		return
	case r.status != http.StatusOK:
		rep.fail(j.key, "HTTP status %d", r.status)
		return
	case !completed(dpals.StopReason(r.resp.StopReason)):
		rep.fail(j.key, "stopped early: %s", r.resp.StopReason)
		return
	}
	if _, ok := sc.direct[r.job]; !ok {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := dpals.Approximate(j.circuit, j.opt)
		runtime.ReadMemStats(&m1)
		sc.alloc = append(sc.alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		if rep.checkLibrary(j.job, res, err) {
			sc.results[r.job] = res
			aag, err := aigerBytes(res.Circuit)
			if err != nil {
				rep.fail(j.key, "write AIGER: %v", err)
			}
			sc.direct[r.job] = aag
		} else {
			sc.direct[r.job] = nil
		}
	}
	text := []byte(r.resp.Circuit)
	if !bytes.Equal(text, sc.direct[r.job]) {
		rep.fail(j.key, "%s AIGER differs from the direct library call's", r.resp.Cache)
		return
	}
	sum := sha256.Sum256(text)
	verr, seen := sc.verified[sum]
	if !seen {
		verr = sc.verify(j, text, r.resp.ErrorValue)
		sc.verified[sum] = verr
	}
	if verr != nil {
		rep.fail(j.key, "%v", verr)
		return
	}
	rep.fingerprint("served "+j.key, fingerprint(text, nil)+fmt.Sprint(r.resp.Applied, r.resp.Gates))
}

func (sc *serveChecker) verify(j serveJob, text []byte, reported float64) error {
	c, err := dpals.ReadAIGER(bytes.NewReader(text))
	if err != nil {
		return fmt.Errorf("parse served AIGER: %w", err)
	}
	return verifyError(j.circuit, sc.rep.circuit(c), j.opt, reported, 0)
}

// runServe runs serve-mix: set-up, the timed passes, the set-up timing
// and, in a traced run, a second half of passes (the server runs its jobs
// untraced, so they differ from the first only by noise) and layer probes
// of the distinct circuits.
func runServe(cfg config) (*report, error) {
	rep := newReport(cfg)
	build := func() (*serveSetup, error) { return buildServe(cfg) }
	st, err := build()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	sc := &serveChecker{rep: rep, st: st, direct: map[int][]byte{}, results: map[int]*dpals.Result{}, verified: map[[32]byte]error{}}
	window := cfg.window()
	var passes [][]reply
	pass := func() (time.Duration, error) {
		replies, d, err := servePass(st)
		if err != nil {
			return 0, err
		}
		for i := range replies {
			sc.check(replies[i])
			replies[i].resp.Circuit = "" // checked; keep only the figures
		}
		passes = append(passes, replies)
		return d, nil
	}
	untraced, err := timePasses(window, pass)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.e2e["wall_s"] = median(untraced)
	rep.e2e["peak_rss_mb"] = rss
	if err := timeSetup(rep, build); err != nil {
		return nil, err
	}

	var direct []*dpals.Result
	for i := range st.jobs {
		direct = append(direct, sc.results[i])
	}
	rep.e2e["area_ratio"], rep.e2e["adp_ratio"] = quality(direct)

	if cfg.trace {
		traced, err := timePasses(window, pass)
		if err != nil {
			return nil, err
		}
		coreLayer(rep.layer, []libPass{{res: direct, alloc: sc.alloc}})
		var jobs []job
		for _, j := range st.jobs {
			jobs = append(jobs, j.job)
		}
		probeLayers(rep.layer, jobs, direct)
		serverLayer(rep.layer, passes)
		rep.layer["trace.overhead_s"] = median(traced) - median(untraced)
	}
	return rep, nil
}

// serverLayer fills the server.* metrics from the replies of every pass:
// client latency per cache class (a miss is a job the engine ran), queue
// and run time of engine jobs as the server reports them, the client-side
// overhead beyond both, the hit share, and the cold duplicates of one
// pass: engine runs of a cache key the server was already computing,
// because concurrent submissions are not coalesced.
func serverLayer(layer map[string]float64, passes [][]reply) {
	var hit, miss, queue, run, overhead []float64
	hits, ok := 0, 0
	for _, replies := range passes {
		for _, r := range replies {
			if !r.ok() {
				continue
			}
			ok++
			overhead = append(overhead, ms(r.latency)-r.resp.QueueMS-r.resp.RunMS)
			if r.resp.Cache == "hit" {
				hits++
				hit = append(hit, ms(r.latency))
				continue
			}
			miss = append(miss, ms(r.latency))
			queue = append(queue, r.resp.QueueMS)
			run = append(run, r.resp.RunMS)
		}
	}
	for class, xs := range map[string][]float64{"hit": hit, "miss": miss} {
		v, pct := tail(xs)
		layer["server."+class+"_p50_ms"] = median(xs)
		layer["server."+class+"_tail_ms"] = v
		layer["server."+class+"_tail_pct"] = pct
		layer["server."+class+"_n"] = float64(len(xs))
	}
	layer["server.queue_ms"] = median(queue)
	layer["server.run_ms"] = median(run)
	layer["server.overhead_ms"] = median(overhead)
	layer["server.hit_frac"] = 0
	if ok > 0 {
		layer["server.hit_frac"] = float64(hits) / float64(ok)
	}
	misses := map[string]int{}
	for _, r := range passes[len(passes)-1] {
		if r.ok() && r.resp.Cache == "miss" {
			misses[r.resp.CacheKey]++
		}
	}
	dups := 0
	for _, n := range misses {
		dups += n - 1
	}
	layer["server.dup_cold"] = float64(dups)
}
