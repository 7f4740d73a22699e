package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dpals"
	"dpals/internal/aig"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.ThreadsPerJob == 0 {
		cfg.ThreadsPerJob = 1
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain()
		ts.Close()
	})
	return s, ts
}

func circuitAIGER(t *testing.T, c *dpals.Circuit) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteAIGER(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// submit POSTs a job and decodes the JSON response; header keys/values
// are optional trailing pairs.
func submit(t *testing.T, ts *httptest.Server, body map[string]any, kv ...string) (int, *JobResponse) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		req.Header.Set(kv[i], kv[i+1])
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decode response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, &jr
}

func smallJob(t *testing.T, seed int64) map[string]any {
	return map[string]any{
		"circuit":   circuitAIGER(t, dpals.NewMultiplier(3, 3, false)),
		"flow":      "dp",
		"metric":    "er",
		"threshold": 0.05,
		"patterns":  512,
		"seed":      seed,
	}
}

// A repeat submission must answer from the cache with a byte-identical
// circuit — the tentpole's core contract.
func TestServerCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, first := submit(t, ts, smallJob(t, 1))
	if code != http.StatusOK {
		t.Fatalf("first submission: status %d", code)
	}
	if first.Cache != "miss" {
		t.Fatalf("first submission cache = %q, want miss", first.Cache)
	}
	if first.StopReason != string(dpals.StopBudget) {
		t.Fatalf("unexpected stop reason %q", first.StopReason)
	}
	code, second := submit(t, ts, smallJob(t, 1))
	if code != http.StatusOK || second.Cache != "hit" {
		t.Fatalf("second submission: status %d cache %q, want 200/hit", code, second.Cache)
	}
	if second.Circuit != first.Circuit {
		t.Fatal("cache hit returned different circuit bytes than the original run")
	}
	if st := s.Stats(); st.Cache.Hits != 1 || st.Cache.Misses < 1 {
		t.Fatalf("cache stats %+v, want 1 hit", st.Cache)
	}

	// no_cache bypasses both lookup and fill.
	job := smallJob(t, 1)
	job["no_cache"] = true
	if _, r := submit(t, ts, job); r.Cache != "bypass" {
		t.Fatalf("no_cache submission cache = %q, want bypass", r.Cache)
	}
}

// Seed 0 is a documented alias for DefaultSeed, so the two must share one
// cache entry; distinct explicit seeds must never collide (the satellite-2
// regression: pre-fix, seed 0 silently aliased with no way for a cache to
// know).
func TestServerSeedResolutionInCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, zero := submit(t, ts, smallJob(t, 0))
	_, one := submit(t, ts, smallJob(t, 1))
	if zero.Cache != "miss" || one.Cache != "hit" {
		t.Fatalf("seed 0 then seed 1: cache %q then %q, want miss then hit (documented alias)", zero.Cache, one.Cache)
	}
	if zero.CacheKey != one.CacheKey {
		t.Fatal("seed 0 and DefaultSeed produced different cache keys")
	}
	_, two := submit(t, ts, smallJob(t, 2))
	_, three := submit(t, ts, smallJob(t, 3))
	if two.Cache != "miss" || three.Cache != "miss" {
		t.Fatalf("distinct seeds 2,3: cache %q,%q — a shared entry would poison results", two.Cache, three.Cache)
	}
	if two.CacheKey == three.CacheKey || two.CacheKey == one.CacheKey {
		t.Fatal("distinct explicit seeds share a cache key")
	}
	if two.Circuit == three.Circuit {
		t.Log("note: seeds 2 and 3 happen to produce identical circuits (keys still distinct)")
	}
}

// The server path must be bit-identical to a direct library call with the
// same resolved options.
func TestServerDifferentialVsLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp := submit(t, ts, smallJob(t, 9))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	res, err := dpals.Approximate(dpals.NewMultiplier(3, 3, false), dpals.Options{
		Flow: dpals.DP, Metric: dpals.ER, Threshold: 0.05,
		Patterns: 512, Seed: 9, Threads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := res.Circuit.WriteAIGER(&direct); err != nil {
		t.Fatal(err)
	}
	if resp.Circuit != direct.String() {
		t.Fatal("server-path circuit differs from direct dpals.Approximate with the same resolved options")
	}
	if resp.ErrorValue != res.Error || resp.Applied != res.Stats.Applied {
		t.Fatalf("server stats diverge: error %v vs %v, applied %d vs %d",
			resp.ErrorValue, res.Error, resp.Applied, res.Stats.Applied)
	}
}

// A flood from one tenant is rate-limited without starving other tenants.
func TestServerRateLimitIsolatesTenants(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.0001, Burst: 2})
	flood := smallJob(t, 1)
	codes := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		code, _ := submit(t, ts, flood, "X-Tenant", "noisy")
		codes = append(codes, code)
	}
	rejected := 0
	for _, c := range codes {
		if c == http.StatusTooManyRequests {
			rejected++
		}
	}
	if rejected != 2 {
		t.Fatalf("flood codes %v: want exactly 2 rejections after burst 2", codes)
	}
	if code, _ := submit(t, ts, smallJob(t, 1), "X-Tenant", "quiet"); code != http.StatusOK {
		t.Fatalf("quiet tenant got %d during noisy tenant's flood", code)
	}
}

// bigJob is sized to run long enough (seconds on one core) that the test
// can observe it mid-flight.
func bigJob(t *testing.T) map[string]any {
	return map[string]any{
		"circuit":   circuitAIGER(t, dpals.NewMultiplier(6, 6, false)),
		"flow":      "dpsa",
		"metric":    "er",
		"threshold": 0.3,
		"patterns":  2048,
		"seed":      1,
	}
}

// A disconnected client's job must be cancelled cooperatively — within
// one analysis wave — freeing the worker.
func TestServerClientDisconnectCancelsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ProgressEvery: 5 * time.Millisecond})
	body, err := json.Marshal(bigJob(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs?stream=sse", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Wait for the first progress event: proof the engine is running.
	sc := bufio.NewScanner(resp.Body)
	sawProgress := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: progress") {
			sawProgress = true
			break
		}
	}
	if !sawProgress {
		t.Fatalf("no progress event before stream end (scan err %v)", sc.Err())
	}
	cancel() // client walks away mid-synthesis
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if st.Cancelled == 1 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not cancelled after disconnect: stats %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Graceful drain answers every accepted job — running or still queued —
// with a valid best-so-far circuit and a truthful stop reason, then
// rejects new work.
func TestServerGracefulDrainReturnsBestSoFar(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ProgressEvery: 5 * time.Millisecond})

	type outcome struct {
		code int
		resp *JobResponse
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ { // one runs, one queues behind it
		go func() {
			code, resp := submit(t, ts, bigJob(t))
			results <- outcome{code, resp}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for st := s.Stats(); st.Accepted < 2 || st.Running < 1; st = s.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("jobs not in flight before drain: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Drain()

	for i := 0; i < 2; i++ {
		out := <-results
		if out.code != http.StatusOK {
			t.Fatalf("drained job %d: status %d", i, out.code)
		}
		if out.resp.StopReason != string(dpals.StopCancelled) {
			t.Fatalf("drained job %d: stop_reason %q, want %q", i, out.resp.StopReason, dpals.StopCancelled)
		}
		// Best-so-far must be a valid, parseable circuit.
		c, err := dpals.ReadAIGER(strings.NewReader(out.resp.Circuit))
		if err != nil {
			t.Fatalf("drained job %d returned unparseable circuit: %v", i, err)
		}
		if c.NumOutputs() != 12 {
			t.Fatalf("drained job %d circuit has %d outputs, want 12", i, c.NumOutputs())
		}
	}
	if code, _ := submit(t, ts, smallJob(t, 1)); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission: status %d, want 503", code)
	}
	if st := s.Stats(); !st.Draining || st.Cancelled != 2 {
		t.Fatalf("post-drain stats %+v, want draining with 2 cancelled", st)
	}
}

// wideCircuit returns a one-AND circuit with the given numbers of inputs
// and outputs, every output driven by the AND of the first two inputs.
func wideCircuit(inputs, outputs int) *dpals.Circuit {
	g := aig.New("wide")
	var pis []aig.Lit
	for i := 0; i < inputs; i++ {
		pis = append(pis, g.AddPI(fmt.Sprintf("i%d", i)))
	}
	x := g.And(pis[0], pis[1])
	for o := 0; o < outputs; o++ {
		g.AddPO(x, fmt.Sprintf("o%d", o))
	}
	return dpals.FromGraph(g)
}

// Malformed submissions fail fast with client errors, not worker time.
func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []map[string]any{
		{"circuit": "not a circuit", "threshold": 0.05},
		{"circuit": circuitAIGER(t, dpals.NewAdder(3)), "threshold": -1.0},
		{"circuit": circuitAIGER(t, dpals.NewAdder(3)), "threshold": 0.05, "flow": "nope"},
		{"circuit": circuitAIGER(t, dpals.NewAdder(3)), "threshold": 0.05, "metric": "nope"},
		{"circuit": circuitAIGER(t, dpals.NewAdder(3)), "threshold": 0.05, "weights": []float64{1}},
		{"circuit": circuitAIGER(t, wideCircuit(25, 1)), "threshold": 0.05, "exhaustive": true},
		{"circuit": circuitAIGER(t, wideCircuit(2, 63)), "metric": "wce", "wce_bound": 4, "cert_conflict_limit": 1000},
	}
	for i, body := range cases {
		if code, _ := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs: status %d, want 405", resp.StatusCode)
	}
}

func TestServerHealthAndDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/statsz", "/debug/obs", "/debug/pprof/"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// SSE submissions deliver progress frames and exactly one result event
// whose circuit matches the non-streaming (cached) answer.
func TestServerSSEStreamsProgressAndResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, ProgressEvery: time.Millisecond})
	body, err := json.Marshal(smallJob(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs?stream=sse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var event string
	var result *JobResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "result":
			result = new(JobResponse)
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), result); err != nil {
				t.Fatalf("bad result payload: %v", err)
			}
		}
	}
	if result == nil {
		t.Fatalf("stream ended without a result event (scan err %v)", sc.Err())
	}
	if result.StopReason != string(dpals.StopBudget) {
		t.Fatalf("streamed result stop_reason %q", result.StopReason)
	}
	// The same job again, non-streaming: must hit the cache with identical bytes.
	code, again := submit(t, ts, smallJob(t, 4))
	if code != http.StatusOK || again.Cache != "hit" || again.Circuit != result.Circuit {
		t.Fatalf("cached follow-up: status %d cache %q, identical %v",
			code, again.Cache, again.Circuit == result.Circuit)
	}
}

func TestServerStatszShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	submit(t, ts, smallJob(t, 1))
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || st.Completed != 1 {
		t.Fatalf("statsz %+v, want 1 accepted/completed", st)
	}
}

var _ = fmt.Sprintf // keep fmt for quick debugging edits
