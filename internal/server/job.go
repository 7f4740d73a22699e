package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"dpals"
)

// JobRequest is the JSON body of POST /v1/jobs: a circuit plus the
// synthesis constraints. Field semantics mirror dpals.Options; zero
// values select the library defaults via Options.Resolved.
type JobRequest struct {
	// Circuit is the input netlist, ASCII AIGER ("aag") or BLIF text.
	// Format selects the parser: "aiger", "blif", or "" to sniff.
	Circuit string `json:"circuit"`
	Format  string `json:"format,omitempty"`

	Flow      string    `json:"flow,omitempty"`   // conventional|vecbee|accals|dp|dpsa (default dpsa)
	Metric    string    `json:"metric,omitempty"` // er|mse|med|mhd|wce (default er)
	Threshold float64   `json:"threshold"`
	Weights   []float64 `json:"weights,omitempty"`

	// WCE jobs (metric "wce"): WCEBound is the SAT-certified worst-case
	// error budget, CertEvery the certification amortisation interval (0 =
	// default 8), and CertConflictLimit the per-certification SAT conflict
	// cap. The server REQUIRES CertConflictLimit ≥ 1 for WCE jobs: an
	// uncapped certification call cannot be cancelled cooperatively, so
	// whether such a job completes or hits its deadline would depend on
	// wall clock — which would make the result uncacheable and the worker
	// pool unboundable.
	WCEBound          uint64 `json:"wce_bound,omitempty"`
	CertEvery         int    `json:"cert_every,omitempty"`
	CertConflictLimit int64  `json:"cert_conflict_limit,omitempty"`

	Patterns           int       `json:"patterns,omitempty"`
	Seed               int64     `json:"seed,omitempty"`
	Exhaustive         bool      `json:"exhaustive,omitempty"`
	InputProbabilities []float64 `json:"input_probabilities,omitempty"`

	UseConstLACs   bool `json:"use_const_lacs,omitempty"`
	UseSASIMILACs  bool `json:"use_sasimi_lacs,omitempty"`
	MaxLACsPerNode int  `json:"max_lacs_per_node,omitempty"`

	DepthLimit int `json:"depth_limit,omitempty"`
	M          int `json:"m,omitempty"`
	N          int `json:"n,omitempty"`
	MaxIters   int `json:"max_iters,omitempty"`

	// TimeLimitMS bounds the run's wall clock; the server additionally
	// caps it at its own -max-time-limit. Deadline-stopped results are
	// wall-clock dependent, so they are returned but never cached.
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`

	// Priority orders the queue: higher runs first, FIFO within a level.
	// Clamped to [0, 9].
	Priority int `json:"priority,omitempty"`

	// NoCache bypasses the result cache for this job (both lookup and
	// fill) — for A/B runs and load tests that want cold latencies.
	NoCache bool `json:"no_cache,omitempty"`
}

// JobResponse is the JSON result of a job. Circuit is the approximate
// netlist in ASCII AIGER — byte-identical to what WriteAIGER of a direct
// library call produces, cached or not.
type JobResponse struct {
	JobID    string `json:"job_id"`
	Cache    string `json:"cache"` // "hit", "miss" or "bypass"
	CacheKey string `json:"cache_key"`

	Circuit string `json:"circuit"`
	Gates   int    `json:"gates"`
	// ErrorValue is the achieved error on the training patterns. (The
	// "error" key is reserved for failure payloads, e.g. {"error": "queue
	// full"}, so clients can decode every response into one shape.)
	ErrorValue float64 `json:"error_value"`
	AreaRatio  float64 `json:"area_ratio"`
	DelayRatio float64 `json:"delay_ratio"`
	ADPRatio   float64 `json:"adp_ratio"`
	Applied    int     `json:"applied"`
	StopReason string  `json:"stop_reason"`

	// WCE jobs only: the SAT-certified worst-case error bound of the
	// returned circuit and the number of certification calls spent.
	CertifiedWCE uint64 `json:"certified_wce,omitempty"`
	CertCalls    int    `json:"cert_calls,omitempty"`

	QueueMS float64 `json:"queue_ms"`
	RunMS   float64 `json:"run_ms"`
}

// progressEvent is one SSE "progress" frame.
type progressEvent struct {
	Iter   int     `json:"iter"`
	Ands   int     `json:"ands"`
	Error  float64 `json:"error"`
	Budget float64 `json:"budget"`
}

// job is a parsed, validated, enqueued unit of work.
type job struct {
	id       string
	circuit  *dpals.Circuit
	opt      dpals.Options // resolved
	key      string        // cache key; "" when NoCache
	priority int
	seq      uint64 // FIFO tiebreak within a priority level

	ctx      context.Context // request context: client disconnect cancels
	progress chan progressEvent
	done     chan *jobResult

	enqueued time.Time
}

type jobResult struct {
	resp   *JobResponse
	err    error // job-level failure (not a stop: those return best-so-far)
	status int   // HTTP status for err
}

// parseJob validates a request and builds the runnable job. The returned
// error is client-facing.
func parseJob(req *JobRequest) (*dpals.Circuit, dpals.Options, error) {
	var c *dpals.Circuit
	var err error
	text := req.Circuit
	format := strings.ToLower(strings.TrimSpace(req.Format))
	if format == "" {
		if strings.HasPrefix(strings.TrimSpace(text), "aag ") {
			format = "aiger"
		} else {
			format = "blif"
		}
	}
	switch format {
	case "aiger", "aag":
		c, err = dpals.ReadAIGER(strings.NewReader(text))
	case "blif":
		c, err = dpals.ReadBLIF(strings.NewReader(text))
	default:
		return nil, dpals.Options{}, fmt.Errorf("unknown circuit format %q (want aiger or blif)", req.Format)
	}
	if err != nil {
		return nil, dpals.Options{}, fmt.Errorf("parse %s circuit: %w", format, err)
	}
	if c.NumOutputs() == 0 {
		return nil, dpals.Options{}, fmt.Errorf("circuit has no outputs")
	}

	flow, err := dpals.ParseFlow(req.Flow)
	if err != nil {
		return nil, dpals.Options{}, err
	}
	metric, err := dpals.ParseMetric(req.Metric)
	if err != nil {
		return nil, dpals.Options{}, err
	}
	opt := dpals.Options{
		Flow:               flow,
		Metric:             metric,
		Threshold:          req.Threshold,
		Weights:            req.Weights,
		WCEBound:           req.WCEBound,
		CertEvery:          req.CertEvery,
		CertConflictLimit:  req.CertConflictLimit,
		Patterns:           req.Patterns,
		Seed:               req.Seed,
		Exhaustive:         req.Exhaustive,
		InputProbabilities: req.InputProbabilities,
		UseConstLACs:       req.UseConstLACs,
		UseSASIMILACs:      req.UseSASIMILACs,
		MaxLACsPerNode:     req.MaxLACsPerNode,
		DepthLimit:         req.DepthLimit,
		M:                  req.M,
		N:                  req.N,
		MaxIters:           req.MaxIters,
		TimeLimit:          time.Duration(req.TimeLimitMS) * time.Millisecond,
	}
	if err := opt.Validate(c.NumInputs(), c.NumOutputs()); err != nil {
		return nil, dpals.Options{}, err
	}
	// alsd's own rules on top of the library's: a finite threshold and a
	// capped SAT certification budget for WCE jobs.
	if math.IsNaN(req.Threshold) || math.IsInf(req.Threshold, 0) {
		return nil, dpals.Options{}, fmt.Errorf("threshold %v out of range (want a finite value ≥ 0)", req.Threshold)
	}
	if metric == dpals.WCE && req.CertConflictLimit < 1 {
		return nil, dpals.Options{}, fmt.Errorf("metric wce requires cert_conflict_limit ≥ 1: an uncapped SAT certification call cannot be cancelled, so the job could overrun its deadline unboundedly")
	}
	return c, opt, nil
}

// cacheKey derives the content address of a job's result: a SHA-256 over
// the circuit's structural digest, the effective weight vector, and every
// RESOLVED option that influences the result bits. Threads is excluded
// (results are proven bit-identical across thread counts) and TimeLimit
// is excluded (deadline-stopped results are never cached, and a run that
// completes inside its limit is identical to one without it). Resolving
// first is what keeps Seed 0 and Seed DefaultSeed — a documented alias —
// on one cache entry while distinct explicit seeds never collide.
func cacheKey(c *dpals.Circuit, opt dpals.Options) string {
	opt = opt.Resolved()
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	h.Write([]byte("alsd-key-v2\x00"))
	d := c.Graph().StructuralDigest()
	h.Write(d[:])

	w := opt.Weights
	if w == nil {
		w = c.Weights()
	}
	u64(uint64(len(w)))
	for _, x := range w {
		f64(x)
	}

	u64(uint64(opt.Flow))
	u64(uint64(opt.Metric))
	f64(opt.Threshold)
	// The WCE certification knobs all influence the result bits: the bound
	// is the budget itself, CertEvery moves the certification checkpoints
	// (and therefore which rollback path a violating batch takes), and the
	// conflict cap decides where a budget-exhausted run halts. Keyed even
	// for non-WCE metrics, where Resolved zeroes them.
	u64(opt.WCEBound)
	u64(uint64(opt.CertEvery))
	u64(uint64(opt.CertConflictLimit))
	u64(uint64(opt.Patterns))
	u64(uint64(opt.Seed))
	if opt.Exhaustive {
		u64(1)
	} else {
		u64(0)
	}
	u64(uint64(len(opt.InputProbabilities)))
	for _, p := range opt.InputProbabilities {
		f64(p)
	}
	lacs := uint64(0)
	if opt.UseConstLACs {
		lacs |= 1
	}
	if opt.UseSASIMILACs {
		lacs |= 2
	}
	u64(lacs)
	u64(uint64(opt.MaxLACsPerNode))
	u64(uint64(opt.DepthLimit))
	u64(uint64(opt.M))
	u64(uint64(opt.N))
	u64(uint64(opt.MaxIters))

	return hex.EncodeToString(h.Sum(nil))
}
