// Package core implements the iterative approximate logic synthesis flows
// of the paper: the conventional single-LAC flow with comprehensive error
// analysis (enhanced VECBEE: disjoint cuts + CPM), the original VECBEE
// baseline with a configurable depth limit, the AccALS multi-LAC baseline,
// and the dual-phase framework DP and its self-adaptive variant DP-SA —
// the paper's contribution.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dpals/internal/bitvec"
	"dpals/internal/fault"
	"dpals/internal/lac"
	"dpals/internal/metric"
)

// Flow selects the synthesis algorithm.
type Flow int

// Supported flows.
const (
	// FlowConventional is Fig. 3(a): one LAC per iteration, comprehensive
	// error analysis with disjoint cuts — the "enhanced VECBEE" the paper
	// compares against and the first phase of the dual-phase framework.
	FlowConventional Flow = iota
	// FlowVECBEE is the original VECBEE [19] with one-cut depth limit
	// Options.DepthLimit (0 = ∞, fully accurate; 1 = direct fanout).
	FlowVECBEE
	// FlowAccALS is AccALS [14]: multiple LACs per iteration with
	// post-apply validation and single-LAC (SEALS) fallback.
	FlowAccALS
	// FlowDP is the dual-phase framework without self-adaption.
	FlowDP
	// FlowDPSA is the dual-phase framework with the two self-adaption
	// techniques of §III-D.
	FlowDPSA
)

func (f Flow) String() string {
	switch f {
	case FlowConventional:
		return "Conventional"
	case FlowVECBEE:
		return "VECBEE"
	case FlowAccALS:
		return "AccALS"
	case FlowDP:
		return "DP"
	case FlowDPSA:
		return "DP-SA"
	}
	return "Flow(?)"
}

// Options configures a synthesis run. It is the one configuration type of
// the whole stack: the public dpals API, the alsd server and the
// verification campaign all hand it to RunContext unchanged. The zero value
// of every field but Flow, Metric and Threshold selects a default, and
// Resolved is the only place those defaults are applied.
type Options struct {
	Flow      Flow           `json:"flow"`
	Metric    metric.Kind    `json:"metric"`
	Threshold float64        `json:"threshold"`         // error budget E_b (ER: fraction; MSE/MED: absolute)
	Weights   metric.Weights `json:"weights,omitempty"` // numeric PO weights; nil = unsigned binary, LSB-first

	Patterns int `json:"patterns"` // Monte-Carlo patterns (default 8192)
	// Seed is the simulation RNG seed. The zero value (UseDefaultSeed) is
	// an alias for DefaultSeed; every non-zero seed is its own independent
	// run.
	Seed int64 `json:"seed"`
	// Threads is the worker count for the parallel analysis pipeline
	// (simulation, disjoint cuts, CPM construction, LAC evaluation), with
	// the pipeline-wide semantics of package par: ≤0 selects all CPUs
	// (runtime.GOMAXPROCS), 1 runs serially. Results are bit-identical for
	// every value.
	Threads int `json:"threads"`

	// Exhaustive simulates all 2^PIs input patterns instead of Monte-Carlo
	// sampling, making every error figure exact. Only allowed for circuits
	// with at most MaxExhaustiveInputs primary inputs.
	Exhaustive bool `json:"exhaustive,omitempty"`

	// InputProbabilities biases the Monte-Carlo input distribution: entry
	// i is the probability that input i reads 1 (missing entries: 0.5).
	// Ignored in exhaustive mode.
	InputProbabilities []float64 `json:"inputProbabilities,omitempty"`

	UseConstLACs   bool `json:"useConstLACs,omitempty"`   // constant-0/1 replacements (default when neither kind is set)
	UseSASIMILACs  bool `json:"sasimi,omitempty"`         // SASIMI signal substitution
	MaxLACsPerNode int  `json:"maxLACsPerNode,omitempty"` // SASIMI candidates per node (0: 8)

	// WCE-constrained flow (Metric == metric.WCE). WCEBound is the
	// worst-case error bound to certify: phase-1 analyses prune candidates
	// by a sampled worst-case upper-bound estimate, and a SAT certification
	// (equiv.WCEAtMost against the input circuit) amortized over every
	// CertEvery accepted LACs — and always before emit — proves the bound,
	// rolling back to the last certified state on violation. For WCE the
	// error budget is WCEBound (Threshold is derived from it) and the
	// outputs are read as an unsigned LSB-first number (Weights must be
	// nil, ≤ 62 outputs). Rejected when non-zero for other metrics.
	WCEBound uint64 `json:"wceBound,omitempty"`
	// CertEvery is the certification amortization interval K: a SAT check
	// runs after every K accepted LACs (≤0: 8). Smaller K certifies more
	// often and rolls back less work per violation.
	CertEvery int `json:"certEvery,omitempty"`
	// CertConflictLimit caps the SAT conflicts of each certification call
	// (0 = unlimited). An exhausted budget counts as a failed certification
	// — the engine rolls back — so limited runs stay deterministic.
	CertConflictLimit int64 `json:"certConflictLimit,omitempty"`

	// VECBEE baseline: the one-cut depth limit l (0 = ∞).
	DepthLimit int `json:"depthLimit,omitempty"`

	// Dual-phase parameters. M = 0 selects the paper defaults (60 for
	// circuits under 4000 AND nodes, 150 otherwise); N = 0 selects M/3.
	M int `json:"m,omitempty"`
	N int `json:"n,omitempty"`

	// MaxIters caps the number of applied LACs (safety; 0 = unlimited).
	MaxIters int `json:"maxIters,omitempty"`

	// TimeLimit bounds the wall-clock time of a run (0 = unlimited).
	// RunContext derives a deadline-carrying context from it; when the
	// limit expires the run stops cooperatively at the next checkpoint and
	// returns the best-so-far result with Stats.StopReason = StopDeadline.
	TimeLimit time.Duration `json:"timeLimit,omitempty"`
}

// Seed handling. Options.Seed = 0 is the zero value and therefore cannot
// mean "seed the RNG with 0": it is a documented alias for DefaultSeed,
// normalised by Resolved. Two runs whose resolved options agree — in
// particular, Seed: 0 and Seed: DefaultSeed — draw identical patterns and
// return bit-identical results.
const (
	// UseDefaultSeed is the zero value of Options.Seed: an alias for
	// DefaultSeed, not a seed of its own.
	UseDefaultSeed int64 = 0
	// DefaultSeed is the simulation seed an unset (zero) Options.Seed
	// resolves to.
	DefaultSeed int64 = 1
)

// MaxExhaustiveInputs bounds exhaustive simulation: 2^24 patterns.
const MaxExhaustiveInputs = 24

// Self-adaption parameters of §III-D, fixed by the paper: the candidate
// set grows or shrinks by rInc, and phase 2 is unconstrained while the
// error is below bR·E_b, halts on a relative error increase above eT
// while below bS·E_b, and halts on a cumulated increase above eT beyond.
const (
	rInc = 0.25
	bR   = 0.025
	bS   = 0.25
	eT   = 0.5
)

// AccALS [14]: at most maxMulti LACs per iteration, and a batch whose real
// error deviates from its estimate by more than accTol (relative) falls
// back to the single best LAC.
const (
	maxMulti = 10
	accTol   = 0.05
)

// Resolved returns o with every defaulted knob replaced by the value the
// run will actually use: Patterns 8192 when unset, Seed DefaultSeed when
// UseDefaultSeed, Threads all CPUs when ≤ 0, constant LACs when no LAC
// kind is enabled, negative structural knobs (DepthLimit, M, N, MaxIters,
// MaxLACsPerNode) clamped to their 0 "default" sentinel, and the WCE
// certification knobs normalised (CertEvery defaults to 8 on the WCE path;
// both are inert — zeroed — for other metrics). It is the only defaulting
// site of the stack: RunContext resolves on entry, so running o and
// o.Resolved() is bit-identical, which makes resolved options the right
// identity for memoising results (Threads aside, which never changes
// results). The alsd server keys its result cache on exactly this.
func (o Options) Resolved() Options {
	if o.Patterns <= 0 {
		o.Patterns = 8192
	}
	if o.Seed == UseDefaultSeed {
		o.Seed = DefaultSeed
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if !o.UseConstLACs && !o.UseSASIMILACs {
		o.UseConstLACs = true
	}
	o.MaxLACsPerNode = max(o.MaxLACsPerNode, 0)
	o.DepthLimit = max(o.DepthLimit, 0)
	o.M = max(o.M, 0)
	o.N = max(o.N, 0)
	o.MaxIters = max(o.MaxIters, 0)
	if o.Metric == metric.WCE {
		if o.CertEvery <= 0 {
			o.CertEvery = 8
		}
		o.CertConflictLimit = max(o.CertConflictLimit, 0)
	} else {
		// The certification knobs only exist on the WCE path; zeroing them
		// keeps resolved options a sound cache identity for the other
		// metrics (WCEBound ≠ 0 is rejected by Validate anyway).
		o.CertEvery = 0
		o.CertConflictLimit = 0
	}
	return o
}

// Validate checks o against a circuit with the given numbers of primary
// inputs and outputs. It is the one validation site of the stack: the
// public API, the alsd server and RunContext all call it.
func (o Options) Validate(inputs, outputs int) error {
	if o.Threshold < 0 {
		return errors.New("negative error threshold")
	}
	if o.Weights != nil && len(o.Weights) != outputs {
		return fmt.Errorf("%d weights for %d outputs", len(o.Weights), outputs)
	}
	if o.Metric == metric.WCE {
		// The certification miter reads the outputs as one unsigned
		// LSB-first number; arbitrary weights have no SAT counterpart.
		if o.Weights != nil {
			return errors.New("metric WCE uses the unsigned LSB-first output interpretation; weights must be nil")
		}
		if outputs > 62 {
			return fmt.Errorf("metric WCE limited to 62 outputs, circuit has %d", outputs)
		}
	} else if o.WCEBound != 0 {
		return errors.New("a WCE bound requires metric WCE")
	}
	if o.Exhaustive {
		if inputs > MaxExhaustiveInputs {
			return fmt.Errorf("exhaustive simulation infeasible for %d inputs (max %d)", inputs, MaxExhaustiveInputs)
		}
		return nil // input probabilities are ignored
	}
	for _, p := range o.InputProbabilities {
		if p < 0 || p > 1 {
			return fmt.Errorf("input probability %v out of [0,1]", p)
		}
	}
	return nil
}

// Hooks are the test and verification switches of a run, kept out of
// Options so the public API cannot reach them: the public entry points
// always pass the zero value, which is a production run.
type Hooks struct {
	// OnIteration, when non-nil, observes every applied LAC: the 1-based
	// iteration number, the chosen candidate, and the full sorted
	// evaluation of the iteration (phase-2 iterations only see the
	// candidate set S_cand). Used by the Fig. 4 experiment and the
	// verification campaign's evaluation traces.
	OnIteration func(iter int, chosen lac.NodeBest, bests []lac.NodeBest)

	// Fault, when non-nil, injects one deliberate bookkeeping mutation
	// into the run (see internal/fault): the engine consults the plan at
	// its bookkeeping sites and corrupts its state exactly once. Used only
	// by the alscheck campaign to prove the oracle cross-checks detect
	// real engine bugs. Plans are single-use: never share one across runs.
	Fault *fault.Plan

	// NoCPMCache makes the engine's CPM cache recompute every row an
	// analysis asks for, the ones it holds as valid included, while
	// charging CPMWork as the cached path does (valid rows charge their
	// recorded work as reused; see cpm.Cache.NoReuse). The DP-SA
	// trajectory therefore follows the cached run by construction, and a
	// row the cache's invalidation missed shows up as a different result:
	// the switch is the differential reference for the invalidation rule.
	// Circuit, error, applied LACs, MTrace and every work counter match a
	// cached run; only the CPM row counters and Pool differ, and they
	// report the rows actually recomputed.
	NoCPMCache bool

	// NoWarmStart disables the cross-round warm start of the comprehensive
	// analysis in the dual-phase flows: every phase-1 pass rebuilds the
	// disjoint cuts from scratch, revalidates every CPM row, and
	// re-evaluates every target. Results — including the deterministic
	// work profile DP-SA tunes from, and with it the whole self-adaption
	// trajectory — are bit-identical either way, because warm passes charge
	// the cold-equivalent work; the switch is the differential reference
	// for the reuse layer.
	NoWarmStart bool

	// AccTol overrides the AccALS estimate-deviation tolerance (0: accTol),
	// so tests can force or suppress the single-LAC fallback.
	AccTol float64
}

// StopReason tells why a synthesis run ended. Every run ends for exactly
// one of these reasons; callers that impose deadlines use it to tell a
// completed result from a best-so-far one.
type StopReason string

const (
	// StopBudget: natural completion — no remaining LAC fits the error
	// budget (or the circuit ran out of approximable nodes).
	StopBudget StopReason = "budget"
	// StopMaxIters: the Options.MaxIters safety cap was reached.
	StopMaxIters StopReason = "max-iters"
	// StopCancelled: the caller's context was cancelled; the result is the
	// valid best-so-far circuit at the last checkpoint.
	StopCancelled StopReason = "cancelled"
	// StopDeadline: Options.TimeLimit (or a context deadline) expired; the
	// result is the valid best-so-far circuit at the last checkpoint.
	StopDeadline StopReason = "deadline"
)

// Stats reports what a run did. It is the one result type of the stack;
// the JSON tags are the keys of alsrun's -stats dump, with durations in
// nanoseconds.
type Stats struct {
	Applied       int `json:"applied"`       // LACs applied in total
	Comprehensive int `json:"comprehensive"` // comprehensive (phase-1) analyses (= dual-phase rounds for DP)
	Incremental   int `json:"incremental"`   // incremental (phase-2) iterations
	Rollbacks     int `json:"rollbacks"`     // AccALS/VECBEE reverted iterations and WCE rollbacks
	NodesBefore   int `json:"nodes_before"`
	NodesAfter    int `json:"nodes_after"`

	Runtime time.Duration `json:"runtime_ns"`

	// Cumulated runtime of the three error-analysis steps of Fig. 3: (1)
	// obtaining/updating disjoint cuts, (2) calculating the CPM, (3)
	// calculating the error increases of the LACs. Each figure is the
	// summed duration of the matching obs spans ("cuts"/"cuts.update"/
	// "cuts.warm", "cpm"/"cpm.warm", "eval") — the single timing code path
	// shared with trace exports, so a -stats dump and a trace summary can
	// never disagree.
	CutTime  time.Duration `json:"cut_time_ns"`
	CPMTime  time.Duration `json:"cpm_time_ns"`
	EvalTime time.Duration `json:"eval_time_ns"`

	// Cumulated wall-clock time of the two phases, derived from the
	// durations of the "phase1" and "phase2" spans. Phase1Time covers every
	// comprehensive analysis (including the per-iteration analyses of the
	// conventional, VECBEE and AccALS baselines, which are all
	// phase-1-style); Phase2Time covers the incremental phase-2 loops of the
	// dual-phase flows, applies included. Phase1WarmTime is the slice of
	// Phase1Time spent in warm-started passes (see WarmComprehensive).
	Phase1Time     time.Duration `json:"phase1_time_ns"`
	Phase2Time     time.Duration `json:"phase2_time_ns"`
	Phase1WarmTime time.Duration `json:"phase1_warm_time_ns,omitempty"`

	// Deterministic work estimates of the three steps in bitvec word
	// operations, as self-reported by cut.Set.Work, cpm.Result.Work and
	// lac.EvaluateTargets. Unlike the times these are identical between
	// runs regardless of Threads, machine, or load, so DP-SA's
	// self-adaption (§III-D) profiles the steps with them — keeping the
	// whole flow bit-deterministic.
	CutWork  int64 `json:"cut_work"`
	CPMWork  int64 `json:"cpm_work"`
	EvalWork int64 `json:"eval_work"`

	// CPM cache row accounting (every disjoint-cut flow: conventional,
	// AccALS, DP, DP-SA): how many of the rows needed by the analyses were
	// served from the persistent incremental cache versus recomputed. Cold
	// comprehensive passes — every pass of the conventional and AccALS
	// baselines — recompute every row; warm passes and phase-2 iterations
	// reuse whatever the applied LACs did not invalidate. Zero for VECBEE,
	// which builds its one-cut CPM without the cache.
	CPMRowsReused     int64 `json:"cpm_rows_reused"`
	CPMRowsRecomputed int64 `json:"cpm_rows_recomputed"`

	// Cross-round warm-start accounting (dual-phase flows).
	// WarmComprehensive counts the comprehensive passes that reused the
	// incrementally maintained analysis state instead of rebuilding cold.
	// Warm passes charge CutWork, CPMWork and EvalWork with the
	// cold-equivalent work — reused cuts, rows and evaluations charge the
	// cost recorded at their last computation — so the profile DP-SA tunes
	// from, and with it the whole trajectory, is bit-identical between warm
	// and cold runs. SkippedWork is how much of that charged work was
	// served from the previous round instead of performed; EvalMemoHits
	// counts the target evaluations reused whole from the cross-round memo;
	// Phase1RowsReused / Phase1RowsRecomputed are the comprehensive-pass
	// slice of the row accounting above.
	WarmComprehensive    int   `json:"warm_comprehensive,omitempty"`
	Phase1RowsReused     int64 `json:"phase1_rows_reused,omitempty"`
	Phase1RowsRecomputed int64 `json:"phase1_rows_recomputed,omitempty"`
	SkippedWork          int64 `json:"skipped_work,omitempty"`
	EvalMemoHits         int64 `json:"eval_memo_hits,omitempty"`

	// CutUpdates counts the incremental cut-set repairs performed after
	// applied LACs (dual-phase flows): each applied LAC patches the
	// affected cut cones in place instead of rebuilding the set.
	CutUpdates int `json:"cut_updates_incremental,omitempty"`

	// Pool is the final snapshot of the CPM cache's diff-vector free list
	// (every disjoint-cut flow; zero for VECBEE, and restarted by every
	// rollback, which binds a new cache to the restored graph) —
	// deterministic like the work counters, see bitvec.PoolStats.
	Pool bitvec.PoolStats `json:"-"`

	// MTrace is the DP-SA self-adaption trajectory: the candidate-set size
	// M after each dual-phase round. Nil for other flows.
	MTrace []int `json:"m_trace,omitempty"`

	// WCE-constrained flow accounting (Metric == metric.WCE; zero
	// otherwise). CertifiedWCE is the SAT-proven worst-case error bound of
	// the returned circuit: the solver certified that NO input deviates by
	// more than this, so it holds on all 2^PIs inputs and never exceeds
	// Options.WCEBound — every emitted circuit is certified, even on
	// cancellation (the uncertified tail is rolled back instead of running
	// new SAT work). CertCalls counts SAT certification calls, CertCexHits
	// the certifications refuted by a cached counterexample without solver
	// work, CertRollbacks the checkpoint failures that triggered the
	// rollback-and-replay path, and CertTime the summed duration of the
	// "cert" spans.
	CertifiedWCE  uint64        `json:"certified_wce,omitempty"`
	CertCalls     int           `json:"cert_calls,omitempty"`
	CertCexHits   int           `json:"cert_cex_hits,omitempty"`
	CertRollbacks int           `json:"cert_rollbacks,omitempty"`
	CertTime      time.Duration `json:"cert_time_ns,omitempty"`

	// StopReason tells why the run ended (budget, max-iters, cancelled,
	// deadline). Always set by RunContext.
	StopReason StopReason `json:"stop_reason"`
}

// ReuseRate returns the fraction of needed CPM rows that were served from
// the incremental cache (0 when the cache saw no rows).
func (s Stats) ReuseRate() float64 { return frac(s.CPMRowsReused, s.CPMRowsRecomputed) }

// Phase1ReuseRate returns the fraction of phase-1 CPM rows served from the
// previous round by warm-started comprehensive passes (0 when no phase-1
// rows were accounted).
func (s Stats) Phase1ReuseRate() float64 {
	return frac(s.Phase1RowsReused, s.Phase1RowsRecomputed)
}

func frac(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}
