// Package metric implements the statistical error metrics of the paper —
// error rate (ER), mean squared error (MSE) and mean error distance (MED) —
// over a set of simulated input patterns.
//
// A State tracks the deviation of the current approximate circuit from the
// exact reference: a signed numeric deviation per pattern for the numeric
// metrics, and per-PO mismatch bit planes for ER and MSE. Candidate LACs
// are evaluated without touching the circuit: given the LAC's value-change
// mask D and the target's CPM row, the new error is computed from only the
// flipped (pattern, PO) pairs, which makes a single-LAC estimate exact with
// respect to the sampled patterns — the property the dual-phase framework
// relies on (papers [19], [20]).
package metric

import (
	"fmt"
	"math"
	"math/bits"

	"dpals/internal/bitvec"
	"dpals/internal/cpm"
)

// Kind selects the error metric.
type Kind int

// Supported metrics.
const (
	ER  Kind = iota // error rate: fraction of patterns with any wrong output
	MSE             // mean squared numeric error
	MED             // mean absolute numeric error (error distance)
	MHD             // mean Hamming distance: average number of wrong output bits
	WCE             // worst-case numeric error: max |approx − exact| over patterns
)

func (k Kind) String() string {
	switch k {
	case ER:
		return "ER"
	case MSE:
		return "MSE"
	case MED:
		return "MED"
	case MHD:
		return "MHD"
	case WCE:
		return "WCE"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Numeric reports whether the metric interprets outputs as a weighted
// number (and therefore requires Weights).
func (k Kind) Numeric() bool { return k == MSE || k == MED || k == WCE }

// Weights assigns a numeric weight to each primary output for MSE/MED.
// ER ignores weights.
type Weights []float64

// UnsignedWeights interprets n outputs as an unsigned binary number,
// LSB first: weight of output i is 2^i.
func UnsignedWeights(n int) Weights {
	w := make(Weights, n)
	for i := range w {
		w[i] = math.Ldexp(1, i)
	}
	return w
}

// TwosComplementWeights interprets n outputs as a two's-complement number,
// LSB first: the MSB carries weight −2^(n−1).
func TwosComplementWeights(n int) Weights {
	w := UnsignedWeights(n)
	if n > 0 {
		w[n-1] = -w[n-1]
	}
	return w
}

// ReferenceError returns the paper's reference error R = 2^(K/3) for a
// circuit with K outputs; MED thresholds are multiples of R and MSE
// thresholds multiples of R².
func ReferenceError(k int) float64 { return math.Pow(2, float64(k)/3) }

// MaxDeviation returns the largest value the per-pattern contribution of
// the metric can take for a circuit with numPOs outputs: 1 for ER (a
// pattern either mismatches or not), numPOs for MHD, Σ|w| for MED, and
// (Σ|w|)² for MSE. This is the range that makes Hoeffding's inequality
// applicable to the Monte-Carlo estimate, which is the mean of n
// independent per-pattern contributions bounded in [0, MaxDeviation].
func MaxDeviation(kind Kind, weights Weights, numPOs int) float64 {
	switch kind {
	case ER:
		return 1
	case MHD:
		return float64(numPOs)
	}
	sum := 0.0
	for _, w := range weights {
		sum += math.Abs(w)
	}
	if kind == MSE {
		return sum * sum
	}
	return sum
}

// HoeffdingDelta returns the deviation t such that a mean of n independent
// samples bounded in [0, rang] differs from its expectation by more than t
// with probability at most alpha: t = rang·√(ln(2/alpha)/(2n)). The oracle
// cross-check uses it to bound how far a Monte-Carlo metric estimate may
// legitimately sit from the exhaustively enumerated exact value; a larger
// gap is a miscounting bug, not sampling noise.
func HoeffdingDelta(rang float64, n int, alpha float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return rang * math.Sqrt(math.Log(2/alpha)/(2*float64(n)))
}

// State tracks the error of an evolving approximate circuit against a fixed
// exact reference.
type State struct {
	kind     Kind
	weights  Weights
	patterns int
	words    int

	exact []bitvec.Vec // reference PO words
	cur   []bitvec.Vec // current approximate PO words

	// planes caches, word-major (planes[wi*numPOs+q]), the deviation plane
	// of every PO: the patterns where its current bit differs from the
	// reference, and for MSE the subset whose deviation term is negative.
	// CommitPO keeps it current. It is set for ER, and for MSE when the
	// weights admit the integer kernel (see mseKernel), the two metrics
	// scored word-parallel.
	planes []plane
	absW   []int64  // MSE kernel: |w| per PO
	negW   []uint64 // MSE kernel: all-ones for a negative weight, else zero
	devSq  []int64  // MSE kernel: Σ dev² over each word's patterns

	dev []float64 // per pattern: approx − exact (numeric metrics)

	errSum   float64 // MSE: Σ dev²; MED: Σ |dev|
	errCount int     // ER: patterns with ≥1 mismatching PO
	mismSum  int64   // MHD: mismatching (pattern, PO) pairs

	// wceMax caches max |dev| over all patterns for WCE. CommitPO keeps it
	// current (rescanning when a pattern at the max shrinks), so Error stays
	// a pure read and concurrent Evaluators remain safe.
	wceMax   float64
	wceDirty bool

	def *Evaluator // lazily created default evaluator for EvalLAC
}

// plane is a signed bit plane over the 64 patterns of one word: every
// pattern in bits contributes +w, except those also in neg, which
// contribute −w. Flips and deviations of one PO are both such planes, with
// w = |weight|.
type plane struct {
	bits, neg uint64
	w         int64
}

// dot returns Σ sign_s(i)·sign_t(i) over the patterns of both planes,
// where sign is −1 on neg and +1 elsewhere: the patterns they share, minus
// twice those on which exactly one is negative.
func dot(s, t plane) int64 {
	both := s.bits & t.bits
	return int64(bits.OnesCount64(both) - 2*bits.OnesCount64(both&(s.neg^t.neg)))
}

// mseKernel reports whether MSE may be scored by the integer kernel: every
// weight is an integer, Σ|w| ≤ 2^26 and patterns·(Σ|w|)² ≤ 2^60. Every
// per-pattern deviation is then an integer of magnitude at most Σ|w|, its
// square is exact in float64, and every sum the kernel forms fits an
// int64. Whether a particular score is bit-identical to the per-pattern
// float fold is decided per candidate (evalMSE).
func mseKernel(w Weights, patterns int) bool {
	s := 0.0
	for _, x := range w {
		if x != math.Trunc(x) { // also rejects NaN and ±Inf
			return false
		}
		s += math.Abs(x)
	}
	if s > 1<<26 {
		return false
	}
	hi, lo := bits.Mul64(uint64(patterns), uint64(s*s))
	return hi == 0 && lo <= 1<<60
}

// Evaluator holds per-worker scratch for candidate evaluation. Multiple
// evaluators over one State may run concurrently as long as the State is
// not mutated (no CommitPO) during evaluation.
type Evaluator struct {
	st *State

	// Word-parallel kernels: per-word scratch sized by the PO count.
	flips []plane  // MSE: the row's non-empty flip planes of one word
	devs  []plane  // MSE: the word's non-empty deviation planes
	rowF  []uint64 // ER: the row's flips of one word, indexed by PO

	// Per-pattern scan (MED, WCE, and MSE where the kernel does not apply),
	// allocated on first use.
	delta   []float64
	touched []int32
	onStack []bool
}

// NewEvaluator returns an independent evaluation scratch for this state.
func (st *State) NewEvaluator() *Evaluator {
	ev := &Evaluator{st: st}
	switch {
	case st.kind == ER:
		ev.rowF = make([]uint64, len(st.cur))
	case st.kind == MSE && st.planes != nil:
		ev.flips = make([]plane, 0, len(st.cur))
		ev.devs = make([]plane, 0, len(st.cur))
	}
	return ev
}

// NewState builds the tracking state. exact are the reference PO value
// vectors (one per PO, in PO order); the approximate circuit is assumed to
// start identical to the reference. weights may be nil for ER.
func NewState(kind Kind, exact []bitvec.Vec, weights Weights, patterns int) *State {
	if kind.Numeric() && len(weights) != len(exact) {
		panic("metric: weights must match PO count for numeric metrics")
	}
	words := 0
	if len(exact) > 0 {
		words = len(exact[0])
	}
	st := &State{
		kind:     kind,
		weights:  weights,
		patterns: patterns,
		words:    words,
		exact:    make([]bitvec.Vec, len(exact)),
		cur:      make([]bitvec.Vec, len(exact)),
	}
	for i, e := range exact {
		st.exact[i] = e.Clone()
		st.cur[i] = e.Clone()
	}
	if kind.Numeric() {
		st.dev = make([]float64, patterns)
	}
	if kind == ER || kind == MSE && mseKernel(weights, patterns) {
		// The approximation starts exact, so every plane starts empty.
		st.planes = make([]plane, words*len(exact))
	}
	if kind == MSE && st.planes != nil {
		st.devSq = make([]int64, words)
		st.absW = make([]int64, len(weights))
		st.negW = make([]uint64, len(weights))
		for q, w := range weights {
			st.absW[q] = int64(math.Abs(w))
			if w < 0 {
				st.negW[q] = ^uint64(0)
			}
			for wi := 0; wi < words; wi++ {
				st.planes[wi*len(exact)+q].w = st.absW[q]
			}
		}
	}
	return st
}

// Kind returns the tracked metric.
func (st *State) Kind() Kind { return st.kind }

// Patterns returns the number of tracked patterns.
func (st *State) Patterns() int { return st.patterns }

// Error returns the current error of the approximate circuit. For WCE it
// is the sampled maximum deviation — a lower bound on the true worst case,
// which is why the WCE flow pairs it with SAT certification.
func (st *State) Error() float64 {
	x := float64(st.patterns)
	switch st.kind {
	case ER:
		return float64(st.errCount) / x
	case MHD:
		return float64(st.mismSum) / x
	case WCE:
		return st.wceMax
	default:
		return st.errSum / x
	}
}

// EvalLAC returns the error the circuit would have after a LAC whose target
// value-change mask is D (patterns where the target node's value flips) and
// whose change propagation row is row. The circuit state is unchanged.
// Row PO indices must be unique — guaranteed for rows built by package cpm,
// whose cut elements partition the reachable POs. For concurrent
// evaluation, use per-worker Evaluators via NewEvaluator.
func (st *State) EvalLAC(D bitvec.Vec, row *cpm.Row) float64 {
	if st.def == nil {
		st.def = st.NewEvaluator()
	}
	return st.def.EvalLAC(D, row)
}

// EvalLAC is the worker-scratch variant of State.EvalLAC.
func (ev *Evaluator) EvalLAC(D bitvec.Vec, row *cpm.Row) float64 {
	return ev.evalFlips(D, nil, 0, row)
}

// EvalLACXor is EvalLAC with the value-change mask supplied unmaterialised:
// the mask is a ⊕ b ⊕ inv, where inv is a word-level complement mask (zero
// or all-ones), so scoring a candidate needs no scratch diff vector at all.
// A nil b stands for the all-zero vector (constant-0 replacement). Padding
// bits that inv turns on past the logical length never contribute: the CPM
// row vectors they are ANDed with are masked.
func (ev *Evaluator) EvalLACXor(a, b bitvec.Vec, inv uint64, row *cpm.Row) float64 {
	return ev.evalFlips(a, b, inv, row)
}

// flipWord returns word wi of the value-change mask a⊕b⊕inv (nil b = zero).
func flipWord(a, b bitvec.Vec, inv uint64, wi int) uint64 {
	m := a[wi] ^ inv
	if b != nil {
		m ^= b[wi]
	}
	return m
}

// evalFlips scores the LAC whose value-change mask is a⊕b⊕inv (nil b = zero
// vector). A score depends only on the state, the mask and the row, never
// on which worker computes it, which is what keeps results bit-identical
// across thread counts:
//
//   - ER, MHD and MSE are scored word-parallel with popcounts in integer
//     arithmetic — see evalER, evalMHD and evalMSE. The integers are
//     exact, so the result is the same float64 however the sums are
//     grouped; evalMSE declines a candidate whose score it cannot prove
//     equal to the scan's.
//   - MED, WCE and MSE otherwise scan the flipped bits (scanDelta)
//     and fold the touched patterns once. Each per-pattern delta is a sum
//     of ±w over one pattern's flipped POs, added in row order, and the
//     fold visits patterns in first-touch order; both orders are fixed by
//     the row and the mask.
func (ev *Evaluator) evalFlips(a, b bitvec.Vec, inv uint64, row *cpm.Row) float64 {
	st := ev.st
	switch {
	case st.kind == ER:
		return ev.evalER(a, b, inv, row)
	case st.kind == MHD:
		return ev.evalMHD(a, b, inv, row)
	case st.kind == MSE && st.planes != nil:
		if e, ok := ev.evalMSE(a, b, inv, row); ok {
			return e
		}
	}
	if ev.delta == nil {
		ev.delta = make([]float64, st.patterns)
		ev.onStack = make([]bool, st.patterns)
	}
	ev.touched = ev.touched[:0]
	for ri, o := range row.POs {
		ev.scanDelta(a, b, row.Diffs[ri], st.cur[o], inv, st.weights[o])
	}
	var out float64
	x := float64(st.patterns)
	switch st.kind {
	case MSE:
		sum := st.errSum
		for _, i := range ev.touched {
			nd := st.dev[i] + ev.delta[i]
			sum += nd*nd - st.dev[i]*st.dev[i]
		}
		out = sum / x
	case MED:
		sum := st.errSum
		for _, i := range ev.touched {
			nd := st.dev[i] + ev.delta[i]
			sum += math.Abs(nd) - math.Abs(st.dev[i])
		}
		out = sum / x
	case WCE:
		// Upper bound on the post-apply sampled max: touched patterns are
		// scored exactly, untouched ones are bounded by the current max.
		out = st.wceMax
		for _, i := range ev.touched {
			if nd := math.Abs(st.dev[i] + ev.delta[i]); nd > out {
				out = nd
			}
		}
	}
	for _, i := range ev.touched {
		ev.onStack[i] = false
		ev.delta[i] = 0
	}
	ev.touched = ev.touched[:0]
	return out
}

// evalMHD scores mean Hamming distance, which is linear in the per-(pattern,
// PO) flips: a flip on an agreeing bit adds one mismatch, on a disagreeing
// bit removes one. Both counts are word-level popcounts.
func (ev *Evaluator) evalMHD(a, b bitvec.Vec, inv uint64, row *cpm.Row) float64 {
	st := ev.st
	sum := st.mismSum
	for ri, o := range row.POs {
		p := row.Diffs[ri]
		curW, exW := st.cur[o], st.exact[o]
		for wi := range a {
			f := flipWord(a, b, inv, wi) & p[wi]
			if f == 0 {
				continue
			}
			agree := ^(curW[wi] ^ exW[wi])
			sum += int64(bits.OnesCount64(f&agree) - bits.OnesCount64(f&^agree))
		}
	}
	return float64(sum) / float64(st.patterns)
}

// evalER scores error rate by counting wrong patterns a word at a time.
// With f_o the row's flips of PO o (zero for POs outside the row), the
// patterns wrong after the LAC are ⋁_q (x_q ⊕ f_q), where x_q is PO q's
// deviation plane; the count moves by the popcount difference between
// that mask and the current ⋁_q x_q, on every word the row flips.
func (ev *Evaluator) evalER(a, b bitvec.Vec, inv uint64, row *cpm.Row) float64 {
	st := ev.st
	k := len(st.cur)
	cnt := st.errCount
	for wi := range a {
		m := flipWord(a, b, inv, wi)
		if m == 0 {
			continue
		}
		var u uint64
		for ri, o := range row.POs {
			f := m & row.Diffs[ri][wi]
			ev.rowF[o] = f
			u |= f
		}
		if u == 0 {
			continue
		}
		var was, now uint64
		for q, pl := range st.planes[wi*k : wi*k+k] {
			was |= pl.bits
			now |= pl.bits ^ ev.rowF[q]
		}
		cnt += bits.OnesCount64(now) - bits.OnesCount64(was)
	}
	for _, o := range row.POs {
		ev.rowF[o] = 0
	}
	return float64(cnt) / float64(st.patterns)
}

// evalMSE scores mean squared error as a popcount quadratic form. Per
// word, the deviation change of pattern i is Δ_i = Σ_o |w_o|·s_o(i) over
// the row's flip planes s_o, and the current deviation is dev_i =
// Σ_q |w_q|·t_q(i) over the cached deviation planes t_q. The new error sum
// is Σ (dev_i + Δ_i)² = errSum + Σ Δ_i² + 2·Σ dev_i·Δ_i, with
//
//	Σ Δ_i²       = Σ_{o,o'} |w_o||w_o'|·⟨s_o, s_o'⟩
//	Σ dev_i·Δ_i  = Σ_{o,q}  |w_o||w_q|·⟨s_o, t_q⟩
//
// and each ⟨·,·⟩ a pair of popcounts (dot).
//
// The scan's fold adds nd_i² − dev_i² (nd_i = dev_i + Δ_i) to errSum over
// the touched patterns U, one at a time. Those terms are exact integers
// (mseKernel), so the fold is exact — and equal to this integer result
// whatever its order — as long as every partial sum stays within 2^53.
// Each lies within |errSum| + Σ_U dev² + Σ_U nd² = |errSum| + 2·Σ_U dev² + d,
// where d = Σ_U (nd² − dev²) is the change computed here and Σ_U dev² is
// bounded by the cached Σ dev² of the words U touches. When that bound
// exceeds 2^53 evalMSE returns ok = false and the caller scans instead.
func (ev *Evaluator) evalMSE(a, b bitvec.Vec, inv uint64, row *cpm.Row) (e float64, ok bool) {
	st := ev.st
	k := len(st.cur)
	var sq, cross, touchedSq int64 // Σ Δ², Σ dev·Δ, Σ dev² over touched words
	for wi := range a {
		m := flipWord(a, b, inv, wi)
		if m == 0 {
			continue
		}
		fs := ev.flips[:0]
		for ri, o := range row.POs {
			if f := m & row.Diffs[ri][wi]; f != 0 {
				// A flip lowers the value by |w| where the current bit is
				// 1 under a positive weight, or 0 under a negative one.
				fs = append(fs, plane{bits: f, neg: f & (st.cur[o][wi] ^ st.negW[o]), w: st.absW[o]})
			}
		}
		if len(fs) == 0 {
			continue
		}
		touchedSq += st.devSq[wi]
		ds := ev.devs[:0]
		for _, pl := range st.planes[wi*k : wi*k+k] {
			if pl.bits != 0 {
				ds = append(ds, pl)
			}
		}
		for j, s := range fs {
			var pair, c int64
			for _, s2 := range fs[j+1:] {
				pair += s2.w * dot(s, s2)
			}
			for _, t := range ds {
				c += t.w * dot(s, t)
			}
			sq += s.w * (s.w*int64(bits.OnesCount64(s.bits)) + 2*pair)
			cross += s.w * c
		}
	}
	d := sq + 2*cross
	cur := int64(st.errSum) // an integer-valued float below 2^61 (mseKernel)
	if max(cur, -cur)+2*touchedSq+d > 1<<53 {
		return 0, false
	}
	return float64(cur+d) / float64(st.patterns), true
}

// scanDelta is the per-pattern inner loop of MED, WCE and the MSE scores
// evalMSE declines: accumulate the signed deviation delta (±wo per flip,
// sign from the current bit) of every flipped bit into ev.delta, recording
// each touched pattern once for the fold.
func (ev *Evaluator) scanDelta(a, b, p, curW bitvec.Vec, inv uint64, wo float64) {
	for wi := range a {
		w := flipWord(a, b, inv, wi) & p[wi]
		if w == 0 {
			continue
		}
		base := wi << 6
		cw := curW[wi]
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			i := base + bit
			if !ev.onStack[i] {
				ev.onStack[i] = true
				ev.touched = append(ev.touched, int32(i))
			}
			if cw>>uint(bit)&1 != 0 {
				ev.delta[i] -= wo
			} else {
				ev.delta[i] += wo
			}
			w &= w - 1
		}
	}
}

// CommitPO records that PO o's value vector is now newVal, updating the
// tracked error incrementally from the changed words.
func (st *State) CommitPO(o int, newVal bitvec.Vec) {
	curW := st.cur[o]
	exW := st.exact[o]
	k := len(st.cur)
	for wi := 0; wi < st.words; wi++ {
		d := curW[wi] ^ newVal[wi]
		if d == 0 {
			continue
		}
		oldX, newX := curW[wi]^exW[wi], newVal[wi]^exW[wi]
		switch st.kind {
		case ER:
			var others uint64
			for q, pl := range st.planes[wi*k : wi*k+k] {
				if q != o {
					others |= pl.bits
				}
			}
			st.errCount += bits.OnesCount64(others|newX) - bits.OnesCount64(others|oldX)
		case MHD:
			st.mismSum += int64(bits.OnesCount64(newX) - bits.OnesCount64(oldX))
		default:
			st.commitDev(o, wi, d)
		}
		curW[wi] = newVal[wi]
		if st.planes != nil {
			pl := &st.planes[wi*k+o]
			pl.bits = newX
			if st.negW != nil {
				// A deviation is negative where the current bit is 0
				// under a positive weight, or 1 under a negative one.
				pl.neg = newX &^ (newVal[wi] ^ st.negW[o])
			}
		}
	}
	if st.wceDirty {
		// A pattern that carried the max shrank; rescan. Done here (not
		// lazily in Error) so Error stays read-only under concurrent
		// evaluation.
		st.wceDirty = false
		m := 0.0
		for _, dv := range st.dev {
			if a := math.Abs(dv); a > m {
				m = a
			}
		}
		st.wceMax = m
	}
}

// commitDev applies the flips d of PO o in word wi, whose current value
// bits are still unchanged, to the per-pattern deviations of a numeric
// metric.
func (st *State) commitDev(o, wi int, d uint64) {
	cw := st.cur[o][wi]
	for ; d != 0; d &= d - 1 {
		bit := bits.TrailingZeros64(d)
		i := wi<<6 + bit
		old := st.dev[i]
		if cw>>uint(bit)&1 != 0 {
			st.dev[i] -= st.weights[o]
		} else {
			st.dev[i] += st.weights[o]
		}
		switch st.kind {
		case MSE:
			st.errSum += st.dev[i]*st.dev[i] - old*old
			if st.devSq != nil {
				st.devSq[wi] += int64(st.dev[i]*st.dev[i] - old*old)
			}
		case WCE:
			if na := math.Abs(st.dev[i]); na >= st.wceMax {
				st.wceMax = na
			} else if math.Abs(old) == st.wceMax {
				st.wceDirty = true
			}
		default:
			st.errSum += math.Abs(st.dev[i]) - math.Abs(old)
		}
	}
}

// Compute evaluates the metric from scratch between two full sets of PO
// words — the reference implementation used for validation and tests.
func Compute(kind Kind, weights Weights, exact, approx []bitvec.Vec, patterns int) float64 {
	if len(exact) != len(approx) {
		panic("metric: PO count mismatch")
	}
	x := float64(patterns)
	switch kind {
	case ER:
		cnt := 0
		for i := 0; i < patterns; i++ {
			for o := range exact {
				if exact[o].Get(i) != approx[o].Get(i) {
					cnt++
					break
				}
			}
		}
		return float64(cnt) / x
	case MHD:
		bits := 0
		for o := range exact {
			bits += bitvec.XorCount(exact[o], approx[o])
		}
		return float64(bits) / x
	default:
		sum := 0.0
		maxAbs := 0.0
		for i := 0; i < patterns; i++ {
			dev := 0.0
			for o := range exact {
				e := exact[o].Get(i)
				a := approx[o].Get(i)
				if e != a {
					if a {
						dev += weights[o]
					} else {
						dev -= weights[o]
					}
				}
			}
			switch kind {
			case MSE:
				sum += dev * dev
			case WCE:
				if a := math.Abs(dev); a > maxAbs {
					maxAbs = a
				}
			default:
				sum += math.Abs(dev)
			}
		}
		if kind == WCE {
			return maxAbs
		}
		return sum / x
	}
}
