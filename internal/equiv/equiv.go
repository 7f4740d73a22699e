// Package equiv provides formal (SAT-based) checks on synthesis results:
// combinational equivalence of two circuits, and worst-case-error
// certification of an approximate circuit — "for every input, the numeric
// output deviation is at most T" — via a miter construction and the CDCL
// solver in package sat. Monte-Carlo metrics (package metric) bound the
// average case; these checks bound the worst case, completing the
// verification story an approximate-synthesis release needs.
package equiv

import (
	"errors"
	"fmt"

	"dpals/internal/aig"
	"dpals/internal/gen"
	"dpals/internal/sat"
)

// tseitin encodes graph g into s. piVars[i] is the solver variable of the
// i-th primary input; the returned slice holds one solver literal per
// primary output.
func tseitin(s *sat.Solver, g *aig.Graph, piVars []int) []sat.Lit {
	lits := make([]sat.Lit, g.NumVars())
	// Constant false: a dedicated variable forced to 0.
	cf := s.NewVar()
	s.AddClause(sat.MkLit(cf, true))
	lits[0] = sat.MkLit(cf, false)
	for i, v := range g.PIs() {
		lits[v] = sat.MkLit(piVars[i], false)
	}
	conv := func(l aig.Lit) sat.Lit {
		out := lits[l.Var()]
		if l.IsCompl() {
			out = out.Not()
		}
		return out
	}
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		a, b := conv(f0), conv(f1)
		y := s.NewVar()
		yl := sat.MkLit(y, false)
		// y ↔ a∧b
		s.AddClause(yl.Not(), a)
		s.AddClause(yl.Not(), b)
		s.AddClause(yl, a.Not(), b.Not())
		lits[v] = yl
	}
	outs := make([]sat.Lit, g.NumPOs())
	for o, po := range g.POs() {
		outs[o] = conv(po)
	}
	return outs
}

// Equivalent checks combinational equivalence of a and b (identical PI/PO
// interfaces). On inequivalence it returns a counterexample input
// assignment (indexed like the PIs).
func Equivalent(a, b *aig.Graph) (bool, []bool, error) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false, nil, errors.New("equiv: interface mismatch")
	}
	s := sat.New()
	piVars := make([]int, a.NumPIs())
	for i := range piVars {
		piVars[i] = s.NewVar()
	}
	oa := tseitin(s, a, piVars)
	ob := tseitin(s, b, piVars)
	// Miter: OR of output XORs must be satisfiable for inequivalence.
	var diffs []sat.Lit
	for o := range oa {
		x := s.NewVar()
		xl := sat.MkLit(x, false)
		// x ↔ (oa ⊕ ob)
		s.AddClause(xl.Not(), oa[o], ob[o])
		s.AddClause(xl.Not(), oa[o].Not(), ob[o].Not())
		s.AddClause(xl, oa[o].Not(), ob[o])
		s.AddClause(xl, oa[o], ob[o].Not())
		diffs = append(diffs, xl)
	}
	if !s.AddClause(diffs...) {
		return true, nil, nil // no satisfiable difference
	}
	switch s.Solve() {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		cex := make([]bool, len(piVars))
		for i, v := range piVars {
			cex[i] = s.Model(v)
		}
		return false, cex, nil
	}
	return false, nil, errors.New("equiv: solver limit reached")
}

// buildWCEMiter constructs a single-output circuit that is 1 exactly when
// |orig(x) − approx(x)| > t, reading both output vectors as unsigned
// LSB-first integers.
func buildWCEMiter(orig, approx *aig.Graph, t uint64) *aig.Graph {
	g := aig.New("wce-miter")
	b := &gen.Builder{G: g}
	pis := make([]aig.Lit, orig.NumPIs())
	for i := range pis {
		pis[i] = g.AddPI(fmt.Sprintf("x%d", i))
	}
	ao := gen.Word(aig.AppendGraph(g, orig, pis))
	aa := gen.Word(aig.AppendGraph(g, approx, pis))
	d0, borrow := b.Sub(ao, aa) // orig − approx (mod 2^K), borrow ⇒ approx > orig
	d1, _ := b.Sub(aa, ao)
	abs := b.Mux(borrow, d1, d0)
	thr := b.Const(t, len(abs))
	viol := b.LtU(thr, abs) // t < |diff|
	g.AddPO(viol, "violation")
	return g
}

// WCEAtMost reports whether the worst-case numeric error of approx against
// orig (unsigned LSB-first output interpretation) is at most t for every
// input. On failure it returns a violating input assignment.
func WCEAtMost(orig, approx *aig.Graph, t uint64) (bool, []bool, error) {
	ok, cex, _, err := wceAtMost(orig, approx, t, 0)
	return ok, cex, err
}

// ErrBudget reports that a conflict-limited certification call ran out of
// budget before reaching a verdict. The WCE flow treats it as a failed
// certification (roll back), which keeps runs deterministic.
var ErrBudget = errors.New("equiv: certification conflict budget exhausted")

// solveCost is the solver work of one certification call.
type solveCost struct {
	conflicts, propagations int64
}

// wceAtMost is WCEAtMost with a conflict budget (0 = unlimited); hitting
// the budget returns ErrBudget. It also reports the solver work spent.
func wceAtMost(orig, approx *aig.Graph, t uint64, limit int64) (bool, []bool, solveCost, error) {
	var cost solveCost
	if orig.NumPIs() != approx.NumPIs() || orig.NumPOs() != approx.NumPOs() {
		return false, nil, cost, errors.New("equiv: interface mismatch")
	}
	if orig.NumPOs() > 63 {
		return false, nil, cost, errors.New("equiv: WCE certification limited to ≤ 63 outputs")
	}
	// |orig − approx| ≤ 2^K − 1 always; a threshold at or above that is
	// trivially satisfied. This also guards the miter construction, whose
	// threshold word is only K bits wide — encoding a larger t there would
	// silently truncate it mod 2^K and report a spurious violation.
	if maxDiff := uint64(1)<<uint(orig.NumPOs()) - 1; t >= maxDiff {
		return true, nil, cost, nil
	}
	m := buildWCEMiter(orig, approx, t)
	s := sat.New()
	s.MaxConflicts = limit
	piVars := make([]int, m.NumPIs())
	for i := range piVars {
		piVars[i] = s.NewVar()
	}
	outs := tseitin(s, m, piVars)
	if !s.AddClause(outs[0]) {
		return true, nil, cost, nil
	}
	st := s.Solve()
	cost = solveCost{s.Conflicts(), s.Propagations()}
	switch st {
	case sat.Unsat:
		return true, nil, cost, nil
	case sat.Sat:
		cex := make([]bool, len(piVars))
		for i, v := range piVars {
			cex[i] = s.Model(v)
		}
		return false, cex, cost, nil
	}
	if limit > 0 {
		return false, nil, cost, ErrBudget
	}
	return false, nil, cost, errors.New("equiv: solver limit reached")
}

// evalOutputs evaluates g on one input assignment and returns the PO
// vector read as an unsigned LSB-first integer (≤ 63 POs).
func evalOutputs(g *aig.Graph, pi []bool) uint64 {
	vals := make([]bool, g.NumVars())
	for i, v := range g.PIs() {
		vals[v] = pi[i]
	}
	lit := func(l aig.Lit) bool {
		v := vals[l.Var()]
		if l.IsCompl() {
			return !v
		}
		return v
	}
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		vals[v] = lit(f0) && lit(f1)
	}
	var out uint64
	for o, po := range g.POs() {
		if lit(po) {
			out |= 1 << uint(o)
		}
	}
	return out
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// maxCertCexs bounds the Certifier's counterexample cache; beyond it the
// oldest entries are dropped (newer cexs track the current circuit best).
const maxCertCexs = 64

// certCex is one cached violating input with the reference circuit's
// output value on it (the reference never changes, the approximation does).
type certCex struct {
	pi      []bool
	origVal uint64
}

// Certifier is the incremental certification entry point of the
// WCE-constrained flow: repeated bound checks of an evolving approximate
// circuit against one fixed reference. Counterexamples from failed calls
// are cached and replayed by direct simulation before any SAT work — a
// LAC batch that re-violates an already-seen input is refuted without
// touching the solver, which is what keeps the amortized certification
// cheap across rollback/re-apply cycles.
//
// The reference graph is captured by reference; the caller must not
// mutate it. A Certifier is not safe for concurrent use.
type Certifier struct {
	orig *aig.Graph

	// Limit caps the SAT conflicts of each certification call on its own
	// (sat.Solver.MaxConflicts); 0 means unlimited. An exhausted budget
	// surfaces as ErrBudget.
	Limit int64

	// Calls counts SAT solver invocations; CexHits counts certifications
	// refuted by a cached counterexample with no solver work. Conflicts and
	// Propagations total the solver work of all calls.
	Calls        int
	CexHits      int
	Conflicts    int64
	Propagations int64

	cexs []certCex
}

// NewCertifier builds a certifier against the reference circuit orig.
func NewCertifier(orig *aig.Graph) *Certifier { return &Certifier{orig: orig} }

// CheckAt reports whether approx's worst-case error against the reference
// is at most t. Cached counterexamples are screened by simulation first;
// only then does a (conflict-limited) SAT call decide.
func (c *Certifier) CheckAt(approx *aig.Graph, t uint64) (bool, error) {
	for i := range c.cexs {
		av := evalOutputs(approx, c.cexs[i].pi)
		if absDiff(c.cexs[i].origVal, av) > t {
			c.CexHits++
			return false, nil
		}
	}
	ok, cex, cost, err := wceAtMost(c.orig, approx, t, c.Limit)
	c.Calls++
	c.Conflicts += cost.conflicts
	c.Propagations += cost.propagations
	if err != nil {
		return false, err
	}
	if !ok && cex != nil {
		if len(c.cexs) >= maxCertCexs {
			c.cexs = append(c.cexs[:0], c.cexs[1:]...)
		}
		c.cexs = append(c.cexs, certCex{pi: cex, origVal: evalOutputs(c.orig, cex)})
	}
	return ok, nil
}

// WorstCaseError computes the exact worst-case numeric error by binary
// search over WCEAtMost. The search range is [0, 2^POs − 1].
func WorstCaseError(orig, approx *aig.Graph) (uint64, error) {
	if orig.NumPOs() > 62 {
		return 0, errors.New("equiv: too many outputs for exact WCE")
	}
	lo, hi := uint64(0), uint64(1)<<uint(orig.NumPOs())-1
	// Invariant: WCE > lo−1 (i.e. not certified at lo−1), WCE ≤ hi.
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, _, err := WCEAtMost(orig, approx, mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
