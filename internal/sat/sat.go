// Package sat implements a compact MiniSat-style CDCL SAT solver. It
// exists to back formal checks on synthesis results (package equiv):
// combinational equivalence and worst-case-error certification of
// approximate circuits.
//
// Clauses live in one flat []Lit arena addressed by int32 references, so
// neither the clause store nor the watch lists hold pointers. Each watcher
// carries a blocker literal; a clause whose blocker is already true is
// skipped without touching the arena. Conflict analysis derives a first-UIP
// clause with a reusable seen slice and minimises it recursively (MiniSat's
// abstract-level filter). Decisions pop a VSIDS binary heap; ties break to
// the lower variable index. The learnt-clause database is periodically
// halved by literal block distance (LBD). Nothing depends on clocks or map
// iteration, so every run is deterministic.
package sat

import "slices"

// Lit is a solver literal: variable<<1 | sign (sign 1 = negated).
// Variables are 0-based.
type Lit int32

// MkLit builds a literal.
func MkLit(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement.
func (l Lit) Not() Lit { return l ^ 1 }

const (
	valUnassigned int8 = 0
	valTrue       int8 = 1
	valFalse      int8 = -1
)

// A clause at arena offset c is a two-word header followed by its
// literals: arena[c] = size<<1 | deleted, arena[c+1] = the LBD of a learnt
// clause (or the forwarding reference while the arena is compacted).
const (
	hdrWords     = 2
	flagDeleted  = 1
	noReason     = int32(-1)
	varDecay     = 0.95
	restartFirst = 100 // conflicts before the first restart; ×1.5 after each
	reduceFirst  = 2000
	reduceInc    = 300
)

// watcher is one entry of a watch list: the clause and a literal of it
// whose truth makes a visit unnecessary.
type watcher struct {
	cref    int32
	blocker Lit
}

// Solver is a CDCL SAT solver. Add variables with NewVar, clauses with
// AddClause, then call Solve.
type Solver struct {
	arena   []Lit
	spare   []Lit       // the other half of the compacting arena
	clauses []int32     // original clauses (size ≥ 2)
	learnts []int32     // learnt clauses (size ≥ 2)
	watches [][]watcher // per literal p: clauses containing ¬p

	val     []int8 // per literal
	level   []int32
	reason  []int32
	trail   []Lit
	trailLo []int32 // decision-level boundaries in trail
	qhead   int

	activity []float64
	varInc   float64
	phase    []bool  // saved phases
	heap     []int32 // VSIDS order: a binary heap of variables
	heapIdx  []int32 // position in heap, -1 when absent

	// Conflict-analysis scratch, reused across conflicts.
	seen     []uint8
	learnt   []Lit
	toClear  []Lit
	stack    []Lit
	lvlStamp []uint32
	stamp    uint32

	model []bool

	ok           bool
	conflicts    int64
	propagations int64
	nextReduce   int64
	reduceStep   int64

	// MaxConflicts caps the conflicts of each Solve call; 0 means
	// unlimited. A call that reaches it returns Unknown. The budget is per
	// call: conflicts of earlier calls do not count against it.
	MaxConflicts int64
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{ok: true, varInc: 1, nextReduce: reduceFirst, reduceStep: reduceFirst}
}

// NewVar adds a variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.val = append(s.val, valUnassigned, valUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.heapIdx = append(s.heapIdx, -1)
	s.heapInsert(int32(v))
	return v
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.level) }

// Conflicts returns the conflicts met over the solver's lifetime.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Propagations returns the literals propagated over the solver's lifetime.
func (s *Solver) Propagations() int64 { return s.propagations }

// AddClause adds a clause; returns false when the formula became trivially
// unsatisfiable. It may reorder lits.
func (s *Solver) AddClause(lits ...Lit) bool {
	s.backtrackTo(0)
	if !s.ok {
		return false
	}
	// Normalise: sort, dedupe, drop tautologies and level-0 false
	// literals; a level-0 true literal satisfies the clause forever.
	slices.Sort(lits)
	out := lits[:0]
	prev := Lit(-1)
	for _, l := range lits {
		if l == prev {
			continue
		}
		if l == prev.Not() {
			return true // tautology
		}
		prev = l
		switch s.val[l] {
		case valTrue:
			return true
		case valFalse:
			continue
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.enqueue(out[0], noReason)
		if s.propagate() != noReason {
			s.ok = false
			return false
		}
		return true
	}
	s.clauses = append(s.clauses, s.newClause(out, 0))
	return true
}

// newClause stores lits in the arena and watches its first two literals.
func (s *Solver) newClause(lits []Lit, lbd int) int32 {
	c := int32(len(s.arena))
	s.arena = append(s.arena, Lit(len(lits)<<1), Lit(lbd))
	s.arena = append(s.arena, lits...)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{c, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, lits[0]})
	return c
}

// lits returns the literals of clause c (a view into the arena).
func (s *Solver) lits(c int32) []Lit {
	n := int32(s.arena[c] >> 1)
	return s.arena[c+hdrWords : c+hdrWords+n]
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLo)) }

// enqueue assigns the unassigned literal l true with the given reason.
func (s *Solver) enqueue(l Lit, from int32) {
	v := l.Var()
	s.val[l] = valTrue
	s.val[l.Not()] = valFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns a conflicting clause or
// noReason.
func (s *Solver) propagate() int32 {
	confl := noReason
	val, arena := s.val, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		i, j := 0, 0
	next:
		for i < len(ws) {
			w := ws[i]
			i++
			if val[w.blocker] == valTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.cref
			n := int32(arena[c] >> 1)
			lits := arena[c+hdrWords : c+hdrWords+n]
			// Make lits[1] the false literal.
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], falseLit
			}
			first := lits[0]
			nw := watcher{c, first}
			if first != w.blocker && val[first] == valTrue {
				ws[j] = nw
				j++
				continue
			}
			for k := 2; k < len(lits); k++ {
				if val[lits[k]] != valFalse {
					lits[1], lits[k] = lits[k], falseLit
					q := lits[1].Not()
					s.watches[q] = append(s.watches[q], nw)
					continue next
				}
			}
			// Unit or conflict.
			ws[j] = nw
			j++
			if val[first] == valFalse {
				confl = c
				s.qhead = len(s.trail)
				j += copy(ws[j:], ws[i:])
				break
			}
			s.enqueue(first, c)
		}
		s.watches[p] = ws[:j]
	}
	return confl
}

// Activity order: a binary heap of variables, highest activity first, ties
// to the lower index.

func (s *Solver) heapLess(a, b int32) bool {
	return s.activity[a] > s.activity[b] || s.activity[a] == s.activity[b] && a < b
}

func (s *Solver) heapUp(i int) {
	h := s.heap
	v := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, h[p]) {
			break
		}
		h[i] = h[p]
		s.heapIdx[h[i]] = int32(i)
		i = p
	}
	h[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	h := s.heap
	v := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && s.heapLess(h[c+1], h[c]) {
			c++
		}
		if !s.heapLess(h[c], v) {
			break
		}
		h[i] = h[c]
		s.heapIdx[h[i]] = int32(i)
		i = c
	}
	h[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *Solver) heapInsert(v int32) {
	if s.heapIdx[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapPop() int32 {
	h := s.heap
	v := h[0]
	last := h[len(h)-1]
	s.heap = h[:len(h)-1]
	s.heapIdx[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapIdx[last] = 0
		s.heapDown(0)
	}
	return v
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if i := s.heapIdx[v]; i >= 0 {
		s.heapUp(int(i))
	}
}

// analyze derives a minimised first-UIP learnt clause from a conflict into
// s.learnt (asserting literal first, a literal of the backtrack level
// second) and returns the backtrack level. It allocates nothing once the
// scratch buffers have grown.
func (s *Solver) analyze(confl int32) int32 {
	out := append(s.learnt[:0], 0) // slot for the asserting literal
	pathC := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	dl := s.decisionLevel()
	for {
		lits := s.lits(confl)
		if p != -1 {
			lits = lits[1:] // a reason's implied literal is lits[0]
		}
		for _, q := range lits {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.bumpVar(v)
			if s.level[v] >= dl {
				pathC++
			} else {
				out = append(out, q)
			}
		}
		// Walk back the trail to the next marked literal.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	out[0] = p.Not()

	// Recursive minimisation: drop every literal implied by the others.
	s.toClear = append(s.toClear[:0], out[1:]...)
	var abstract uint32
	for _, q := range out[1:] {
		abstract |= s.abstractLevel(q.Var())
	}
	j := 1
	for _, q := range out[1:] {
		if s.reason[q.Var()] == noReason || !s.litRedundant(q, abstract) {
			out[j] = q
			j++
		}
	}
	out = out[:j]
	for _, q := range s.toClear {
		s.seen[q.Var()] = 0
	}

	// Backtrack level: the highest level among the other literals; move
	// one literal of that level to position 1 so both watches are sound
	// after backtracking.
	bt := int32(0)
	if len(out) > 1 {
		m := 1
		for i := 2; i < len(out); i++ {
			if s.level[out[i].Var()] > s.level[out[m].Var()] {
				m = i
			}
		}
		out[1], out[m] = out[m], out[1]
		bt = s.level[out[1].Var()]
	}
	s.learnt = out
	return bt
}

func (s *Solver) abstractLevel(v int) uint32 { return 1 << uint(s.level[v]&31) }

// litRedundant reports whether p (marked seen, with a reason) is implied by
// the seen literals, exploring reasons depth-first. Literals it marks stay
// on s.toClear when it succeeds and are unmarked when it fails.
func (s *Solver) litRedundant(p Lit, abstract uint32) bool {
	s.stack = append(s.stack[:0], p)
	top := len(s.toClear)
	for len(s.stack) > 0 {
		q := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, r := range s.lits(s.reason[q.Var()])[1:] {
			v := r.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == noReason || s.abstractLevel(v)&abstract == 0 {
				for _, u := range s.toClear[top:] {
					s.seen[u.Var()] = 0
				}
				s.toClear = s.toClear[:top]
				return false
			}
			s.seen[v] = 1
			s.stack = append(s.stack, r)
			s.toClear = append(s.toClear, r)
		}
	}
	return true
}

// lbd returns the number of distinct decision levels among lits.
func (s *Solver) lbd(lits []Lit) int {
	s.stamp++
	n := 0
	for _, q := range lits {
		l := s.level[q.Var()]
		for int(l) >= len(s.lvlStamp) {
			s.lvlStamp = append(s.lvlStamp, 0)
		}
		if s.lvlStamp[l] != s.stamp {
			s.lvlStamp[l] = s.stamp
			n++
		}
	}
	return n
}

func (s *Solver) backtrackTo(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	lo := s.trailLo[lvl]
	for i := len(s.trail) - 1; i >= int(lo); i-- {
		l := s.trail[i]
		v := l.Var()
		s.val[l] = valUnassigned
		s.val[l.Not()] = valUnassigned
		s.reason[v] = noReason
		s.phase[v] = !l.Neg()
		s.heapInsert(int32(v))
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranch() Lit {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.val[2*v] == valUnassigned {
			return MkLit(int(v), !s.phase[v])
		}
	}
	return -1
}

// locked reports whether learnt clause c is the reason of its first
// literal's current assignment.
func (s *Solver) locked(c int32) bool {
	first := s.arena[c+hdrWords]
	return s.val[first] == valTrue && s.reason[first.Var()] == c
}

// reduceDB deletes the worse half of the learnt clauses — highest LBD
// first, older first among equals — keeping binary, glue (LBD ≤ 2) and
// locked clauses, then compacts the arena.
func (s *Solver) reduceDB() {
	arena := s.arena
	slices.SortFunc(s.learnts, func(a, b int32) int {
		if la, lb := arena[a+1], arena[b+1]; la != lb {
			return int(lb - la)
		}
		return int(a - b)
	})
	half := len(s.learnts) / 2
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		if i < half && arena[c]>>1 > 2 && arena[c+1] > 2 && !s.locked(c) {
			arena[c] |= flagDeleted
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	s.compact()
}

// compact copies the live clauses into the spare arena and rewrites every
// reference: watch lists lose deleted clauses, and reasons, clause lists
// and watchers follow the forwarding reference each moved clause leaves in
// its old header.
func (s *Solver) compact() {
	from, to := s.arena, s.spare[:0]
	for c := 0; c < len(from); {
		n := int(from[c] >> 1)
		if from[c]&flagDeleted == 0 {
			nc := len(to)
			to = append(to, from[c:c+hdrWords+n]...)
			from[c+1] = Lit(nc)
		}
		c += hdrWords + n
	}
	fwd := func(c int32) int32 { return int32(from[c+1]) }
	for p, ws := range s.watches {
		j := 0
		for _, w := range ws {
			if from[w.cref]&flagDeleted == 0 {
				ws[j] = watcher{fwd(w.cref), w.blocker}
				j++
			}
		}
		s.watches[p] = ws[:j]
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != noReason {
			s.reason[l.Var()] = fwd(r)
		}
	}
	for i, c := range s.clauses {
		s.clauses[i] = fwd(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = fwd(c)
	}
	s.arena, s.spare = to, from
}

// Status is the solve outcome.
type Status int

// Outcomes.
const (
	Unsat Status = iota
	Sat
	Unknown // conflict limit reached
)

// Solve runs the solver under the optional assumptions and returns the
// status. After Sat, Model reports variable values. Learnt clauses are
// kept across calls; assignments are not, so clauses may be added between
// calls.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.backtrackTo(0)
	if !s.ok {
		return Unsat
	}
	var conflicts int64
	restartLimit, confsAtRestart := int64(restartFirst), int64(0)
	for {
		if confl := s.propagate(); confl != noReason {
			s.conflicts++
			conflicts++
			confsAtRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			s.backtrackTo(s.analyze(confl))
			if len(s.learnt) == 1 {
				s.enqueue(s.learnt[0], noReason)
			} else {
				c := s.newClause(s.learnt, s.lbd(s.learnt))
				s.learnts = append(s.learnts, c)
				s.enqueue(s.learnt[0], c)
			}
			s.varInc /= varDecay
			if s.MaxConflicts > 0 && conflicts >= s.MaxConflicts {
				s.backtrackTo(0)
				return Unknown
			}
			if confsAtRestart >= restartLimit {
				confsAtRestart = 0
				restartLimit += restartLimit / 2
				s.backtrackTo(0)
			}
			if s.conflicts >= s.nextReduce {
				s.reduceStep += reduceInc
				s.nextReduce = s.conflicts + s.reduceStep
				s.reduceDB()
			}
			continue
		}
		// Assumptions are the first decisions, one level each.
		next := Lit(-1)
		for int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			if s.val[a] == valFalse {
				s.backtrackTo(0)
				return Unsat
			}
			if s.val[a] == valUnassigned {
				next = a
				break
			}
			s.trailLo = append(s.trailLo, int32(len(s.trail))) // already true
		}
		if next < 0 {
			if next = s.pickBranch(); next < 0 {
				s.model = s.model[:0]
				for v := range s.level {
					s.model = append(s.model, s.val[2*v] == valTrue)
				}
				s.backtrackTo(0)
				return Sat
			}
		}
		s.trailLo = append(s.trailLo, int32(len(s.trail)))
		s.enqueue(next, noReason)
	}
}

// Model returns the value of variable v in the model of the last Sat
// result.
func (s *Solver) Model(v int) bool { return v < len(s.model) && s.model[v] }

// VerifyModel checks every original clause of two or more literals under
// the last model — a self-check for tests.
func (s *Solver) VerifyModel() bool {
	for _, c := range s.clauses {
		ok := false
		for _, l := range s.lits(c) {
			if s.Model(l.Var()) != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
