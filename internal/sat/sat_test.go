package sat

import (
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(MkLit(a, false)) {
		t.Fatal("unit clause rejected")
	}
	if s.Solve() != Sat {
		t.Fatal("single unit must be SAT")
	}
	if !s.Model(a) {
		t.Fatal("model wrong")
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	ok := s.AddClause(MkLit(a, true))
	if ok && s.Solve() != Unsat {
		t.Fatal("x ∧ ¬x must be UNSAT")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// (¬x0∨x1)(¬x1∨x2)...(¬x9∨x10), x0 ⇒ all true.
	s := New()
	var vs []int
	for i := 0; i <= 10; i++ {
		vs = append(vs, s.NewVar())
	}
	for i := 0; i < 10; i++ {
		s.AddClause(MkLit(vs[i], true), MkLit(vs[i+1], false))
	}
	s.AddClause(MkLit(vs[0], false))
	if s.Solve() != Sat {
		t.Fatal("chain must be SAT")
	}
	for i := 0; i <= 10; i++ {
		if !s.Model(vs[i]) {
			t.Fatalf("x%d should be true", i)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a ∨ b
	if s.Solve(MkLit(a, true)) != Sat {
		t.Fatal("¬a assumption should leave b")
	}
	if !s.Model(b) {
		t.Fatal("b must be true under ¬a")
	}
	if s.Solve(MkLit(a, true), MkLit(b, true)) != Unsat {
		t.Fatal("¬a ∧ ¬b contradicts a∨b")
	}
	// Solver must remain usable after an UNSAT-under-assumptions call.
	if s.Solve() != Sat {
		t.Fatal("formula itself is satisfiable")
	}
}

// pigeonhole(n): n+1 pigeons in n holes — classically UNSAT and a good
// stress for clause learning.
func pigeonhole(s *Solver, n int) {
	vars := make([][]int, n+1)
	for p := 0; p <= n; p++ {
		vars[p] = make([]int, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = MkLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 5; n++ {
		s := New()
		pigeonhole(s, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d) = %v, want UNSAT", n, got)
		}
	}
}

// bruteForce checks satisfiability of a small CNF by enumeration.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, c := range cnf {
			sat := false
			for _, l := range c {
				val := m>>uint(l.Var())&1 == 1
				if val != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		nVars := 4 + rng.Intn(9) // 4..12
		nClauses := 3 + rng.Intn(nVars*5)
		var cnf [][]Lit
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		valid := true
		for c := 0; c < nClauses; c++ {
			var lits []Lit
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				lits = append(lits, MkLit(rng.Intn(nVars), rng.Intn(2) == 1))
			}
			cnf = append(cnf, lits)
			if !s.AddClause(lits...) {
				valid = false
				break
			}
		}
		want := bruteForce(nVars, cnf)
		if !valid {
			if want {
				t.Fatalf("trial %d: solver says trivially UNSAT but brute force SAT", trial)
			}
			continue
		}
		got := s.Solve()
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver %v, brute force %v (%d vars, %d clauses)", trial, got, want, nVars, nClauses)
		}
		if got == Sat && !s.VerifyModel() {
			t.Fatalf("trial %d: reported model does not satisfy the clauses", trial)
		}
	}
}

func TestConflictLimit(t *testing.T) {
	s := New()
	pigeonhole(s, 7)
	s.MaxConflicts = 10
	if got := s.Solve(); got != Unknown && got != Unsat {
		t.Fatalf("limited solve = %v", got)
	}
}

func TestAddClauseAfterSat(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a ∨ b
	if s.Solve(MkLit(a, true)) != Sat || !s.Model(b) {
		t.Fatal("¬a assumption must give a model with b")
	}
	// The model of that call must not count as level-0 facts: ¬b is
	// consistent with the formula (a = 1).
	if !s.AddClause(MkLit(b, true)) {
		t.Fatal("adding ¬b after a Sat result declared the formula UNSAT")
	}
	if s.Solve() != Sat || !s.Model(a) || s.Model(b) {
		t.Fatal("(a ∨ b) ∧ ¬b must be SAT with a = 1, b = 0")
	}
	if !s.VerifyModel() {
		t.Fatal("model does not satisfy the clauses")
	}
}

func TestConflictLimitPerSolve(t *testing.T) {
	s := New()
	pigeonhole(s, 6) // 7 pigeons, 6 holes
	s.MaxConflicts = 50
	for call := 1; call <= 2; call++ {
		before := s.conflicts
		got := s.Solve()
		spent := s.conflicts - before
		if got == Unknown && spent != s.MaxConflicts {
			t.Fatalf("call %d stopped after %d conflicts, want the full budget of %d", call, spent, s.MaxConflicts)
		}
		if got == Sat {
			t.Fatalf("call %d: PHP(6) reported SAT", call)
		}
	}
}

// TestIncrementalAgainstBruteForce interleaves AddClause, plain solves and
// assumption solves on random CNFs (with and without conflict budgets) and
// checks every verdict against enumeration. Every other trial reduces the
// learnt-clause database after each conflict, so deletion and arena
// compaction run under the same checks.
func TestIncrementalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	randLit := func(n int) Lit { return MkLit(rng.Intn(n), rng.Intn(2) == 1) }
	for trial := 0; trial < 400; trial++ {
		nVars := 3 + rng.Intn(10) // 3..12
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		if trial%2 == 1 {
			s.nextReduce, s.reduceStep = 1, 1-reduceInc
		}
		var cnf [][]Lit
		unsat := false
		for op := 0; op < 4*nVars; op++ {
			if rng.Intn(4) != 0 {
				lits := make([]Lit, 1+rng.Intn(3))
				for j := range lits {
					lits[j] = randLit(nVars)
				}
				cnf = append(cnf, append([]Lit(nil), lits...))
				if !s.AddClause(lits...) {
					if bruteForce(nVars, cnf) {
						t.Fatalf("trial %d op %d: AddClause declared a satisfiable formula UNSAT", trial, op)
					}
					unsat = true
				}
				continue
			}
			assumps := make([]Lit, rng.Intn(4))
			for j := range assumps {
				assumps[j] = randLit(nVars)
			}
			s.MaxConflicts = 0
			if rng.Intn(3) == 0 {
				s.MaxConflicts = int64(1 + rng.Intn(3))
			}
			got := s.Solve(assumps...)
			q := cnf
			for _, a := range assumps {
				q = append(q, []Lit{a})
			}
			want := bruteForce(nVars, q)
			switch {
			case got == Unknown && s.MaxConflicts == 0:
				t.Fatalf("trial %d op %d: Unknown without a budget", trial, op)
			case got == Sat && !want, got == Unsat && want:
				t.Fatalf("trial %d op %d: solver %v, brute force %v (assumptions %v)", trial, op, got, want, assumps)
			case got == Sat && unsat:
				t.Fatalf("trial %d op %d: Sat after AddClause reported UNSAT", trial, op)
			case got == Sat:
				if !s.VerifyModel() || !modelSatisfies(s, q) {
					t.Fatalf("trial %d op %d: model violates a clause or an assumption", trial, op)
				}
			}
		}
	}
}

// modelSatisfies checks the last model against every clause of cnf, units
// included.
func modelSatisfies(s *Solver, cnf [][]Lit) bool {
	for _, c := range cnf {
		ok := false
		for _, l := range c {
			if s.Model(l.Var()) != l.Neg() {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestAnalyzeAllocFree gates the per-conflict cost: once warmed, conflict
// analysis (learning and minimisation) allocates nothing.
func TestAnalyzeAllocFree(t *testing.T) {
	s := New()
	pigeonhole(s, 6)
	s.MaxConflicts = 200
	if got := s.Solve(); got != Unknown {
		t.Fatalf("warm-up solve = %v, want Unknown", got)
	}
	confl := noReason
	for confl == noReason {
		l := s.pickBranch()
		if l < 0 {
			t.Fatal("no conflict before a full assignment")
		}
		s.trailLo = append(s.trailLo, int32(len(s.trail)))
		s.enqueue(l, noReason)
		confl = s.propagate()
	}
	if allocs := testing.AllocsPerRun(50, func() { s.analyze(confl) }); allocs != 0 {
		t.Fatalf("analyze allocates %.1f times per conflict, want 0", allocs)
	}
}

// TestReduceDBPreservesVerdicts solves random 3-SAT instances near the
// phase transition twice, once reducing the learnt-clause database after
// every conflict. Deletion and arena compaction must not change a verdict
// or break a model.
func TestReduceDBPreservesVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const nVars, nClauses = 60, 256
	for trial := 0; trial < 40; trial++ {
		plain, stressed := New(), New()
		stressed.nextReduce, stressed.reduceStep = 1, 1-reduceInc
		for v := 0; v < nVars; v++ {
			plain.NewVar()
			stressed.NewVar()
		}
		for c := 0; c < nClauses; c++ {
			var lits []Lit
			for j := 0; j < 3; j++ {
				lits = append(lits, MkLit(rng.Intn(nVars), rng.Intn(2) == 1))
			}
			plain.AddClause(append([]Lit(nil), lits...)...)
			stressed.AddClause(lits...)
		}
		want, got := plain.Solve(), stressed.Solve()
		if got != want {
			t.Fatalf("trial %d: %v with per-conflict reduction, %v without", trial, got, want)
		}
		if got == Sat && !stressed.VerifyModel() {
			t.Fatalf("trial %d: model violates a clause after reductions", trial)
		}
	}
}
