package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// satisfies is the from-scratch model check: every constraint of the
// slice evaluated under the model by a fresh evaluator, no partition,
// nothing carried between calls. It is the oracle the incremental reuse
// probe (Solver.modelSatisfies) is held to.
func satisfies(constraints []*expr.Expr, model expr.Model) bool {
	ev := expr.NewEvaluator()
	ev.Bind(model)
	for _, c := range constraints {
		if ev.Eval(c) == 0 {
			return false
		}
	}
	return true
}

// CapturedWcQueries is set by the external test package
// (querybench_test.go), which may import the compiler and the engine to
// capture wc's real query stream; this package's tests cannot.
var CapturedWcQueries func(testing.TB) [][]*expr.Expr

// memoPath is a path condition together with the carried partition of
// every prefix, the way a state's ancestors hold them: parts[i]
// partitions pc[:i+1], and extensions of one path share its prefix
// partitions (and so their memos) by pointer.
type memoPath struct {
	pc    []*expr.Expr
	parts []*Partition
}

func (mp memoPath) last() *Partition {
	if len(mp.parts) == 0 {
		return nil
	}
	return mp.parts[len(mp.parts)-1]
}

func (mp memoPath) extend(c *expr.Expr) memoPath {
	n := len(mp.pc)
	return memoPath{
		pc:    append(mp.pc[:n:n], c),
		parts: append(mp.parts[:n:n], mp.last().Extend(c)),
	}
}

func sameModel(a, b expr.Model) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// checkedSat decides the path's condition on s and holds the solver to
// the un-memoized loop: a reuse hit happens exactly when some recent
// model satisfies the condition from scratch, it returns the first such
// model itself, not a copy, and afterwards every memoized verdict on every
// prefix agrees with the oracle.
func checkedSat(s *Solver, mp memoPath) (bool, error) {
	p := mp.last()
	var want expr.Model
	for _, m := range s.recent {
		if satisfies(mp.pc, m.model) {
			want = m.model
			break
		}
	}
	hits := s.Stats.ModelReuseHits
	sat, model, err := s.SatPartition(p)
	if err != nil {
		return false, err
	}
	if sat && !satisfies(mp.pc, model) {
		return false, fmt.Errorf("depth %d: returned model does not satisfy the condition", len(mp.pc))
	}
	if _, trivial := p.Trivial(); !trivial {
		hit := s.Stats.ModelReuseHits > hits
		if hit != (want != nil) {
			return false, fmt.Errorf("depth %d: reuse hit = %v, the from-scratch loop says %v", len(mp.pc), hit, want != nil)
		}
		if hit && !sameModel(model, want) {
			return false, fmt.Errorf("depth %d: reuse hit returned a different model than the from-scratch loop", len(mp.pc))
		}
	}
	return sat, checkMemo(s, mp)
}

// checkMemo compares, for every prefix of the path and every model in
// s's history, what the memo holds and what modelSatisfies answers with
// the from-scratch walk.
func checkMemo(s *Solver, mp memoPath) error {
	for i, p := range mp.parts {
		if _, trivial := p.Trivial(); trivial {
			continue
		}
		for _, m := range s.recent {
			want := satisfies(mp.pc[:i+1], m.model)
			if got, known := p.hist.lookup(m.serial); known && got != want {
				return fmt.Errorf("prefix %d, model %d: memo holds %v, from scratch %v", i+1, m.serial, got, want)
			}
			if got := s.modelSatisfies(p, m); got != want {
				return fmt.Errorf("prefix %d, model %d: modelSatisfies = %v, from scratch %v", i+1, m.serial, got, want)
			}
			if got, known := p.hist.lookup(m.serial); known && got != want {
				return fmt.Errorf("prefix %d, model %d: memo filled with %v, from scratch %v", i+1, m.serial, got, want)
			}
		}
	}
	return nil
}

// randomExtension picks what a branch appends: mostly a fresh random
// constraint (bounds, two-variable links that merge groups, table
// reads), sometimes a duplicate of one already on the path, sometimes
// constant true.
func randomExtension(b *expr.Builder, vs []*expr.Var, rng *rand.Rand, mp memoPath) *expr.Expr {
	switch r := rng.Intn(10); {
	case r == 0:
		return b.True()
	case r == 1 && len(mp.pc) > 0:
		return mp.pc[rng.Intn(len(mp.pc))]
	}
	return randomStream(b, vs, rng, 1)[0]
}

// TestReuseMemoMatchesScratch: the incremental reuse probe is the same
// function as the from-scratch walk — on wc's captured query stream
// (consecutive queries sharing their common prefix's partitions, as
// states do) and on random branching explorations that resume old
// states, merge groups, and append duplicates and constant trues — for
// a history shorter than, equal to and longer than the memo window, so
// models are evicted and window slots reused throughout.
func TestReuseMemoMatchesScratch(t *testing.T) {
	for _, history := range []int{1, 8, 11} {
		t.Run(fmt.Sprintf("wc/history=%d", history), func(t *testing.T) {
			if CapturedWcQueries == nil {
				t.Skip("no captured stream (external test package not linked)")
			}
			s := New(Options{})
			s.history = history
			var prev memoPath
			for qi, q := range CapturedWcQueries(t) {
				l := 0
				for l < len(q) && l < len(prev.pc) && q[l] == prev.pc[l] {
					l++
				}
				mp := memoPath{pc: prev.pc[:l:l], parts: prev.parts[:l:l]}
				for _, c := range q[l:] {
					mp = mp.extend(c)
				}
				if _, err := checkedSat(s, mp); err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				prev = mp
			}
			if history > 1 && s.Stats.ModelReuseHits == 0 {
				t.Error("stream produced no reuse hit")
			}
		})
		t.Run(fmt.Sprintf("random/history=%d", history), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(17 + history)))
			for trial := 0; trial < 8; trial++ {
				b := expr.NewBuilder()
				vs := vars(6)
				s := New(Options{})
				s.history = history
				paths := []memoPath{{}}
				for step := 0; step < 60; step++ {
					// Any earlier state may branch next: a DFS resuming
					// a sibling long after its models were evicted.
					mp := paths[rng.Intn(len(paths))]
					c := randomExtension(b, vs, rng, mp)
					sides := []memoPath{mp.extend(c), mp.extend(b.Not(c))}
					for _, side := range sides {
						sat, err := checkedSat(s, side)
						if err != nil {
							t.Fatalf("trial %d step %d: %v", trial, step, err)
						}
						if sat && len(side.pc) < 24 {
							paths = append(paths, side)
						}
					}
				}
				if s.Stats.ModelReuseHits == 0 {
					t.Errorf("trial %d produced no reuse hit", trial)
				}
			}
		})
	}
}

// TestReuseMemoSharedAcrossSolvers: partitions are shared between
// workers whose solvers remember different models. Two solvers on two
// goroutines decide down one shared chain, each also branching off it
// with constraints of its own (so their histories differ), and both
// hold every memoized verdict on the shared prefixes to the oracle. Run
// under -race: the memo word is the only thing they both write.
func TestReuseMemoSharedAcrossSolvers(t *testing.T) {
	b := expr.NewBuilder()
	vs := vars(6)
	rng := rand.New(rand.NewSource(23))
	var shared memoPath
	for len(shared.pc) < 48 {
		mp := shared.extend(randomExtension(b, vs, rng, shared))
		if sat, _, err := New(Options{}).Sat(mp.pc); err != nil || !sat {
			continue // keep the chain satisfiable so it stays probed to the end
		}
		shared = mp
	}
	const solvers = 2
	private := make([][]*expr.Expr, solvers)
	for g := range private {
		for range shared.pc {
			c := randomStream(b, vs, rng, 1)[0]
			private[g] = append(private[g], c, b.Not(c))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < solvers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := New(Options{})
			for i := range shared.pc {
				prefix := memoPath{pc: shared.pc[: i+1 : i+1], parts: shared.parts[: i+1 : i+1]}
				sides := []memoPath{prefix.extend(private[g][2*i]), prefix.extend(private[g][2*i+1])}
				for _, mp := range append(sides, prefix) {
					if _, err := checkedSat(s, mp); err != nil {
						t.Errorf("solver %d, shared depth %d: %v", g, i+1, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// reuseChain builds the shape that prices the probe: k constraints over
// x0 and x1 that every model with x0 = x1 = 0 satisfies, a variable y
// the chain never mentions, and a solver whose history holds eight
// models {y: 0} … {y: 7} (x0, x1 absent, so they read as zero). Every
// model satisfies every prefix of the chain, so a from-scratch probe of
// an extension walks the whole chain for each of them.
func reuseChain(tb testing.TB, k int) (b *expr.Builder, s *Solver, chain []*expr.Expr, y *expr.Expr) {
	tb.Helper()
	b = expr.NewBuilder()
	vs := vars(3)
	for i := 0; i < k; i++ {
		chain = append(chain, b.Cmp(ir.OpNe, b.Var(vs[i%2]), b.Const(8, uint64(1+i/2))))
	}
	y = b.Var(vs[2])
	s = New(Options{})
	for i := uint64(0); i < 8; i++ {
		if sat, _, err := s.Sat([]*expr.Expr{b.Cmp(ir.OpEq, y, b.Const(8, i))}); err != nil || !sat {
			tb.Fatalf("seeding model %d: sat=%v err=%v", i, sat, err)
		}
	}
	if len(s.recent) != 8 {
		tb.Fatalf("history holds %d models, want 8", len(s.recent))
	}
	return b, s, chain, y
}

// branchOff decides the sibling pair (p ∧ a, p ∧ ¬a) the way the
// engine's conditional branch does.
func branchOff(tb testing.TB, s *Solver, p *Partition, a, notA *expr.Expr) {
	for _, q := range []*Partition{p.Extend(a), p.Extend(notA)} {
		if sat, _, err := s.SatPartition(q); err != nil || !sat {
			tb.Fatalf("sat=%v err=%v", sat, err)
		}
	}
}

// TestReuseProbeIsIncremental: growing a 256-constraint condition one
// constraint at a time and branching off every prefix — eight models in
// the history, all satisfying the prefix, the one satisfying the branch
// last — costs a bounded number of constraint evaluations per model per
// step however long the condition already is. A probe that re-walks the
// condition per model costs about k per model per look, k²/2 · 8 · 4
// over the chain.
func TestReuseProbeIsIncremental(t *testing.T) {
	const k = 256
	b, s, chain, y := reuseChain(t, k)
	a := b.Cmp(ir.OpEq, y, b.Const(8, 7))
	notA := b.Not(a)
	queries, hits := s.Stats.Queries, s.Stats.ModelReuseHits
	var p *Partition
	for i, c := range chain {
		p = p.Extend(c)
		before := s.reuseEvals
		branchOff(t, s, p, a, notA)
		// Per model at most the new chain constraint and the branch
		// constraint, on each side; the second look evaluates nothing.
		if d := s.reuseEvals - before; d > 4*int64(len(s.recent)) {
			t.Fatalf("step %d: %d constraint evaluations for one branch under %d models", i+1, d, len(s.recent))
		}
	}
	if q, h := s.Stats.Queries-queries, s.Stats.ModelReuseHits-hits; q != 2*k || h != q {
		t.Errorf("%d of %d branch queries were reuse hits, want all of %d", h, q, 2*k)
	}
	if len(s.recent) != 8 {
		t.Errorf("history changed size: %d", len(s.recent))
	}
}

// TestRememberedModelsKeepTheirAnswers is the model contract: the model
// SatPartition returns is the one the history keeps (remember takes it,
// it does not copy it), so nothing may write it afterwards — not the
// caller, and not a later query. Over random branching explorations,
// every fresh model must be the one the history stored, and at the end
// every model handed out must still satisfy the condition it was found
// for, and every model still in the history the condition it was
// remembered for.
func TestRememberedModelsKeepTheirAnswers(t *testing.T) {
	type found struct {
		pc    []*expr.Expr
		model expr.Model
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		b := expr.NewBuilder()
		vs := vars(4)
		s := New(Options{})
		var handed []found
		stored := make(map[uint64]found) // by model serial
		paths := []memoPath{{}}
		for step := 0; step < 60; step++ {
			mp := paths[rng.Intn(len(paths))]
			c := randomExtension(b, vs, rng, mp)
			for _, side := range []memoPath{mp.extend(c), mp.extend(b.Not(c))} {
				hits, serial := s.Stats.ModelReuseHits, s.serial
				sat, model, err := s.SatPartition(side.last())
				if err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				if !sat {
					continue
				}
				handed = append(handed, found{side.pc, model})
				if s.serial != serial {
					last := s.recent[len(s.recent)-1]
					if !sameModel(last.model, model) {
						t.Fatalf("trial %d step %d: the history holds a copy of the returned model", trial, step)
					}
					stored[last.serial] = found{side.pc, model}
				} else if _, trivial := side.last().Trivial(); !trivial && s.Stats.ModelReuseHits == hits {
					t.Fatalf("trial %d step %d: a sat answer neither reused nor remembered a model", trial, step)
				}
				if len(side.pc) < 16 {
					paths = append(paths, side)
				}
			}
		}
		for i, f := range handed {
			if !satisfies(f.pc, f.model) {
				t.Fatalf("trial %d: model %d no longer satisfies the condition it answered: %v", trial, i, f.model)
			}
		}
		for _, m := range s.recent {
			f, ok := stored[m.serial]
			if !ok || !sameModel(f.model, m.model) {
				t.Fatalf("trial %d: history model %d is not a model a query returned", trial, m.serial)
			}
			if !satisfies(f.pc, m.model) {
				t.Fatalf("trial %d: history model %d no longer satisfies the condition it was remembered for", trial, m.serial)
			}
		}
	}
}
