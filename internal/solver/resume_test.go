package solver

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// varsOf is the variable set of a constraint list.
func varsOf(cs []*expr.Expr) *expr.VarSet {
	var vs *expr.VarSet
	for _, c := range cs {
		vs = expr.MergeVarSets(vs, c.VarSet())
	}
	return vs
}

// compileList compiles a constraint list, linked or not, in its order.
func compileList(cs []*expr.Expr) *tape {
	return (&tapeScratch{}).compile(varsOf(cs), cs)
}

// fullDomains is every variable of tp at its full domain.
func fullDomains(tp *tape) []domain {
	doms := make([]domain, len(tp.vars))
	for vi, v := range tp.vars {
		doms[vi] = fullDomain(v.Bits)
	}
	return doms
}

// prefixSnapshot propagates cs[:k] from scratch and returns the snapshot
// a run over a list that starts with cs[:k] resumes from, nil when the
// prefix is refuted or its run did not converge.
func prefixSnapshot(cs []*expr.Expr, k int) []byte {
	var p propagator
	tp := compileList(cs[:k])
	if !p.run(tp, fullDomains(tp)) || !p.converged {
		return nil
	}
	return p.snapshot(varsOf(cs[:k]).Vars(), orderKey(cs[:k]))
}

// resumeGroups are the constraint lists the carried propagation is held
// to a run from scratch on: basename's last-slash groups, cksum's bit
// loop, the coupled three-byte group and basename's sibling-sweep chain.
func resumeGroups() map[string][]*expr.Expr {
	return map[string][]*expr.Expr{
		"lastslash unsat":    lastSlashUnsat(expr.NewBuilder(), vars(3)),
		"lastslash collapse": lastSlashCollapse(expr.NewBuilder(), vars(3)),
		"lastslash prune":    lastSlashPrune(expr.NewBuilder(), vars(3)),
		"cksum":              cksumGroup(expr.NewBuilder()),
		"coupled":            coupledGroup(expr.NewBuilder(), 420, 12),
		"slashchain":         slashChainGroup(expr.NewBuilder(), 64),
		"extchain":           extChainGroup(expr.NewBuilder(), 32),
	}
}

// TestCarriedPropagationMatchesScratch holds propagation resumed from a
// prefix's fixpoint to propagation from scratch. On each list, for every
// prefix length k, a run over cs[:k] resumed from the snapshot the run
// over cs[:k-1] left (itself resumed) ends with the verdict, the domains
// and every slot's forward and demand sets of a run from scratch, and
// the search after it tries the same assignments for the same answer.
// The same lists and the fuzz DAG groups are then decided prefix by
// prefix through one solver, whose searches resume from what the cache
// holds: every verdict, model and assignment count is a fresh solver's.
// A snapshot taken over the same constraints in another order is never
// resumed from, and solvers sharing a cache on two goroutines read each
// other's snapshots (meaningful under -race).
func TestCarriedPropagationMatchesScratch(t *testing.T) {
	var gated propagator
	var resumed int
	chain := func(t *testing.T, cs []*expr.Expr, label string) {
		var snap []byte
		for k := 1; k <= len(cs); k++ {
			tp := compileList(cs[:k])
			vs := varsOf(cs[:k]).Vars()
			ref := new(propagator)
			want := fullDomains(tp)
			wantOK := ref.run(tp, want)
			if wantOK && !ref.converged {
				t.Fatalf("%s k=%d: the run from scratch did not converge in %d rounds", label, k, propMaxRounds)
			}
			from := ref
			if snap != nil {
				resumed++
				got := fullDomains(tp)
				ok := gated.resume(tp, got, vs, snap)
				if ok != wantOK || !slices.Equal(got, want) || ok && !gated.converged {
					t.Fatalf("%s k=%d: resumed %v %x, from scratch %v %x", label, k, ok, got, wantOK, want)
				}
				from = &gated
				if ok {
					for s := range tp.ops {
						if !sameSet(&gated.fwd[s], &ref.fwd[s]) || !sameSet(&gated.dem[s], &ref.dem[s]) {
							t.Fatalf("%s k=%d: slot %d: resumed fwd %v dem %v, from scratch fwd %v dem %v",
								label, k, s, gated.fwd[s], gated.dem[s], ref.fwd[s], ref.dem[s])
						}
					}
					gs, ss := New(Options{}), New(Options{})
					gotSat, gotModel, gotErr := gs.searchTape(tp, got, searchConfig{}, 1<<16)
					wantSat, wantModel, wantErr := ss.searchTape(tp, want, searchConfig{}, 1<<16)
					if gotSat != wantSat || gotErr != wantErr || !slices.Equal(gotModel, wantModel) || gs.Stats.Assignments != ss.Stats.Assignments {
						t.Fatalf("%s k=%d: resumed search sat=%v err=%v %d assignments, from scratch sat=%v err=%v %d",
							label, k, gotSat, gotErr, gs.Stats.Assignments, wantSat, wantErr, ss.Stats.Assignments)
					}
				}
			} else if k > 1 && wantOK {
				t.Fatalf("%s k=%d: the prefix left no snapshot, but the list is not refuted", label, k)
			}
			snap = nil
			if wantOK {
				snap = from.snapshot(vs, orderKey(cs[:k]))
			}
		}
	}
	t.Run("prefixes", func(t *testing.T) {
		for name, cs := range resumeGroups() {
			chain(t, cs, name)
		}
		fuzzDAGGroupsOf(func(g *Group, _ uint64, label string) { chain(t, g.cs, label) })
		if resumed == 0 {
			t.Fatal("no run resumed")
		}
	})

	t.Run("solver", func(t *testing.T) {
		var fromPrefix int
		decide := func(t *testing.T, s *Solver, cs []*expr.Expr, label string) {
			for k := 1; k <= len(cs); k++ {
				for _, g := range PartitionOf(cs[:k]).Groups() {
					if k, _ := s.carried(g); k > 0 && len(g.vs.Vars()) > 1 {
						fromPrefix++
					}
					checkDecided(t, s, g, fmt.Sprintf("%s k=%d", label, k))
				}
			}
		}
		for name, cs := range resumeGroups() {
			decide(t, New(Options{}), cs, name)
		}
		fuzzDAGGroupsOf(func(g *Group, _ uint64, label string) {
			// A few DAGs exhaust any budget; a small one ends them sooner.
			s := New(Options{MaxWork: 1 << 16})
			s.maxNodes = 4096
			decide(t, s, g.cs, label)
		})
		if fromPrefix == 0 {
			t.Fatal("no multi-variable search resumed from a prefix")
		}
	})

	t.Run("order", func(t *testing.T) {
		// {sum, less} is decided in the order less, sum: its snapshot is
		// filed under the key of sum, less, and must not be resumed from.
		cs := coupledGroup(expr.NewBuilder(), 420, 2)
		s := New(Options{})
		checkDecided(t, s, PartitionOf([]*expr.Expr{cs[1], cs[0]}).Groups()[0], "less, sum")
		g := PartitionOf(cs[:3]).Groups()[0]
		if k, _ := s.carried(g); k != 0 {
			t.Errorf("sum, less, class resumes from a prefix of %d", k)
		}
		checkDecided(t, s, g, "sum, less, class")
	})

	t.Run("shared", func(t *testing.T) {
		// One builder's nodes, built before the goroutines read them: the
		// cache is keyed by that builder's ids.
		groups := resumeGroups()
		cache := NewCache()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := NewWithCache(Options{}, cache)
				for _, name := range []string{"cksum", "coupled", "lastslash prune", "extchain"} {
					cs := groups[name]
					for k := 1; k <= len(cs); k++ {
						for _, g := range PartitionOf(cs[:k]).Groups() {
							checkDecided(t, s, g, fmt.Sprintf("worker %d %s k=%d", w, name, k))
						}
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// checkDecided decides g on s and holds the entry to a search on a fresh
// solver: the verdict and model, and when s searched, the assignments.
func checkDecided(t *testing.T, s *Solver, g *Group, label string) {
	before := s.Stats
	e, err := s.solveGroup(g)
	ref := New(s.opts)
	ref.maxNodes = s.maxNodes
	want, wantErr := ref.search(g)
	if err != wantErr {
		t.Errorf("%s: %v, from scratch %v", label, err, wantErr)
	}
	if err != nil || wantErr != nil {
		return
	}
	if e.sat != want.sat || !slices.Equal(e.model, want.model) || e.set != want.set {
		t.Errorf("%s: sat=%v model=%v set=%x, from scratch sat=%v model=%v set=%x", label, e.sat, e.model, e.set, want.sat, want.model, want.set)
	}
	// A single-variable group seeded from a carried set tries fewer.
	searched := s.Stats.TapeCompiles > before.TapeCompiles
	if spent := s.Stats.Assignments - before.Assignments; searched && len(g.vs.Vars()) > 1 && spent != ref.Stats.Assignments {
		t.Errorf("%s: %d assignments, from scratch %d", label, spent, ref.Stats.Assignments)
	}
}

// extChainGroup builds a group whose propagation walks a long chain:
// two bytes below 4, and their sum through `steps` multiply-adds, each
// taken only under a test of x the first constraint already decides,
// differing from a value it never takes. Every step's forward set is
// finite and is evaluated, and every step reads x. The last constraint,
// x ≠ 9, which the first also implies, is what an extension adds.
func extChainGroup(bld *expr.Builder, steps int) []*expr.Expr {
	vs := benchVars(2)
	x, y := bld.Var(vs[0]), bld.Var(vs[1])
	z := bld.Bin(ir.OpAdd, bld.Cast(ir.OpZExt, x, 32), bld.Cast(ir.OpZExt, y, 32))
	for i := range steps {
		step := bld.Bin(ir.OpAdd, bld.Bin(ir.OpMul, z, bld.Const(32, 33)), bld.Const(32, uint64(i+1)))
		z = bld.Select(bld.Cmp(ir.OpULt, x, bld.Const(8, uint64(100+i%100))), step, bld.Const(32, 0))
	}
	return []*expr.Expr{
		bld.Cmp(ir.OpULt, x, bld.Const(8, 4)),
		bld.Cmp(ir.OpULt, y, bld.Const(8, 4)),
		bld.Cmp(ir.OpNe, z, bld.Const(32, 1)),
		bld.Cmp(ir.OpNe, x, bld.Const(8, 9)),
	}
}

// TestExtensionPropagationIsIncremental pins what resuming buys on a
// chain: a group decided, then — after a group over other bytes has
// used the solver's propagation storage — extended by one constraint
// that narrows nothing the chain reads (extChainGroup), propagates the
// extension by evaluating the new constraint's slots and nothing of the
// chain, however long the chain. Lengthening the chain by 192 steps
// must cost the extension's propagation less than one evaluation per
// added step; a run from scratch evaluates every step at least once per
// value its forward set holds.
func TestExtensionPropagationIsIncremental(t *testing.T) {
	const short, long = 64, 256
	evals := map[int]int64{}
	for _, steps := range []int{short, long} {
		cs := extChainGroup(expr.NewBuilder(), steps)
		prefix := PartitionOf(cs[:len(cs)-1])
		ext := prefix.Extend(cs[len(cs)-1])
		s := New(Options{})
		if e, err := s.solveGroup(prefix.Groups()[0]); err != nil || !e.sat || e.prop == nil {
			t.Fatalf("steps=%d: prefix sat=%v err=%v snapshot=%v", steps, e.sat, err, e.prop != nil)
		}
		other := coupledGroup(expr.NewBuilder(), 60, 0)
		if e, err := s.solveGroup(PartitionOf(other).Groups()[0]); err != nil || !e.sat {
			t.Fatalf("steps=%d: the other group sat=%v err=%v", steps, e.sat, err)
		}
		before := s.propEvals
		g := ext.Groups()[0]
		if k, _ := s.carried(g); k != len(cs)-1 {
			t.Fatalf("steps=%d: the extension resumes from a prefix of %d constraints, want %d", steps, k, len(cs)-1)
		}
		checkDecided(t, s, g, fmt.Sprintf("steps=%d", steps))
		evals[steps] = s.propEvals - before
		scratch := New(Options{})
		scratch.search(g)
		t.Logf("steps=%d: the extension's propagation evaluated %d slots resumed, %d from scratch", steps, evals[steps], scratch.propEvals)
	}
	if grew := evals[long] - evals[short]; grew >= long-short {
		t.Errorf("an extension over a chain %d steps longer evaluated %d more slots, want fewer than %d", long-short, grew, long-short)
	}
}
