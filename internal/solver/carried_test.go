package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"overify/internal/expr"
	"overify/internal/ir"
)

// byteConstraints builds n random constraints, each over one of the
// given byte variables alone: bounds, exclusions, table reads, masked
// arithmetic and an ite — the shapes a loop over an input byte appends.
// They are built up front, on one goroutine, so concurrent tests only
// ever read the builder's nodes.
func byteConstraints(b *expr.Builder, vs []*expr.Var, rng *rand.Rand, n int) []*expr.Expr {
	table := classTable()
	var out []*expr.Expr
	for len(out) < n {
		x := b.Var(vs[rng.Intn(len(vs))])
		k := b.Const(8, uint64(rng.Intn(256)))
		var c *expr.Expr
		switch rng.Intn(6) {
		case 0:
			c = b.Cmp(ir.OpULt, x, k)
		case 1:
			c = b.Cmp(ir.OpUGe, x, b.Const(8, uint64(rng.Intn(64))))
		case 2:
			read := b.Read(table, 8, b.Cast(ir.OpZExt, x, 64))
			c = b.Cmp(ir.OpEq, read, b.Const(8, uint64(rng.Intn(2))))
		case 3:
			c = b.Cmp(ir.OpNe, x, k)
		case 4:
			sum := b.Bin(ir.OpAdd, b.Cast(ir.OpZExt, x, 32), b.Const(32, uint64(rng.Intn(300))))
			c = b.Cmp(ir.OpNe, b.Bin(ir.OpAnd, sum, b.Const(32, 3)), b.Const(32, uint64(rng.Intn(4))))
		default:
			up := b.Bin(ir.OpAdd, x, b.Const(8, 13))
			c = b.Cmp(ir.OpSLt, b.Select(b.Cmp(ir.OpULt, x, k), up, x), b.Const(8, uint64(rng.Intn(256))))
		}
		if c.Kind != expr.KConst {
			out = append(out, c)
		}
	}
	return out
}

// enumerate is the ground truth for a single-variable group: the values
// of v under which every constraint holds.
func enumerate(cs []*expr.Expr, v *expr.Var) domain {
	var d domain
	asn := expr.Model{{Var: v}}
	for val := uint64(0); val < 256; val++ {
		asn[0].Val = val
		if satisfies(cs, asn) {
			d[val/64] |= 1 << (val % 64)
		}
	}
	return d
}

// scratchEntry decides the group's constraints on a solver that has
// never seen anything, so nothing can be carried into the search.
func scratchEntry(cs []*expr.Expr) (cacheEntry, int64, error) {
	fresh := New(Options{})
	p := PartitionOf(cs)
	if _, _, err := fresh.SatPartition(p); err != nil {
		return cacheEntry{}, 0, err
	}
	return *fresh.cache.peek(p.groups[0].fp), fresh.Stats.Assignments, nil
}

// carriedTally sums, over the single-variable groups a walk searched,
// the assignments its solver tried and the assignments the from-scratch
// solvers tried on the same groups.
type carriedTally struct{ spent, scratch int64 }

// checkCarried decides p (the carried partition of pc) on s and holds
// the answer to a from-scratch solver: the verdict always; and for each
// single-variable group the query left decided, its verdict, model and
// stored solution set — the set also against enumeration. Groups over
// several variables store no set.
func checkCarried(s *Solver, p *Partition, pc []*expr.Expr, tally *carriedTally) (bool, error) {
	var undecided []*Group
	for _, g := range p.Groups() {
		if s.cache.peek(g.fp) == nil {
			undecided = append(undecided, g)
		}
	}
	before := s.Stats
	sat, model, err := s.SatPartition(p)
	if err != nil {
		return false, err
	}
	wantSat, _, err := New(Options{}).Sat(pc)
	if err != nil {
		return false, err
	}
	if sat != wantSat {
		return false, fmt.Errorf("sat = %v, from scratch %v", sat, wantSat)
	}
	if sat && !satisfies(pc, model) {
		return false, fmt.Errorf("model %v does not satisfy the condition", model)
	}
	scratchCost := map[*Group]int64{}
	for _, g := range p.Groups() {
		e := s.cache.peek(g.fp)
		if e == nil {
			continue
		}
		if len(g.vs.Vars()) != 1 {
			if e.set != (domain{}) {
				return false, fmt.Errorf("group over %d variables stores a set", len(g.vs.Vars()))
			}
			continue
		}
		want, cost, err := scratchEntry(g.cs)
		if err != nil {
			return false, err
		}
		scratchCost[g] = cost
		if e.sat != want.sat || !reflect.DeepEqual(e.model, want.model) || e.set != want.set {
			return false, fmt.Errorf("group %v: carried {%v %v %x}, from scratch {%v %v %x}",
				g.cs, e.sat, e.model, e.set, want.sat, want.model, want.set)
		}
		if truth := enumerate(g.cs, g.vs.Vars()[0]); e.set != truth {
			return false, fmt.Errorf("group %v: set %x, enumeration %x", g.cs, e.set, truth)
		}
	}
	// The assignments of this query belong to the groups it searched:
	// the ones nothing had decided before and something has now. Count
	// the query only when those are all single-variable groups.
	var searched, cost int64
	for _, g := range undecided {
		if c, single := scratchCost[g]; single {
			searched, cost = searched+1, cost+c
		}
	}
	if searched > 0 && searched == s.Stats.TapeCompiles-before.TapeCompiles {
		tally.spent += s.Stats.Assignments - before.Assignments
		tally.scratch += cost
	}
	return sat, nil
}

// carriedWalk drives one solver the way an engine worker drives it:
// first down straight chains (every prefix decided in turn), then over
// branching trees in which any earlier state may branch next. Model
// reuse answers one side of most branches without deciding its group,
// so a group's parent is usually undecided and the seed has to come
// from further back. Every answer is held to checkCarried.
func carriedWalk(t testing.TB, s *Solver, pool []*expr.Expr, b *expr.Builder, rng *rand.Rand) (tally carriedTally) {
	type state struct {
		pc []*expr.Expr
		p  *Partition
	}
	extend := func(st state, c *expr.Expr) state {
		n := len(st.pc)
		return state{pc: append(st.pc[:n:n], c), p: st.p.Extend(c)}
	}
	decide := func(st state) bool {
		sat, err := checkCarried(s, st.p, st.pc, &tally)
		if err != nil {
			t.Errorf("depth %d: %v", len(st.pc), err)
		}
		return sat
	}
	for chain := 0; chain < 6; chain++ {
		var st state
		for len(st.pc) < 12 {
			next := extend(st, pool[rng.Intn(len(pool))])
			if decide(next) {
				st = next
			}
			if t.Failed() {
				return
			}
		}
	}
	states := []state{{}}
	for step := 0; step < 80; step++ {
		st := states[rng.Intn(len(states))]
		c := pool[rng.Intn(len(pool))]
		for _, side := range []state{extend(st, c), extend(st, b.Not(c))} {
			if decide(side) && len(side.pc) < 16 {
				states = append(states, side)
			}
			if t.Failed() {
				return
			}
		}
	}
	return tally
}

// TestCarriedDomainMatchesScratch: a search seeded from a carried
// solution set is the same function as the from-scratch search — same
// verdict, same model, same stored set, and the set is the enumerated
// truth — along chains and over branching trees (model reuse leaves
// prefixes undecided, so the search falls back to a shorter prefix or
// to scratch), under a portfolio, and with two solvers on two
// goroutines sharing one cache (run under -race).
func TestCarriedDomainMatchesScratch(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		solvers int
	}{
		{"unbounded", Options{}, 1},
		{"portfolio4", Options{Portfolio: 4}, 1},
		{"shared", Options{}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := expr.NewBuilder()
			vs := vars(2)
			rng := rand.New(rand.NewSource(21))
			pool := byteConstraints(b, vs, rng, 40)
			// A few two-variable links: merged groups must keep working
			// and must store no set.
			for i := 0; i < 3; i++ {
				pool = append(pool, b.Cmp(ir.OpULe, b.Var(vs[0]), b.Bin(ir.OpAdd, b.Var(vs[1]), b.Const(8, uint64(40*i)))))
			}
			for _, c := range pool {
				b.Not(c) // intern the negations before any goroutine starts
			}
			cache := NewCache()
			var wg sync.WaitGroup
			tallies := make([]carriedTally, tc.solvers)
			for g := 0; g < tc.solvers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s := NewWithCache(tc.opts, cache)
					tallies[g] = carriedWalk(t, s, pool, b, rand.New(rand.NewSource(int64(100+g))))
				}(g)
			}
			wg.Wait()
			// The walk is only a test of the seeded path if it took it:
			// the searches of single-variable groups must have cost
			// less than the same searches from scratch.
			var sum carriedTally
			for _, tl := range tallies {
				sum.spent, sum.scratch = sum.spent+tl.spent, sum.scratch+tl.scratch
			}
			t.Logf("single-variable searches: %d assignments, %d from scratch", sum.spent, sum.scratch)
			if sum.spent >= sum.scratch {
				t.Errorf("single-variable searches tried %d assignments, from scratch %d: nothing was seeded", sum.spent, sum.scratch)
			}
		})
	}
}

// TestCarriedDomainIsIncremental: down a 12-constraint chain on one byte
// in which every extension has to be searched (each excludes the model
// just found), an extension after the first tries at most the values
// its parent left plus one — never 256 again — and compiles the new
// constraint's slots only.
func TestCarriedDomainIsIncremental(t *testing.T) {
	b := expr.NewBuilder()
	v := vars(1)[0]
	x := b.Var(v)
	s := New(Options{})
	var p *Partition
	left := 256
	for i := 0; i < 12; i++ {
		// The model of the chain so far is its smallest solution, i.
		c := b.Cmp(ir.OpNe, x, b.Const(8, uint64(i)))
		p = p.Extend(c)
		st := s.Stats
		sat, model, err := s.SatPartition(p)
		if err != nil || !sat || model.Value(v) != uint64(i+1) {
			t.Fatalf("step %d: sat=%v model=%v err=%v", i+1, sat, model, err)
		}
		if s.Stats.TapeCompiles != st.TapeCompiles+1 {
			t.Fatalf("step %d: the extension was not searched", i+1)
		}
		assigns, slots := s.Stats.Assignments-st.Assignments, s.Stats.TapeSlots-st.TapeSlots
		if i > 0 {
			if assigns > int64(left)+1 {
				t.Errorf("step %d: %d assignments, the parent left %d values", i+1, assigns, left)
			}
			if own := int64(len(compileGroup(newGroup(c)).ops)); slots != own {
				t.Errorf("step %d: %d tape slots compiled, the new constraint has %d", i+1, slots, own)
			}
		}
		left = s.cache.peek(p.groups[0].fp).set.count()
		if left != 255-i {
			t.Fatalf("step %d: stored set holds %d values, want %d", i+1, left, 255-i)
		}
	}
}

// TestDeadlineStopsSearch: a deadline ends a search that only the clock
// can end. (x & y & z) == 255 has one solution, the last the search
// reaches; with the node and work budgets out of the way it takes all
// 15,163,137 assignments. A deadline one millisecond away must cut that
// short — the clock used to be read only when the assignment count
// happened to be a multiple of 1024 at a check, which it almost never
// is — and setting none must change nothing.
func TestDeadlineStopsSearch(t *testing.T) {
	b := expr.NewBuilder()
	vs := vars(3)
	and := b.Bin(ir.OpAnd, b.Bin(ir.OpAnd, b.Var(vs[0]), b.Var(vs[1])), b.Var(vs[2]))
	cs := []*expr.Expr{b.Cmp(ir.OpEq, and, b.Const(8, 255))}
	unbudgeted := func() *Solver {
		s := New(Options{MaxWork: 1 << 40})
		s.maxNodes = 1 << 40
		return s
	}
	const full = 15_163_137

	s := unbudgeted()
	s.SetDeadline(time.Now().Add(time.Millisecond))
	if sat, _, err := s.Sat(cs); !errors.Is(err, ErrBudget) {
		t.Fatalf("with a 1 ms deadline: sat=%v err=%v after %d assignments, want ErrBudget", sat, err, s.Stats.Assignments)
	}
	// A millisecond is a few tens of thousands of assignments, and the
	// clock is read every 1024.
	if s.Stats.Assignments > full/10 {
		t.Errorf("search ran %d assignments past a 1 ms deadline", s.Stats.Assignments)
	}

	if testing.Short() {
		return // the full search is half a second, ten under -race
	}
	s = unbudgeted()
	sat, model, err := s.Sat(cs)
	if err != nil || !sat || model.Value(vs[0]) != 255 || model.Value(vs[1]) != 255 || model.Value(vs[2]) != 255 {
		t.Fatalf("without a deadline: sat=%v model=%v err=%v", sat, model, err)
	}
	if s.Stats.Assignments != full {
		t.Errorf("without a deadline the search tried %d assignments, want %d", s.Stats.Assignments, full)
	}
}
