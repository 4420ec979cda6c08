package solver

import (
	"fmt"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// Corpus-shaped constraint generators. The shapes mirror what the
// symbolic executor sends while exploring the coreutils corpus: per
// input byte a NUL test and a classification-table read (isspace /
// isalpha lower to KRead over a 256-entry table), with occasional
// cross-byte constraints linking neighbors — the mix that dominates
// solver time in Table 1 / Figure 4.

func benchVars(n int) []*expr.Var {
	out := make([]*expr.Var, n)
	for i := range out {
		out[i] = &expr.Var{Name: "input[" + string(rune('0'+i)) + "]", Bits: 8, Idx: i}
	}
	return out
}

func classTable() []uint64 {
	t := make([]uint64, 256)
	for _, c := range " \t\n\v\f\r" {
		t[c] = 1
	}
	return t
}

// corpusPC builds a wc-shaped path condition over the given vars: byte
// i is non-NUL, classified by a table read, and every third byte is
// ordered against its neighbor.
func corpusPC(b *expr.Builder, vs []*expr.Var) []*expr.Expr {
	table := classTable()
	var pc []*expr.Expr
	for i, v := range vs {
		x := b.Var(v)
		pc = append(pc, b.Cmp(ir.OpNe, x, b.Const(8, 0)))
		read := b.Read(table, 8, b.Cast(ir.OpZExt, x, 64))
		pc = append(pc, b.Cmp(ir.OpEq, read, b.Const(8, 0)))
		if i > 0 && i%3 == 0 {
			pc = append(pc, b.Cmp(ir.OpULe, b.Var(vs[i-1]), x))
		}
	}
	return pc
}

func BenchmarkIndependentGroups(b *testing.B) {
	bld := expr.NewBuilder()
	pc := corpusPC(bld, benchVars(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := independentGroups(pc); len(g) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkIncrementalPC partitions a growing path condition the way
// the engine sees it: one constraint appended per branch, the partition
// available at every prefix (pre-change: a full union-find re-partition
// per query; now: one carried Partition extended per append).
func BenchmarkIncrementalPC(b *testing.B) {
	bld := expr.NewBuilder()
	pc := corpusPC(bld, benchVars(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p *Partition
		for _, c := range pc {
			p = p.Extend(c)
			if _, trivial := p.Trivial(); trivial {
				b.Fatal("trivial partition")
			}
		}
	}
}

// BenchmarkPartitionExtend appends one constraint to an already-carried
// partition — the per-branch incremental cost the engine actually pays.
func BenchmarkPartitionExtend(b *testing.B) {
	bld := expr.NewBuilder()
	vs := benchVars(8)
	pc := corpusPC(bld, vs)
	base := PartitionOf(pc[:len(pc)-1])
	last := pc[len(pc)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := base.Extend(last); p == nil {
			b.Fatal("nil partition")
		}
	}
}

// coupledGroup builds one group over three bytes that the search has to
// backtrack through: x + y + z == sum, x < y, z not a space — and then
// extra more constraints, each a few slots of its own, that every model
// of the first three satisfies.
func coupledGroup(bld *expr.Builder, sum uint64, extra int) []*expr.Expr {
	vs := benchVars(3)
	x := bld.Cast(ir.OpZExt, bld.Var(vs[0]), 32)
	y := bld.Cast(ir.OpZExt, bld.Var(vs[1]), 32)
	z := bld.Cast(ir.OpZExt, bld.Var(vs[2]), 32)
	g := []*expr.Expr{
		bld.Cmp(ir.OpEq, bld.Bin(ir.OpAdd, bld.Bin(ir.OpAdd, x, y), z), bld.Const(32, sum)),
		bld.Cmp(ir.OpULt, x, y),
		bld.Cmp(ir.OpEq, bld.Read(classTable(), 8, bld.Cast(ir.OpZExt, bld.Var(vs[2]), 64)), bld.Const(8, 0)),
	}
	for i := 0; i < extra; i++ {
		k := bld.Const(32, uint64(i+1))
		g = append(g, bld.Cmp(ir.OpULt, bld.Bin(ir.OpAdd, bld.Bin(ir.OpMul, x, k), y), bld.Const(32, 256*uint64(i+2))))
	}
	return g
}

// slashChainGroup builds basename's sibling-sweep shape over two bytes:
// the first reaches a chain of `steps` multiply-adds only through
// whether it is '/' — chain(ite(x == '/', y, 0)) == target — and no y
// meets the target, so the group is unsat. The value sets of y widen
// to top, so propagation proves nothing, and the search binds every
// value of x: each but '/' decides the constraint false at once, and
// '/' leaves y no value. What a binding of x changes is its own slot
// and the compare, except where the compare flips.
func slashChainGroup(bld *expr.Builder, steps int) []*expr.Expr {
	vs := benchVars(2)
	sel := bld.Select(bld.Cmp(ir.OpEq, bld.Var(vs[0]), bld.Const(8, '/')), bld.Var(vs[1]), bld.Const(8, 0))
	z := bld.Cast(ir.OpZExt, sel, 32)
	image := make(map[uint32]bool, 256)
	for v := range 256 {
		zv := uint32(v)
		for i := range steps {
			zv = zv*33 + uint32(i+1)
		}
		image[zv] = true
	}
	for i := range steps {
		z = bld.Bin(ir.OpAdd, bld.Bin(ir.OpMul, z, bld.Const(32, 33)), bld.Const(32, uint64(i+1)))
	}
	target := uint32(0)
	for image[target] {
		target++
	}
	return []*expr.Expr{bld.Cmp(ir.OpEq, z, bld.Const(32, uint64(target)))}
}

// cksumGroup builds the group cksum -O0 re-searches at every extension:
// three non-NUL tests and, per byte, the eight steps of the CRC-16 bit
// loop, each a branch on the top bit taken the way the input "crc" takes
// it — 27 constraints over three bytes, each a few slots on top of one
// shared chain, so a propagation sweep of the k-th re-forwards the k-1
// steps before it.
func cksumGroup(bld *expr.Builder) []*expr.Expr {
	vs := benchVars(3)
	crc, want := bld.Const(32, 0), uint64(0)
	var cs []*expr.Expr
	for i, ch := range []byte("crc") {
		x := bld.Var(vs[i])
		cs = append(cs, bld.Cmp(ir.OpNe, x, bld.Const(8, 0)))
		crc = bld.Bin(ir.OpXor, crc, bld.Bin(ir.OpShl, bld.Cast(ir.OpZExt, x, 32), bld.Const(32, 8)))
		want ^= uint64(ch) << 8
		for k := 0; k < 8; k++ {
			hi := bld.Cmp(ir.OpNe, bld.Bin(ir.OpAnd, crc, bld.Const(32, 0x8000)), bld.Const(32, 0))
			crc = bld.Bin(ir.OpShl, crc, bld.Const(32, 1))
			if want&0x8000 != 0 {
				cs = append(cs, hi)
				crc = bld.Bin(ir.OpXor, crc, bld.Const(32, 0x1021))
				want = want<<1 ^ 0x1021
			} else {
				cs = append(cs, bld.Not(hi))
				want <<= 1
			}
			crc, want = bld.Bin(ir.OpAnd, crc, bld.Const(32, 0xFFFF)), want&0xFFFF
		}
	}
	return cs
}

// orderGroup builds sort's shape over four bytes: each a lower-case
// letter among the first eight, not 'b' at the front, in strictly
// ascending order, the last compared signed against a zero-extended
// bound — every constraint a comparison, of a byte with a constant or
// with another byte.
func orderGroup(bld *expr.Builder) []*expr.Expr {
	vs := benchVars(4)
	var cs []*expr.Expr
	for i, v := range vs {
		x := bld.Var(v)
		cs = append(cs, bld.Cmp(ir.OpUGe, x, bld.Const(8, 'a')), bld.Cmp(ir.OpULe, x, bld.Const(8, 'h')))
		if i > 0 {
			cs = append(cs, bld.Cmp(ir.OpULt, bld.Var(vs[i-1]), x))
		}
	}
	cs = append(cs, bld.Cmp(ir.OpNe, bld.Var(vs[0]), bld.Const(8, 'b')),
		bld.Cmp(ir.OpSLt, bld.Cast(ir.OpZExt, bld.Var(vs[3]), 32), bld.Const(32, 'h')))
	return cs
}

// BenchmarkPropagate measures one value-set propagation run from full
// domains on a warm propagator: basename's last-slash group, where sets
// stay finite and demands prune, and cksum's bit loop, where most
// forward steps repeat; as extend, cksum's group resumed from the
// fixpoint of all its constraints but the last; and as compare, sort's
// ascending bytes (orderGroup), where every step is a comparison kernel's.
// A warm run allocates nothing.
func BenchmarkPropagate(b *testing.B) {
	cksum := cksumGroup(expr.NewBuilder())
	for _, bc := range []struct {
		name string
		cs   []*expr.Expr
		from int // constraints a snapshot covers; 0 runs from scratch
	}{
		{"lastslash", lastSlashPrune(expr.NewBuilder(), vars(3)), 0},
		{"cksum", cksum, 0},
		{"extend", cksum, len(cksum) - 1},
		{"compare", orderGroup(expr.NewBuilder()), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			grp := PartitionOf(bc.cs).Groups()
			if len(grp) != 1 {
				b.Fatalf("want one group, got %d", len(grp))
			}
			tp := compileGroup(grp[0])
			doms := make([]domain, len(tp.vars))
			var snap []byte
			if bc.from > 0 {
				snap = prefixSnapshot(bc.cs, bc.from)
			}
			var p propagator
			run := func() {
				for vi, v := range tp.vars {
					doms[vi] = fullDomain(v.Bits)
				}
				var ok bool
				if snap != nil {
					ok = p.resume(tp, doms, grp[0].vs.Vars(), snap)
				} else {
					ok = p.run(tp, doms)
				}
				if !ok {
					b.Fatal("propagation refuted a satisfiable group")
				}
			}
			run() // warm: the storage a run of this size needs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkFilterColumn measures one unary filter of a full byte domain
// on a warm tape: as atomic, a zero-extended byte compared with a
// constant, which the comparison mask answers; as chain, the byte
// through a multiply-add and a table read before the comparison, which
// takes the columns. A warm filter allocates nothing.
func BenchmarkFilterColumn(b *testing.B) {
	bld := expr.NewBuilder()
	x := bld.Var(benchVars(1)[0])
	wide := bld.Cast(ir.OpZExt, x, 32)
	step := bld.Bin(ir.OpAdd, bld.Bin(ir.OpMul, wide, bld.Const(32, 37)), bld.Const(32, 11))
	class := bld.Read(classTable(), 8, bld.Cast(ir.OpZExt, bld.Cast(ir.OpTrunc, step, 8), 64))
	for _, bc := range []struct {
		name   string
		c      *expr.Expr
		masked bool
	}{
		{"atomic", bld.Cmp(ir.OpULt, wide, bld.Const(32, 200)), true},
		{"chain", bld.Cmp(ir.OpEq, class, bld.Const(8, 0)), false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tp := compileGroup(PartitionOf([]*expr.Expr{bc.c}).Groups()[0])
			ts := newTapeState(tp)
			var d domain
			filter := func() {
				d = fullDomain(8)
				if ts.filterColumn(0, 0, &d) != maxValues || d.count() == 0 || d.count() == maxValues {
					b.Fatalf("filter left %d values", d.count())
				}
			}
			filter() // warm: the columns a filter of this size needs
			if ts.col.masked != bc.masked {
				b.Fatalf("masked=%v, want %v", ts.col.masked, bc.masked)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				filter()
			}
		})
	}
}

// BenchmarkSearchTape measures one backtracking solve, bypassing the
// caches: a coupled group over three bytes (the constraint evaluator's
// hot loop), and basename's sibling sweep, 256 values of one byte bound
// over one another in front of a 64-step chain (slashChainGroup).
func BenchmarkSearchTape(b *testing.B) {
	for _, bc := range []struct {
		name string
		cs   []*expr.Expr
		sat  bool
	}{
		{"coupled", coupledGroup(expr.NewBuilder(), 420, 0), true},
		{"slashchain", slashChainGroup(expr.NewBuilder(), 64), false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			grp := PartitionOf(bc.cs).Groups()
			if len(grp) != 1 {
				b.Fatalf("want one group, got %d", len(grp))
			}
			s := New(Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := s.search(grp[0])
				if err != nil || e.sat != bc.sat {
					b.Fatalf("sat=%v err=%v, want sat=%v", e.sat, err, bc.sat)
				}
			}
		})
	}
}

// BenchmarkBranchReuse prices what a conditional branch pays the reuse
// probe at depth k: a warm k-constraint condition (reuseChain: eight
// models in the history, every one satisfying all of it) is extended by
// a sibling pair the way the engine does it — SatPartition on each
// side. On one side only the last model satisfies
// the branch constraint, so all eight are probed; on the other the
// first does. ns/op must not depend on k, and the only allocations are
// the two Extends'.
func BenchmarkBranchReuse(b *testing.B) {
	for _, k := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			bld, s, chain, y := reuseChain(b, k)
			a := bld.Cmp(ir.OpEq, y, bld.Const(8, 7))
			notA := bld.Not(a)
			p := PartitionOf(chain)
			branchOff(b, s, p, a, notA) // warm: p's memo learns the eight models
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				branchOff(b, s, p, a, notA)
			}
		})
	}
}

// BenchmarkExtendSingleVar prices the searches behind a loop over one
// input byte: a 12-deep branch tree on the byte, explored cold (a fresh
// solver and cache per iteration) the way the engine does — at each
// depth both sides of a branch are decided, one side is a leaf and the
// other carries on. Even depths exclude the model just found, so the
// continuing side is searched with its parent decided; odd depths bound
// the byte from above, which model reuse answers, leaving the parent of
// the next search undecided. assignments/op is the search cost proper:
// without a carried solution set every search starts from 256 values
// and re-filters by every constraint on the path.
func BenchmarkExtendSingleVar(b *testing.B) {
	bld := expr.NewBuilder()
	x := bld.Var(benchVars(1)[0])
	var branch, other []*expr.Expr
	for d := 0; d < 12; d++ {
		c := bld.Cmp(ir.OpULt, x, bld.Const(8, uint64(250-d)))
		if d%2 == 0 {
			c = bld.Cmp(ir.OpNe, x, bld.Const(8, uint64(d/2)))
		}
		branch, other = append(branch, c), append(other, bld.Not(c))
	}
	var assigns int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Options{})
		var p *Partition
		for d := range branch {
			if _, _, err := s.SatPartition(p.Extend(other[d])); err != nil {
				b.Fatal(err)
			}
			p = p.Extend(branch[d])
			if sat, _, err := s.SatPartition(p); err != nil || !sat {
				b.Fatalf("depth %d: sat=%v err=%v", d, sat, err)
			}
		}
		assigns += s.Stats.Assignments
	}
	b.ReportMetric(float64(assigns)/float64(b.N), "assignments/op")
}
