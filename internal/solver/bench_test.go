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

func BenchmarkGroupKey(b *testing.B) {
	bld := expr.NewBuilder()
	pc := corpusPC(bld, benchVars(8))
	groups := PartitionOf(pc).Groups()
	ids := make([][]int64, len(groups))
	for i, g := range groups {
		ids[i] = g.ids
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range ids {
			_ = fingerprintIDs(g)
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

// BenchmarkPropagate measures one value-set propagation run from full
// domains on a warm propagator: basename's last-slash group, where sets
// stay finite and demands prune, and cksum's bit loop, where most
// forward steps repeat. A warm run allocates nothing.
func BenchmarkPropagate(b *testing.B) {
	for _, bc := range []struct {
		name string
		cs   []*expr.Expr
	}{
		{"lastslash", lastSlashPrune(expr.NewBuilder(), vars(3))},
		{"cksum", cksumGroup(expr.NewBuilder())},
	} {
		b.Run(bc.name, func(b *testing.B) {
			grp := PartitionOf(bc.cs).Groups()
			if len(grp) != 1 {
				b.Fatalf("want one group, got %d", len(grp))
			}
			tp := compileGroup(grp[0])
			doms := make([]domain, len(tp.vars))
			var p propagator
			run := func() {
				for vi, v := range tp.vars {
					doms[vi] = fullDomain(v.Bits)
				}
				if !p.run(tp, doms) {
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

// BenchmarkSearchTape measures one backtracking solve of a coupled
// multi-var group (the constraint evaluator's hot loop), bypassing the
// caches.
func BenchmarkSearchTape(b *testing.B) {
	grp := PartitionOf(coupledGroup(expr.NewBuilder(), 420, 0)).Groups()
	if len(grp) != 1 {
		b.Fatalf("want one group, got %d", len(grp))
	}
	s := New(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := s.search(grp[0])
		if err != nil || !e.sat {
			b.Fatalf("sat=%v err=%v", e.sat, err)
		}
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
