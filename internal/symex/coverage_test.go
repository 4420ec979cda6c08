package symex

import (
	"testing"

	"overify/internal/ir"
)

// coverFunc builds a function of n empty blocks: enough for the
// coverage bitset, which reads only block numbers.
func coverFunc(n int) *ir.Function {
	fn := ir.NewFunction("f", ir.FuncType{Ret: ir.Void})
	for i := 0; i < n; i++ {
		fn.NewBlock("b")
	}
	return fn
}

// TestCoverageMap: cover is idempotent and reports only the first
// cover, covered reflects it, and blocks on either side of a word
// boundary are told apart.
func TestCoverageMap(t *testing.T) {
	fn := coverFunc(70)
	cov := newCoverage(fn)
	a, b := fn.Blocks[0], fn.Blocks[64]
	if cov.covered(a) {
		t.Error("fresh set claims coverage")
	}
	if !cov.cover(a) {
		t.Error("first cover not reported as new")
	}
	if cov.cover(a) {
		t.Error("second cover reported as new")
	}
	if cov.covered(b) {
		t.Error("covering one block covered another")
	}
	cov.cover(b)
	if !cov.covered(a) || !cov.covered(b) || cov.covered(fn.Blocks[1]) {
		t.Errorf("covered = %v/%v/%v, want true/true/false", cov.covered(a), cov.covered(b), cov.covered(fn.Blocks[1]))
	}
}

// FuzzCoverageMap checks the set's arithmetic: the number of covers
// reported as new — what the engine counts — is the number of distinct
// blocks covered, a second pass over the same ops reports none, and
// covered() agrees with the ops.
func FuzzCoverageMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{9, 9, 9, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fn := coverFunc(130)
		cov := newCoverage(fn)
		pool := fn.Blocks
		n := 0
		for range 2 {
			for _, op := range ops {
				if cov.cover(pool[int(op)%len(pool)]) {
					n++
				}
			}
		}
		distinct := map[*ir.Block]bool{}
		for _, op := range ops {
			distinct[pool[int(op)%len(pool)]] = true
		}
		if n != len(distinct) {
			t.Fatalf("count = %d, want %d distinct", n, len(distinct))
		}
		for _, b := range pool {
			if cov.covered(b) != distinct[b] {
				t.Fatalf("covered(%s) = %v, want %v", b.Name, cov.covered(b), distinct[b])
			}
		}
	})
}
