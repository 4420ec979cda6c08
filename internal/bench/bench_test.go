package bench_test

import (
	"testing"
	"time"

	"overify/internal/bench"
	"overify/internal/pipeline"
)

// TestTable1Shape asserts the qualitative claims of the paper's Table 1
// at a laptop-scale input size.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level wc exploration in -short mode")
	}
	opts := bench.Table1Options{InputBytes: 6, RunWords: 2000, VerifyTimeout: 90 * time.Second}
	rows, err := bench.Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", bench.RenderTable1(rows, opts))
	byLevel := map[pipeline.Level]bench.Table1Row{}
	for _, r := range rows {
		byLevel[r.Level] = r
	}
	o0, o2, o3, ov := byLevel[pipeline.O0], byLevel[pipeline.O2], byLevel[pipeline.O3], byLevel[pipeline.OVerify]

	// Paths: O0 == O2 (same CFG structure); O3 roughly equal (its gain
	// here is per-path instruction count, not path count — see
	// EXPERIMENTS.md); OVerify collapses to n+1.
	if o0.Paths != o2.Paths {
		t.Errorf("paths: O0 (%d) != O2 (%d)", o0.Paths, o2.Paths)
	}
	if float64(o3.Paths) > 1.05*float64(o2.Paths) {
		t.Errorf("paths: O3 (%d) should not exceed O2 (%d) by more than 5%%", o3.Paths, o2.Paths)
	}
	if ov.Paths*10 > o3.Paths {
		t.Errorf("paths: OVerify (%d) should be at least 10x below O3 (%d)", ov.Paths, o3.Paths)
	}
	if ov.Paths != int64(opts.InputBytes)+1 {
		t.Errorf("OVerify paths = %d, want %d", ov.Paths, opts.InputBytes+1)
	}
	// Instructions interpreted: strictly decreasing O0 -> O2 -> O3 -> OVerify.
	if !(o0.Instrs > o2.Instrs && o2.Instrs > o3.Instrs && o3.Instrs > ov.Instrs) {
		t.Errorf("instrs not strictly decreasing: %d, %d, %d, %d",
			o0.Instrs, o2.Instrs, o3.Instrs, ov.Instrs)
	}
	// Verification work (instructions plus solver assignments, the
	// deterministic count behind tverify): OVerify cheapest by a wide
	// margin.
	work := func(r bench.Table1Row) int64 { return r.Instrs + r.Solver.Assignments }
	if work(ov)*10 > work(o0) {
		t.Errorf("OVerify verify work %d not >=10x below O0 %d", work(ov), work(o0))
	}
	// The execution conflict: the branch-free -OVERIFY build executes
	// more instructions per concrete run than -O3 (paper: 2.5x slower).
	if ov.RunInstrs <= o3.RunInstrs {
		t.Errorf("run instrs: OVerify (%d) should exceed O3 (%d) — the CPU/verifier conflict",
			ov.RunInstrs, o3.RunInstrs)
	}
}

// TestTable3Shape asserts Table 3's claims: -O0 does nothing, -OSYMBEX
// transforms far more than -O3.
func TestTable3Shape(t *testing.T) {
	rows, err := bench.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", bench.RenderTable3(rows))
	byLevel := map[pipeline.Level]bench.Table3Row{}
	for _, r := range rows {
		byLevel[r.Level] = r
		if r.Failures != 0 {
			t.Errorf("%s: %d programs failed to compile", r.Level, r.Failures)
		}
	}
	o0, o3, ov := byLevel[pipeline.O0], byLevel[pipeline.O3], byLevel[pipeline.OVerify]
	if o0.FunctionsInlined != 0 || o0.LoopsUnswitched != 0 || o0.BranchesConverted != 0 {
		t.Errorf("-O0 should transform nothing: %+v", o0)
	}
	if ov.FunctionsInlined <= o3.FunctionsInlined {
		t.Errorf("inlined: OVerify (%d) should exceed O3 (%d)", ov.FunctionsInlined, o3.FunctionsInlined)
	}
	if ov.BranchesConverted <= o3.BranchesConverted {
		t.Errorf("converted: OVerify (%d) should exceed O3 (%d)", ov.BranchesConverted, o3.BranchesConverted)
	}
}

// TestFigure4Small runs the corpus study on a subset with small budgets
// and asserts the headline direction: -OSYMBEX wins overall.
func TestFigure4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-corpus verification study in -short mode")
	}
	// 5 bytes puts the experiment in the verification-dominated regime
	// the paper measures (with 2-3 bytes, compile time dominates and -O0
	// "wins" by not compiling — the effect the paper says "vanishes in
	// longer experiments").
	opts := bench.Figure4Options{
		InputBytes: 5,
		Timeout:    5 * time.Second,
	}
	rows, summary, err := bench.Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", bench.RenderFigure4(rows, summary, opts))
	if summary.TotalOVerify >= summary.TotalO3 {
		t.Errorf("OVerify total (%v) should beat O3 total (%v)",
			summary.TotalOVerify, summary.TotalO3)
	}
	if summary.ReductionVsO0 <= 0 {
		t.Errorf("expected positive reduction vs O0, got %.2f", summary.ReductionVsO0)
	}
}

// table2Pinned is Table 2 at n=3: base->with symbolic instructions,
// paths and execution instructions per row. Every count is
// deterministic, so a change to a row's pipeline, or to what one of its
// passes emits, moves one of them.
var table2Pinned = []bench.Table2Row{
	{Name: "constant folding + simplification", VerifInstrsBase: 2315, VerifInstrsWith: 1948, PathsBase: 82, PathsWith: 82, ExecInstrsBase: 1934, ExecInstrsWith: 1570},
	{Name: "remove memory accesses (mem2reg)", VerifInstrsBase: 2603, VerifInstrsWith: 2242, PathsBase: 82, PathsWith: 82, ExecInstrsBase: 2404, ExecInstrsWith: 1891},
	{Name: "jump threading + unswitching", VerifInstrsBase: 1948, VerifInstrsWith: 1989, PathsBase: 82, PathsWith: 86, ExecInstrsBase: 1570, ExecInstrsWith: 1494},
	{Name: "inlining + unrolling", VerifInstrsBase: 1948, VerifInstrsWith: 1747, PathsBase: 82, PathsWith: 82, ExecInstrsBase: 1570, ExecInstrsWith: 1355},
	{Name: "if-conversion (branch->select)", VerifInstrsBase: 1747, VerifInstrsWith: 636, PathsBase: 82, PathsWith: 35, ExecInstrsBase: 1355, ExecInstrsWith: 1293},
	{Name: "runtime checks", VerifInstrsBase: 1948, VerifInstrsWith: 2026, PathsBase: 82, PathsWith: 82, ExecInstrsBase: 1570, ExecInstrsWith: 1654},
}

// TestTable2Shape pins every row of the measured ablation and asserts
// its signs for the rows where the paper is unambiguous.
func TestTable2Shape(t *testing.T) {
	rows, err := bench.Table2(bench.Table2Options{InputBytes: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", bench.RenderTable2(rows))
	if len(rows) != len(table2Pinned) {
		t.Fatalf("%d rows, want %d", len(rows), len(table2Pinned))
	}
	for i, r := range rows {
		if r != table2Pinned[i] {
			t.Errorf("row %d:\n  got  %+v\n  want %+v", i, r, table2Pinned[i])
		}
	}
	byName := map[string]bench.Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Constant folding helps both verification and execution.
	cf := byName["constant folding + simplification"]
	if cf.VerifImpact() != "+" {
		t.Errorf("constant folding verification impact = %s, want +", cf.VerifImpact())
	}
	if cf.ExecImpact() == "-" {
		t.Errorf("constant folding execution impact = -, want + or 0")
	}
	// mem2reg helps both.
	m2r := byName["remove memory accesses (mem2reg)"]
	if m2r.VerifImpact() != "+" || m2r.ExecImpact() != "+" {
		t.Errorf("mem2reg impacts = %s/%s, want +/+", m2r.VerifImpact(), m2r.ExecImpact())
	}
	// If-conversion helps verification (the paper's headline) and hurts
	// or is neutral for execution.
	ic := byName["if-conversion (branch->select)"]
	if ic.VerifImpact() != "+" {
		t.Errorf("if-conversion verification impact = %s, want +", ic.VerifImpact())
	}
	if ic.PathsWith >= ic.PathsBase {
		t.Errorf("if-conversion paths: %d -> %d, want a reduction", ic.PathsBase, ic.PathsWith)
	}
	// Runtime checks cost execution time (negative) — that's their price.
	rc := byName["runtime checks"]
	if rc.ExecImpact() == "+" {
		t.Errorf("runtime checks execution impact = +, want - or 0")
	}
}
