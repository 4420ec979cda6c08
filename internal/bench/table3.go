package bench

import (
	"fmt"
	"strings"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/libc"
	"overify/internal/passes"
	"overify/internal/pipeline"
)

// Table3Row aggregates pass statistics for one optimization level
// across the whole corpus — the paper's Table 3, extended with the
// pass manager's work accounting (invocations actually run, runs the
// change-driven fixpoints skipped, and the Dom/Loops cache hit rate —
// the t_compile side of the verification budget).
type Table3Row struct {
	Level             pipeline.Level
	FunctionsInlined  int
	LoopsUnswitched   int
	LoopsUnrolled     int
	BranchesConverted int
	Programs          int
	Failures          int

	PassInvocations int
	SkippedFuncRuns int
	Analysis        passes.AnalysisStats
}

// Table3 compiles every corpus program at -O0, -O3 and -OVERIFY
// (-OSYMBEX in the paper) and sums the transformation counters. The
// libc is held fixed at the uclibc baseline for every level so the
// counters compare pass behavior on identical input code (the verified
// libc is already branch-free at the source level, which would make the
// -OVERIFY counters look artificially low).
func Table3() ([]Table3Row, error) {
	levels := []pipeline.Level{pipeline.O0, pipeline.O3, pipeline.OVerify}
	var rows []Table3Row
	for _, level := range levels {
		row := Table3Row{Level: level}
		var total passes.Stats
		for _, p := range coreutils.All() {
			c, err := core.CompileSource(p.Name, p.Src, level, libc.Uclibc)
			if err != nil {
				row.Failures++
				continue
			}
			total.Add(c.Result.Stats)
			row.PassInvocations += c.Result.PassInvocations
			row.SkippedFuncRuns += c.Result.SkippedFuncRuns
			row.Analysis.Add(c.Result.Analysis)
			row.Programs++
		}
		row.FunctionsInlined = total.FunctionsInlined
		row.LoopsUnswitched = total.LoopsUnswitched
		// The paper counts loops unrolled; our unroller reports both
		// fully-dissolved loops and individual peels — fully unrolled
		// loops are the comparable number.
		row.LoopsUnrolled = total.LoopsUnrolled
		row.BranchesConverted = total.BranchesConverted
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 formats the rows like the paper's Table 3.
func RenderTable3(rows []Table3Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 3: compiling the %d-program corpus with different options\n", len(coreutils.All()))
	fmt.Fprintf(&sb, "%-24s", "Optimization")
	for _, r := range rows {
		name := r.Level.String()
		if r.Level == pipeline.OVerify {
			name = "-OSYMBEX"
		}
		fmt.Fprintf(&sb, "%12s", name)
	}
	sb.WriteByte('\n')
	line := func(label string, f func(r Table3Row) int) {
		fmt.Fprintf(&sb, "%-24s", label)
		for _, r := range rows {
			fmt.Fprintf(&sb, "%12s", fmtCount(int64(f(r))))
		}
		sb.WriteByte('\n')
	}
	line("# functions inlined", func(r Table3Row) int { return r.FunctionsInlined })
	line("# loops unswitched", func(r Table3Row) int { return r.LoopsUnswitched })
	line("# loops unrolled", func(r Table3Row) int { return r.LoopsUnrolled })
	line("# branches converted", func(r Table3Row) int { return r.BranchesConverted })
	line("# pass invocations", func(r Table3Row) int { return r.PassInvocations })
	line("# runs skipped", func(r Table3Row) int { return r.SkippedFuncRuns })
	fmt.Fprintf(&sb, "%-24s", "analysis cache hits")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%11.0f%%", 100*r.Analysis.HitRate())
	}
	sb.WriteByte('\n')
	return sb.String()
}
