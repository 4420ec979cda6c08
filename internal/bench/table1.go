package bench

import (
	"fmt"
	"strings"
	"time"

	"overify/internal/core"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/pipeline"
	"overify/internal/solver"
	"overify/internal/symex"
)

// Table1Options parameterize the wc micro-benchmark.
type Table1Options struct {
	// InputBytes is the maximum symbolic string length (paper: 10).
	InputBytes int
	// RunWords is the word count for the concrete t_run workload
	// (paper: 10^8; scaled down by default).
	RunWords int
	// VerifyTimeout caps each level's exploration.
	VerifyTimeout time.Duration
	// Jobs is how many levels compile at once (0/1 one at a time, -1
	// one per CPU).
	Jobs int
	// Levels to measure (default: O0, O2, O3, OVerify — the paper's
	// columns).
	Levels []pipeline.Level
	// Passes overrides every level's pass sequence, spelled as
	// core.Job.Passes.
	Passes string
}

// Table1Row is one column of the paper's Table 1 (transposed: one row
// per optimization level).
type Table1Row struct {
	Level       pipeline.Level
	VerifyTime  time.Duration
	CompileTime time.Duration
	RunTime     time.Duration
	RunInstrs   int64
	Instrs      int64 // instructions interpreted during verification
	Paths       int64
	TimedOut    bool
	Bugs        int
	Solver      solver.Stats // the per-query cost the paper says dominates
}

// Table1 reproduces the paper's Table 1: exhaustively explore wc for
// strings up to InputBytes characters at each level, measure compile,
// verify and concrete-run time. All levels compile up front — in
// parallel when Jobs allows — then verify and run serially so the
// timing columns are not perturbed by concurrent work.
func Table1(opts Table1Options) ([]Table1Row, error) {
	if opts.InputBytes == 0 {
		opts.InputBytes = 10
	}
	if opts.RunWords == 0 {
		opts.RunWords = 50_000
	}
	if opts.VerifyTimeout == 0 {
		opts.VerifyTimeout = 60 * time.Second
	}
	if opts.Levels == nil {
		opts.Levels = []pipeline.Level{pipeline.O0, pipeline.O2, pipeline.O3, pipeline.OVerify}
	}
	text := WordText(opts.RunWords)

	compiled := make([]*core.Compiled, len(opts.Levels))
	errs := make([]error, len(opts.Levels))
	parallelDo(len(opts.Levels), opts.Jobs, func(i int) {
		job := core.Job{Name: "wc", Source: WcSource, Level: opts.Levels[i].String(), Passes: opts.Passes}
		r, err := job.Resolve()
		if err != nil {
			errs[i] = err
			return
		}
		compiled[i], errs[i] = r.Compile()
	})

	var rows []Table1Row
	for i, level := range opts.Levels {
		if errs[i] != nil {
			return nil, fmt.Errorf("table1 %s: %w", level, errs[i])
		}
		c := compiled[i]
		row := Table1Row{Level: level, CompileTime: c.Result.CompileTime}

		rep, err := VerifyWc(c, opts.InputBytes, symex.Options{Timeout: opts.VerifyTimeout})
		if err != nil {
			return nil, fmt.Errorf("table1 %s: verify: %w", level, err)
		}
		row.VerifyTime = rep.Stats.Elapsed
		row.Instrs = rep.Stats.Instrs
		row.Paths = rep.Stats.TotalPaths()
		row.TimedOut = rep.Stats.TimedOut
		row.Bugs = len(rep.Bugs)
		row.Solver = rep.Stats.SolverStats

		rt, ri, err := TimeConcreteRun(c, "wc", text, interp.IntVal(ir.I32, 0))
		if err != nil {
			return nil, fmt.Errorf("table1 %s: run: %w", level, err)
		}
		row.RunTime = rt
		row.RunInstrs = ri
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable1 formats the rows like the paper's Table 1.
func RenderTable1(rows []Table1Row, opts Table1Options) string {
	var sb strings.Builder
	n := opts.InputBytes
	if n == 0 {
		n = 10
	}
	fmt.Fprintf(&sb, "Table 1: exhaustive symbolic execution of wc, strings up to %d bytes\n", n)
	fmt.Fprintf(&sb, "%-14s", "Optimization")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%14s", r.Level.String())
	}
	sb.WriteByte('\n')

	line := func(label string, f func(r Table1Row) string) {
		fmt.Fprintf(&sb, "%-14s", label)
		for _, r := range rows {
			fmt.Fprintf(&sb, "%14s", f(r))
		}
		sb.WriteByte('\n')
	}
	line("tverify [ms]", func(r Table1Row) string {
		s := fmtDur(r.VerifyTime)
		if r.TimedOut {
			s = ">" + s
		}
		return s
	})
	line("tcompile [ms]", func(r Table1Row) string { return fmtDur(r.CompileTime) })
	line("trun [ms]", func(r Table1Row) string { return fmtDur(r.RunTime) })
	line("# instructions", func(r Table1Row) string { return fmtCount(r.Instrs) })
	line("# paths", func(r Table1Row) string { return fmtCount(r.Paths) })
	line("solver queries", func(r Table1Row) string { return fmtCount(r.Solver.Queries) })
	line("cache hits", func(r Table1Row) string { return fmtCount(r.Solver.CacheHits) })
	line("model reuse", func(r Table1Row) string { return fmtCount(r.Solver.ModelReuseHits) })
	line("tape compiles", func(r Table1Row) string { return fmtCount(r.Solver.TapeCompiles) })
	return sb.String()
}
