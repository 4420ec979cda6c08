package bench

import (
	"fmt"
	"strings"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/libc"
	"overify/internal/passes"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// Table2Benchmarks is the program set the ablation measures on: wc plus
// a few corpus utilities with different control-flow shapes.
var Table2Benchmarks = []string{"wc", "tr", "cut", "uniq", "sum"}

// Table2Row measures one transformation's impact on verification and
// execution — the measured version of the paper's qualitative Table 2.
type Table2Row struct {
	Name string

	// Verification cost with and without the transformation: symbolic
	// instructions interpreted and paths explored, summed over the
	// benchmark set.
	VerifInstrsBase int64
	VerifInstrsWith int64
	PathsBase       int64
	PathsWith       int64

	// Execution cost: concrete instructions on the sample inputs.
	ExecInstrsBase int64
	ExecInstrsWith int64
}

// VerifImpact is the sign of the verification effect (+ improves).
func (r Table2Row) VerifImpact() string { return impact(r.VerifInstrsBase, r.VerifInstrsWith) }

// ExecImpact is the sign of the execution effect (+ improves).
func (r Table2Row) ExecImpact() string { return impact(r.ExecInstrsBase, r.ExecInstrsWith) }

func impact(base, with int64) string {
	if base == 0 {
		return "0"
	}
	delta := float64(base-with) / float64(base)
	switch {
	case delta > 0.02:
		return "+"
	case delta < -0.02:
		return "-"
	default:
		return "0"
	}
}

func pct(base, with int64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", 100*float64(base-with)/float64(base))
}

// ablation defines one Table 2 row: the baseline pass list and the pass
// list with the transformation under study added.
type ablation struct {
	name string
	base func(cost passes.CostModel) []passes.Pass
	with func(cost passes.CostModel) []passes.Pass
}

func cleanupSeq() []passes.Pass {
	return []passes.Pass{passes.Simplify(), passes.CSE(), passes.SimplifyCFG(), passes.DCE()}
}

func ablations() []ablation {
	ssa := func(passes.CostModel) []passes.Pass { return []passes.Pass{passes.Mem2Reg()} }
	ssaClean := func(passes.CostModel) []passes.Pass {
		return append([]passes.Pass{passes.Mem2Reg()}, cleanupSeq()...)
	}
	withExtra := func(base func(passes.CostModel) []passes.Pass, extra ...passes.Pass) func(passes.CostModel) []passes.Pass {
		return func(cost passes.CostModel) []passes.Pass {
			seq := append([]passes.Pass(nil), base(cost)...)
			seq = append(seq, extra...)
			seq = append(seq, cleanupSeq()...)
			return seq
		}
	}
	return []ablation{
		{
			// Paper row 1: constant propagation/folding, arithmetic
			// simplifications.
			name: "constant folding + simplification",
			base: ssa,
			with: withExtra(ssa),
		},
		{
			// Paper row 2: remove/split memory accesses (mem2reg is the
			// "convert memory to registers" transform).
			name: "remove memory accesses (mem2reg)",
			base: func(passes.CostModel) []passes.Pass { return nil },
			with: func(passes.CostModel) []passes.Pass {
				return []passes.Pass{passes.Mem2Reg(), passes.DCE()}
			},
		},
		{
			// Paper row 3: simplify control flow — jump threading and
			// loop unswitching.
			name: "jump threading + unswitching",
			base: ssaClean,
			with: withExtra(ssaClean, passes.JumpThread(), passes.Unswitch()),
		},
		{
			// Paper row 4: restructure the program — inlining and
			// unrolling.
			name: "inlining + unrolling",
			base: ssaClean,
			with: withExtra(ssaClean, passes.Inline(), passes.Mem2Reg(), passes.Unroll()),
		},
		{
			// The transform behind Listing 2: speculative branch-free
			// conversion. Inlining first so callee branches are visible.
			name: "if-conversion (branch->select)",
			base: withExtra(ssaClean, passes.Inline(), passes.Mem2Reg()),
			with: withExtra(ssaClean, passes.Inline(), passes.Mem2Reg(),
				passes.Fixpoint(8, append([]passes.Pass{passes.IfConvert(), passes.JumpThread()}, cleanupSeq()...)...)),
		},
		{
			// Paper row 7: generate runtime checks. More work for both
			// sides, but every illegal behavior becomes a detectable
			// crash.
			name: "runtime checks",
			base: ssaClean,
			with: withExtra(ssaClean, passes.InsertChecks()),
		},
		{
			// Paper row 6: program annotations (ranges) — preserved
			// metadata the paper would have the verifier consume for
			// free branch decisions. No verifier here reads it, so the
			// row measures the metadata alone and reads +0%.
			name: "range annotations",
			base: ssaClean,
			with: withExtra(ssaClean, passes.Annotate()),
		},
	}
}

// Table2Options bound the ablation study.
type Table2Options struct {
	InputBytes int // symbolic input size (default 3)
	Cost       *passes.CostModel
}

// Table2 measures each transformation's verification and execution
// impact over the benchmark set.
func Table2(opts Table2Options) ([]Table2Row, error) {
	if opts.InputBytes == 0 {
		opts.InputBytes = 3
	}
	cost := pipeline.VerifyCost()
	if opts.Cost != nil {
		cost = *opts.Cost
	}
	var rows []Table2Row
	for _, ab := range ablations() {
		row := Table2Row{Name: ab.name}
		for _, progName := range Table2Benchmarks {
			src, sample, fn, verify := benchProgram(progName)
			for _, variant := range []struct {
				seq []passes.Pass
				vi  *int64
				pi  *int64
				ei  *int64
			}{
				{ab.base(cost), &row.VerifInstrsBase, &row.PathsBase, &row.ExecInstrsBase},
				{ab.with(cost), &row.VerifInstrsWith, &row.PathsWith, &row.ExecInstrsWith},
			} {
				c, err := core.CompileWithPasses(progName, src, libc.Uclibc, cost, variant.seq)
				if err != nil {
					return nil, fmt.Errorf("table2 %s/%s: %w", ab.name, progName, err)
				}
				rep, err := verify(c, opts.InputBytes)
				if err != nil {
					return nil, fmt.Errorf("table2 %s/%s: verify: %w", ab.name, progName, err)
				}
				*variant.vi += rep.Stats.Instrs
				*variant.pi += rep.Stats.TotalPaths()
				rr, err := c.Run(fn, []byte(sample))
				if err != nil {
					return nil, fmt.Errorf("table2 %s/%s: run: %w", ab.name, progName, err)
				}
				*variant.ei += rr.Stats.Instrs
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// benchProgram resolves a Table 2 benchmark name to source, sample
// input, entry function, and a verify driver.
func benchProgram(name string) (src, sample, fn string, verify func(*core.Compiled, int) (*symex.Report, error)) {
	if name == "wc" {
		return WcSource, "some words here", "wc",
			func(c *core.Compiled, n int) (*symex.Report, error) {
				return VerifyWc(c, n, symex.Options{})
			}
	}
	p, ok := coreutils.Get(name)
	if !ok {
		panic("bench: unknown table2 program " + name)
	}
	return p.Src, p.Sample, "umain",
		func(c *core.Compiled, n int) (*symex.Report, error) {
			return c.Verify("umain", core.VerifyOptions{InputBytes: n})
		}
}

// RenderTable2 formats the measured ablation like the paper's Table 2,
// with measured percentages next to the +/− signs.
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: measured impact of each transformation (base -> with, summed over benchmarks)\n")
	fmt.Fprintf(&sb, "%-36s %14s %14s %16s %14s\n",
		"Transformation", "Verification", "(sym instrs)", "(paths)", "Execution")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-36s %7s %6s %14s %16s %7s %6s\n",
			r.Name,
			r.VerifImpact(), pct(r.VerifInstrsBase, r.VerifInstrsWith),
			fmt.Sprintf("%s->%s", fmtCount(r.VerifInstrsBase), fmtCount(r.VerifInstrsWith)),
			fmt.Sprintf("%s->%s", fmtCount(r.PathsBase), fmtCount(r.PathsWith)),
			r.ExecImpact(), pct(r.ExecInstrsBase, r.ExecInstrsWith))
	}
	return sb.String()
}
