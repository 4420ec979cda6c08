package bench

import (
	"fmt"
	"strings"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/libc"
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

// The cleanup stages every ablation ends with, and the SSA-plus-cleanup
// base most rows measure against.
const (
	cleanup  = "simplify,cse,simplifycfg,dce"
	ssaClean = "mem2reg," + cleanup
)

// ablations are the Table 2 rows: the base pipeline and the pipeline
// with the transformation under study added, in -passes= syntax ("" is
// the empty pipeline).
var ablations = []struct{ name, base, with string }{
	// Paper row 1: constant propagation/folding, arithmetic
	// simplifications.
	{"constant folding + simplification", "mem2reg", ssaClean},
	// Paper row 2: remove/split memory accesses (mem2reg is the
	// "convert memory to registers" transform).
	{"remove memory accesses (mem2reg)", "", "mem2reg,dce"},
	// Paper row 3: simplify control flow — jump threading and loop
	// unswitching.
	{"jump threading + unswitching", ssaClean, ssaClean + ",jumpthread,unswitch," + cleanup},
	// Paper row 4: restructure the program — inlining and unrolling.
	{"inlining + unrolling", ssaClean, ssaClean + ",inline,mem2reg,unroll," + cleanup},
	// The transform behind Listing 2: speculative branch-free
	// conversion. Inlining first so callee branches are visible.
	{"if-conversion (branch->select)",
		ssaClean + ",inline,mem2reg," + cleanup,
		ssaClean + ",inline,mem2reg,fixpoint:8(ifconvert,jumpthread," + cleanup + ")," + cleanup},
	// Paper row 7: generate runtime checks. More work for both sides,
	// but every illegal behavior becomes a detectable crash.
	{"runtime checks", ssaClean, ssaClean + ",checks," + cleanup},
	// Paper row 6, program annotations, has no row: no verifier here
	// read the value ranges, they decided none of the corpus's 886
	// comparisons, and the row read +0% until the annotations went.
}

// Table2Options bound the ablation study.
type Table2Options struct {
	InputBytes int // symbolic input size (default 3)
}

// Table2 measures each transformation's verification and execution
// impact over the benchmark set: each row's two pipelines compile
// under the -OVERIFY cost model against uclibc.
func Table2(opts Table2Options) ([]Table2Row, error) {
	if opts.InputBytes == 0 {
		opts.InputBytes = 3
	}
	var rows []Table2Row
	for _, ab := range ablations {
		row := Table2Row{Name: ab.name}
		for _, variant := range []struct {
			spec       string
			vi, pi, ei *int64
		}{
			{ab.base, &row.VerifInstrsBase, &row.PathsBase, &row.ExecInstrsBase},
			{ab.with, &row.VerifInstrsWith, &row.PathsWith, &row.ExecInstrsWith},
		} {
			var spec pipeline.PipelineSpec
			if variant.spec != "" {
				var err error
				if spec, err = pipeline.ParsePipeline(variant.spec); err != nil {
					return nil, fmt.Errorf("table2 %s: %w", ab.name, err)
				}
			}
			cfg := pipeline.Config{Cost: pipeline.VerifyCost(), Pipeline: &spec}
			for _, progName := range Table2Benchmarks {
				src, sample, fn, verify := benchProgram(progName)
				c, err := core.CompileWithConfig(progName, src, cfg, libc.Uclibc)
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
