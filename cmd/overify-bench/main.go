// Command overify-bench regenerates the paper's tables and figures:
//
//	overify-bench -table1 [-n 10] [-words 50000] [-j workers] [-passes spec]
//	overify-bench -table2 [-n 3]
//	overify-bench -table3
//	overify-bench -figure4 [-n 5] [-timeout 10s] [-j workers] [-search dfs|bfs|covnew] [-budget [-cover N]] [-json FILE]
//	overify-bench -scaling [-prog wc] [-n 5] [-timeout 60s]
//	overify-bench -slicing [-n 3] [-timeout 3s] [-prog cksum] [-json BENCH_slicing.json]
//	overify-bench -tune [-tune-budget 64] [-seed S] [-prog wc-c,tr] [-j workers] [-best-out FILE] [-json BENCH_autotune.json]
//	overify-bench -all
//
// -search selects the exploration order for Table 1, Figure 4 and the
// scaling study. -budget extends Figure 4 with per-strategy
// time-to-coverage columns (each strategy under the timeout with
// CoverTarget set; -cover overrides the per-cell full-coverage
// target), and -figure4 -json records the study machine-readably.
// -passes overrides every level's pass pipeline for Table 1/Figure 4;
// -j also parallelizes the pass manager (and, in the Table 1/Figure 4
// drivers, compiles whole modules in parallel). Output is the text
// rendering recorded in EXPERIMENTS.md.
//
// The daemon, cluster, verdict-store and solver measurements live in
// the ledger: `go run ./benchmark -workload served_mix|cluster_split|solver_hard`.
//
// -tune runs the pass-ordering autotuner: one hill-climbing schedule
// search per program (comma-separated -prog restricts the set), each
// candidate gated on bug parity against the stock -OVERIFY baseline
// and ranked by deterministic verify work units. -tune-budget caps
// candidate evaluations per program, -seed fixes the search
// trajectory, and -best-out writes the first program's winning spec to
// a file replayable via `symbex -passes @FILE`. Everywhere a -passes
// spec is accepted, the spelling @FILE loads the spec from that file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"overify/internal/bench"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// emit prints one study's text rendering and, when jsonPath is set,
// writes the study's machine-readable form there.
func emit(text, jsonPath string, toJSON func() ([]byte, error)) {
	fmt.Println(text)
	if jsonPath == "" {
		return
	}
	data, err := toJSON()
	check(err)
	check(os.WriteFile(jsonPath, append(data, '\n'), 0o644))
	fmt.Printf("(wrote %s)\n", jsonPath)
}

func main() {
	t1 := flag.Bool("table1", false, "run the wc micro-benchmark (Table 1)")
	t2 := flag.Bool("table2", false, "run the per-transformation ablation (Table 2)")
	t3 := flag.Bool("table3", false, "run the corpus pass statistics (Table 3)")
	f4 := flag.Bool("figure4", false, "run the corpus verification study (Figure 4)")
	scaling := flag.Bool("scaling", false, "run the worker-scaling study (1..N workers per level)")
	all := flag.Bool("all", false, "run everything")
	n := flag.Int("n", 0, "symbolic input bytes (0 = per-experiment default)")
	words := flag.Int("words", 0, "t_run word count for Table 1")
	timeout := flag.Duration("timeout", 0, "per-run budget for Figure 4 / Table 1 / scaling / slicing / tune verification")
	workers := flag.Int("j", 0, "symbolic-execution workers for Table 1 / Figure 4 (0/1 serial, -1 = NumCPU)")
	prog := flag.String("prog", "", "corpus target for the scaling study (default wc)")
	search := flag.String("search", "", "search strategy (dfs, bfs, covnew)")
	seed := flag.Int64("seed", 0, "autotuner search seed for -tune")
	jsonPath := flag.String("json", "", "write the -slicing, -tune or -figure4 study as JSON to this path")
	passSpec := flag.String("passes", "", "explicit pass pipeline for Table 1 / Figure 4 compiles")
	budget := flag.Bool("budget", false, "add per-strategy time-to-coverage columns to Figure 4")
	coverTarget := flag.Int("cover", 0, "block-coverage target for -budget (0 = each cell's full coverage)")
	slicingSweep := flag.Bool("slicing", false, "run the verification-aware slicing study: baseline vs sliced exploration per program x level")
	tuneSweep := flag.Bool("tune", false, "run the pass-ordering autotuner: search schedules that beat -OVERIFY on verify work units")
	tuneBudget := flag.Int("tune-budget", 64, "candidate evaluations per program for -tune")
	bestOut := flag.String("best-out", "", "with -tune: write the first program's winning spec to this file (replay with symbex -passes @FILE)")
	flag.Parse()

	var pipeSpec *pipeline.PipelineSpec
	if *passSpec != "" {
		text, err := pipeline.LoadSpecArg(*passSpec)
		check(err)
		spec, err := pipeline.ParsePipeline(text)
		check(err)
		pipeSpec = &spec
	}

	strat, err := symex.ParseSearch(*search)
	check(err)

	if *slicingSweep {
		opts := bench.SliceSweepOptions{InputBytes: *n, Timeout: *timeout}
		if *prog != "" {
			opts.Programs = []string{*prog}
		}
		rows, err := bench.SliceSweep(opts)
		check(err)
		emit(bench.RenderSliceSweep(rows, opts), *jsonPath, func() ([]byte, error) {
			return bench.SliceSweepJSON(rows, opts)
		})
	}

	if *tuneSweep {
		opts := bench.TuneSweepOptions{
			InputBytes: *n, Budget: *tuneBudget, Seed: *seed,
			Timeout: *timeout, Jobs: *workers,
		}
		if *prog != "" {
			opts.Programs = strings.Split(*prog, ",")
		}
		rows, err := bench.TuneSweep(opts)
		check(err)
		emit(bench.RenderTuneSweep(rows, opts), *jsonPath, func() ([]byte, error) {
			return bench.TuneSweepJSON(rows, opts)
		})
		if *bestOut != "" && len(rows) > 0 {
			check(os.WriteFile(*bestOut, []byte(rows[0].BestSpec+"\n"), 0o644))
			fmt.Printf("(wrote %s — replay with: symbex -passes @%s -prog %s)\n",
				*bestOut, *bestOut, rows[0].Program)
		}
	}

	if !(*t1 || *t2 || *t3 || *f4 || *scaling || *all) {
		if *slicingSweep || *tuneSweep {
			return
		}
		flag.Usage()
		os.Exit(2)
	}
	if *all {
		*t1, *t2, *t3, *f4, *scaling = true, true, true, true, true
	}

	if *t1 {
		opts := bench.Table1Options{InputBytes: *n, RunWords: *words, VerifyTimeout: *timeout, Workers: *workers, Strategy: strat, Pipeline: pipeSpec}
		rows, err := bench.Table1(opts)
		check(err)
		fmt.Println(bench.RenderTable1(rows, opts))
	}
	if *t2 {
		opts := bench.Table2Options{InputBytes: *n}
		rows, err := bench.Table2(opts)
		check(err)
		fmt.Println(bench.RenderTable2(rows))
	}
	if *t3 {
		rows, err := bench.Table3()
		check(err)
		fmt.Println(bench.RenderTable3(rows))
	}
	if *f4 {
		opts := bench.Figure4Options{
			InputBytes: *n, Timeout: *timeout, Workers: *workers,
			Strategy: strat, Pipeline: pipeSpec,
			Budget: *budget, CoverTarget: *coverTarget,
		}
		if *prog != "" {
			opts.Programs = []string{*prog}
		}
		start := time.Now()
		rows, summary, err := bench.Figure4(opts)
		check(err)
		text := fmt.Sprintf("%s\n(figure 4 harness wall time: %s)",
			bench.RenderFigure4(rows, summary, opts), time.Since(start).Round(time.Millisecond))
		emit(text, *jsonPath, func() ([]byte, error) { return bench.Figure4JSON(rows, summary, opts) })
	}
	if *scaling {
		opts := bench.ScalingOptions{Program: *prog, InputBytes: *n, Timeout: *timeout, Strategy: strat}
		rows, err := bench.Scaling(opts)
		check(err)
		fmt.Println(bench.RenderScaling(rows, opts))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "overify-bench:", err)
		os.Exit(1)
	}
}
