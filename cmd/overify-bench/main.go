// Command overify-bench regenerates the paper's tables and figures:
//
//	overify-bench -table1 [-n 10] [-words 50000] [-j jobs] [-passes spec]
//	overify-bench -table2 [-n 3]
//	overify-bench -table3
//	overify-bench -figure4 [-n 5] [-timeout 10s] [-j jobs] [-prog wc] [-json FILE]
//	overify-bench -all
//
// -figure4 -json records the study machine-readably. -passes overrides
// every level's pass pipeline for Table 1/Figure 4; -j sets how many
// of their modules compile at once (verification runs one cell at a
// time either way). Output is the text rendering recorded in
// EXPERIMENTS.md.
//
// Table 1 and Figure 4 build one core.Job per (program, level) cell,
// with -passes as the job's Passes text, so Job.Resolve decides each
// module as it does for symbex. Table 2 and Table 3 compile ablation
// and uclibc configurations a job cannot name.
//
// The daemon, cluster, verdict-store and solver measurements live in
// the ledger: `go run ./benchmark -workload served_mix|cluster_split|solver_hard`.
// Slicing is `symbex -slice`; spreading one job over several cores is
// `symbex -cluster` over local overifyd workers.
//
// Everywhere a -passes spec is accepted, the spelling @FILE loads the
// spec from that file.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"overify/internal/bench"
	"overify/internal/core"
	"overify/internal/pipeline"
)

func main() {
	t1 := flag.Bool("table1", false, "run the wc micro-benchmark (Table 1)")
	t2 := flag.Bool("table2", false, "run the per-transformation ablation (Table 2)")
	t3 := flag.Bool("table3", false, "run the corpus pass statistics (Table 3)")
	f4 := flag.Bool("figure4", false, "run the corpus verification study (Figure 4)")
	all := flag.Bool("all", false, "run everything")
	n := flag.Int("n", 0, "symbolic input bytes (0 = per-experiment default)")
	words := flag.Int("words", 0, "t_run word count for Table 1")
	timeout := flag.Duration("timeout", 0, "per-run budget for Figure 4 / Table 1 verification")
	jobs := flag.Int("j", 0, "modules Table 1 / Figure 4 compile at once (0/1 one at a time, -1 = NumCPU)")
	prog := flag.String("prog", "", "restrict Figure 4 to one corpus program")
	jsonPath := flag.String("json", "", "write the -figure4 study as JSON to this path")
	passSpec := flag.String("passes", "", "explicit pass pipeline for Table 1 / Figure 4 compiles")
	flag.Parse()

	// The drivers take the spec as core.Job.Passes; one probe job
	// rejects a malformed spec before any table runs.
	var passes string
	if *passSpec != "" {
		text, err := pipeline.LoadSpecArg(*passSpec)
		check(err)
		_, err = core.Job{Prog: "wc", Passes: text}.Resolve()
		check(err)
		passes = text
	}

	if !(*t1 || *t2 || *t3 || *f4 || *all) {
		flag.Usage()
		os.Exit(2)
	}
	if *all {
		*t1, *t2, *t3, *f4 = true, true, true, true
	}

	if *t1 {
		opts := bench.Table1Options{InputBytes: *n, RunWords: *words, VerifyTimeout: *timeout, Jobs: *jobs, Passes: passes}
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
			InputBytes: *n, Timeout: *timeout, Jobs: *jobs,
			Passes: passes,
		}
		if *prog != "" {
			opts.Programs = []string{*prog}
		}
		start := time.Now()
		rows, summary, err := bench.Figure4(opts)
		check(err)
		fmt.Printf("%s\n(figure 4 harness wall time: %s)\n",
			bench.RenderFigure4(rows, summary, opts), time.Since(start).Round(time.Millisecond))
		if *jsonPath != "" {
			data, err := bench.Figure4JSON(rows, summary, opts)
			check(err)
			check(os.WriteFile(*jsonPath, append(data, '\n'), 0o644))
			fmt.Printf("(wrote %s)\n", *jsonPath)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "overify-bench:", err)
		os.Exit(1)
	}
}
