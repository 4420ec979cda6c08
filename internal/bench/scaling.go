package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// ScalingOptions parameterize the worker-scaling study: per-level
// verification wall-clock at 1..N workers. This is the harness behind
// the parallel-engine claim — program-side reductions (-OVERIFY) and
// verifier-side throughput (workers) compound.
type ScalingOptions struct {
	// Program is the corpus target (default "wc").
	Program string
	// InputBytes is the symbolic input size (default 5).
	InputBytes int
	// Timeout caps each cell (default 60s).
	Timeout time.Duration
	// Workers are the worker counts to sweep (default 1,2,4..NumCPU,
	// always at least 1,2,4).
	Workers []int
	// Levels to measure (default O0, O3, OVerify — Figure 4's columns).
	Levels []pipeline.Level
	// Strategy is the exploration order (default DFS).
	Strategy symex.SearchKind
}

// ScalingCell is one (level, workers) measurement.
type ScalingCell struct {
	Workers  int
	Elapsed  time.Duration
	Paths    int64
	TimedOut bool
	Speedup  float64 // wall-clock of the same level at 1 worker / this
}

// ScalingRow is one level's sweep over worker counts.
type ScalingRow struct {
	Level       pipeline.Level
	CompileTime time.Duration
	Cells       []ScalingCell
}

// DefaultWorkerCounts returns the sweep 1,2,4,...,NumCPU (deduplicated,
// ascending; always includes 1, 2 and 4 so the table is comparable
// across machines).
func DefaultWorkerCounts() []int {
	counts := []int{1, 2, 4}
	for n := 8; n <= runtime.NumCPU(); n *= 2 {
		counts = append(counts, n)
	}
	return counts
}

// withDefaults resolves the zero-valued fields; Scaling and
// RenderScaling both normalize through here so the header always
// matches the measurement.
func (o ScalingOptions) withDefaults() ScalingOptions {
	if o.Program == "" {
		o.Program = "wc"
	}
	if o.InputBytes == 0 {
		o.InputBytes = 5
	}
	if o.Timeout == 0 {
		o.Timeout = 60 * time.Second
	}
	if o.Workers == nil {
		o.Workers = DefaultWorkerCounts()
	}
	if o.Levels == nil {
		o.Levels = []pipeline.Level{pipeline.O0, pipeline.O3, pipeline.OVerify}
	}
	return o
}

// Scaling runs the worker-scaling study on one corpus program.
func Scaling(opts ScalingOptions) ([]ScalingRow, error) {
	opts = opts.withDefaults()
	p, ok := coreutils.Get(opts.Program)
	if !ok {
		return nil, fmt.Errorf("scaling: unknown corpus program %q", opts.Program)
	}

	var rows []ScalingRow
	for _, level := range opts.Levels {
		c, err := core.CompileProgram(p, level)
		if err != nil {
			return nil, fmt.Errorf("scaling %s at %s: %w", p.Name, level, err)
		}
		row := ScalingRow{Level: level, CompileTime: c.Result.CompileTime}
		var base time.Duration
		for i, workers := range opts.Workers {
			rep, err := c.Verify("umain", core.VerifyOptions{
				InputBytes: opts.InputBytes,
				Engine: symex.Options{
					Timeout: opts.Timeout, Workers: workers,
					Strategy: opts.Strategy,
				},
			})
			if err != nil {
				return nil, fmt.Errorf("scaling %s at %s: %w", p.Name, level, err)
			}
			st := &rep.Stats
			cell := ScalingCell{
				Workers:  st.Workers,
				Elapsed:  st.Elapsed,
				Paths:    st.TotalPaths(),
				TimedOut: st.TimedOut,
			}
			if i == 0 {
				base = st.Elapsed
			}
			if st.Elapsed > 0 && base > 0 {
				cell.Speedup = float64(base) / float64(st.Elapsed)
			}
			row.Cells = append(row.Cells, cell)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderScaling formats the sweep: one block per level, one line per
// worker count, with the speedup relative to the level's serial run.
func RenderScaling(rows []ScalingRow, opts ScalingOptions) string {
	opts = opts.withDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Worker scaling: %s, %d symbolic bytes (GOMAXPROCS=%d)\n",
		opts.Program, opts.InputBytes, runtime.GOMAXPROCS(0))
	for _, row := range rows {
		fmt.Fprintf(&sb, "\n%s (compile %s)\n", row.Level, fmtDur(row.CompileTime)+"ms")
		fmt.Fprintf(&sb, "  %8s %14s %10s %10s\n", "workers", "tverify [ms]", "paths", "speedup")
		for _, cell := range row.Cells {
			d := fmtDur(cell.Elapsed)
			if cell.TimedOut {
				d = ">" + d
			}
			fmt.Fprintf(&sb, "  %8d %14s %10s %9.2fx\n",
				cell.Workers, d, fmtCount(cell.Paths), cell.Speedup)
		}
	}
	sb.WriteString("\n(speedup is relative to the same level at the first worker count;\n")
	sb.WriteString(" wall-clock gains require GOMAXPROCS > 1 — verdicts never depend on workers)\n")
	return sb.String()
}
