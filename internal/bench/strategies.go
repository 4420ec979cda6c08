package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// StrategyCompareOptions parameterize the search-strategy study: for
// each (program, level), verify once per strategy and compare t_verify
// and the work counters. This is the Figure-4-style harness that says
// which exploration order minimizes verification effort at each
// optimization level — the verifier-side analogue of the paper's
// program-side -OVERIFY lever.
type StrategyCompareOptions struct {
	// Programs restricts the corpus (default: all).
	Programs []string
	// InputBytes is the symbolic input size (default 3).
	InputBytes int
	// Timeout caps each (program, level, strategy) cell (default 5s).
	Timeout time.Duration
	// Workers is the engine worker count (0/1 serial).
	Workers int
	// Levels to measure (default O0 and O2 — unoptimized vs. the
	// classic CPU-oriented middle level).
	Levels []pipeline.Level
	// Strategies to compare (default: all built-ins).
	Strategies []symex.SearchKind
	// Seed feeds the random-path strategy.
	Seed int64
}

func (o StrategyCompareOptions) withDefaults() StrategyCompareOptions {
	if o.Programs == nil {
		o.Programs = coreutils.Names()
	}
	if o.InputBytes == 0 {
		o.InputBytes = 3
	}
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Levels == nil {
		o.Levels = []pipeline.Level{pipeline.O0, pipeline.O2}
	}
	if o.Strategies == nil {
		o.Strategies = symex.Strategies()
	}
	return o
}

// StrategyCell is one (program, level, strategy) measurement.
type StrategyCell struct {
	Strategy string  `json:"strategy"`
	VerifyMs float64 `json:"t_verify_ms"`
	Paths    int64   `json:"paths"`
	States   int64   `json:"states_explored"`
	Instrs   int64   `json:"instrs"`
	Covered  int     `json:"covered_blocks"`
	Bugs     int     `json:"bugs"`
	TimedOut bool    `json:"timed_out,omitempty"`
	Err      string  `json:"error,omitempty"`
}

// StrategyRow is one (program, level) sweep over strategies.
type StrategyRow struct {
	Program   string         `json:"program"`
	Level     string         `json:"level"`
	CompileMs float64        `json:"t_compile_ms"`
	Cells     []StrategyCell `json:"strategies"`
}

// StrategyCompare runs the study: compile each program once per level,
// then verify once per strategy against the same module.
func StrategyCompare(opts StrategyCompareOptions) ([]StrategyRow, error) {
	opts = opts.withDefaults()
	var rows []StrategyRow
	for _, name := range opts.Programs {
		p, ok := coreutils.Get(name)
		if !ok {
			return nil, fmt.Errorf("strategies: unknown corpus program %q", name)
		}
		for _, level := range opts.Levels {
			c, err := core.CompileProgram(p, level)
			if err != nil {
				return nil, fmt.Errorf("strategies %s at %s: %w", name, level, err)
			}
			row := StrategyRow{
				Program:   name,
				Level:     level.String(),
				CompileMs: durMs(c.Result.CompileTime),
			}
			for _, strat := range opts.Strategies {
				cell := StrategyCell{Strategy: strat.String()}
				rep, err := c.Verify("umain", core.VerifyOptions{
					InputBytes: opts.InputBytes,
					Engine: symex.Options{
						Timeout: opts.Timeout, Workers: opts.Workers,
						Strategy: strat, Seed: opts.Seed,
					},
				})
				if err != nil {
					cell.Err = err.Error()
					row.Cells = append(row.Cells, cell)
					continue
				}
				st := &rep.Stats
				cell.VerifyMs = durMs(st.Elapsed)
				cell.Paths = st.TotalPaths()
				cell.States = st.StatesExplored
				cell.Instrs = st.Instrs
				cell.Covered = st.CoveredBlocks
				cell.Bugs = len(rep.Bugs)
				cell.TimedOut = st.TimedOut
				row.Cells = append(row.Cells, cell)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// StrategyCompareJSON renders the rows as the BENCH_strategies.json
// trajectory artifact: per-strategy t_verify and states-explored that
// later PRs benchmark against.
func StrategyCompareJSON(rows []StrategyRow, opts StrategyCompareOptions) ([]byte, error) {
	opts = opts.withDefaults()
	doc := struct {
		InputBytes int           `json:"input_bytes"`
		TimeoutMs  float64       `json:"timeout_ms"`
		Workers    int           `json:"workers"`
		Rows       []StrategyRow `json:"rows"`
	}{opts.InputBytes, durMs(opts.Timeout), opts.Workers, rows}
	return json.MarshalIndent(doc, "", "  ")
}

// RenderStrategyCompare draws one block per (program, level): a line
// per strategy plus a verdict line naming the t_verify winner.
func RenderStrategyCompare(rows []StrategyRow, opts StrategyCompareOptions) string {
	opts = opts.withDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Search-strategy comparison: %d symbolic bytes, timeout %s, %d programs\n",
		opts.InputBytes, opts.Timeout, len(opts.Programs))
	for _, row := range rows {
		fmt.Fprintf(&sb, "\n%s at %s (compile %.1fms)\n", row.Program, row.Level, row.CompileMs)
		fmt.Fprintf(&sb, "  %-8s %12s %10s %10s %10s %6s\n",
			"strategy", "tverify[ms]", "paths", "states", "covered", "bugs")
		best := ""
		bestMs := 0.0
		for _, cell := range row.Cells {
			if cell.Err != "" {
				fmt.Fprintf(&sb, "  %-8s error: %s\n", cell.Strategy, cell.Err)
				continue
			}
			d := fmt.Sprintf("%.1f", cell.VerifyMs)
			if cell.TimedOut {
				d = ">" + d
			}
			fmt.Fprintf(&sb, "  %-8s %12s %10s %10s %10d %6d\n",
				cell.Strategy, d, fmtCount(cell.Paths), fmtCount(cell.States), cell.Covered, cell.Bugs)
			if !cell.TimedOut && (best == "" || cell.VerifyMs < bestMs) {
				best, bestMs = cell.Strategy, cell.VerifyMs
			}
		}
		if best != "" {
			fmt.Fprintf(&sb, "  -> fastest: %s\n", best)
		}
	}
	sb.WriteString("\n(verdicts are strategy-independent; what differs is effort. A budgeted run\n")
	sb.WriteString(" — MaxPaths, CoverTarget or a timeout — is where strategy choice pays.)\n")
	return sb.String()
}

// durMs converts a duration to float milliseconds for the JSON artifact.
func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }
