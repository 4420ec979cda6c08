package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
)

// Figure4Options parameterize the corpus study.
type Figure4Options struct {
	// InputBytes is the symbolic input size (paper: 2–10 bytes).
	InputBytes int
	// Timeout caps each (program, level) exploration — the paper's
	// one-hour budget, scaled.
	Timeout time.Duration
	// Jobs is how many cells compile at once (0/1 one at a time, -1
	// one per CPU).
	Jobs int
	// Programs restricts the corpus (default: all).
	Programs []string
	// Passes overrides every level's pass sequence, spelled as
	// core.Job.Passes.
	Passes string
}

// Figure4Levels are the three configurations the paper compares.
var Figure4Levels = []pipeline.Level{pipeline.O0, pipeline.O3, pipeline.OVerify}

// Figure4Cell is one (program, level) measurement.
type Figure4Cell struct {
	Total    time.Duration // compile + verify
	Compile  time.Duration
	Verify   time.Duration
	Paths    int64
	Instrs   int64
	TimedOut bool
	Bugs     int
	Err      string
}

// Figure4Row is one program's measurements across levels.
type Figure4Row struct {
	Program string
	Cells   map[pipeline.Level]*Figure4Cell
}

// Figure4Summary aggregates the paper's headline claims.
type Figure4Summary struct {
	Programs          int
	TotalO0           time.Duration
	TotalO3           time.Duration
	TotalOVerify      time.Duration
	ReductionVsO3     float64 // fraction of total time saved vs -O3
	ReductionVsO0     float64
	MaxSpeedupVsO3    float64 // best per-program ratio t(O3)/t(OVerify)
	MaxSpeedupProgram string
	TimeoutsO0        int
	TimeoutsO3        int
	TimeoutsOVerify   int
	RescuedFromO3     int // timed out at -O3, completed at -OVERIFY
	OVerifySlower     int // programs where -O3 beat -OVERIFY
}

// normalized fills the option defaults. Figure4, RenderFigure4 and
// Figure4JSON all normalize, so the rendered and recorded input size
// and timeout always match what the runs actually used.
func (o Figure4Options) normalized() Figure4Options {
	if o.InputBytes == 0 {
		o.InputBytes = 4
	}
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	return o
}

// Figure4 runs the corpus study: compile+verify every program at -O0,
// -O3 and -OVERIFY. Phase 1 compiles every (program, level) module —
// in parallel when Jobs allows, results landing in index-addressed
// slots so the study's ordering stays deterministic; phase 2 verifies
// serially so the wall-clock columns are not perturbed by concurrent
// compilation (each module's compile time was already measured inside
// pipeline.Optimize).
func Figure4(opts Figure4Options) ([]Figure4Row, *Figure4Summary, error) {
	opts = opts.normalized()
	names := opts.Programs
	if names == nil {
		names = coreutils.Names()
	}

	// Every cell is a core.Job; resolving them all first rejects an
	// unknown program or a malformed pass spec before any compile. The
	// job's TimeoutMS 0 means "no budget", so a sub-millisecond Timeout
	// rounds up to 1 ms.
	nl := len(Figure4Levels)
	resolved := make([]*core.Resolved, len(names)*nl)
	for i := range resolved {
		job := core.Job{
			Prog: names[i/nl], Level: Figure4Levels[i%nl].String(), Passes: opts.Passes,
			InputBytes: opts.InputBytes, TimeoutMS: max(opts.Timeout.Milliseconds(), 1),
		}
		r, err := job.Resolve()
		if err != nil {
			return nil, nil, fmt.Errorf("figure4: %w", err)
		}
		resolved[i] = r
	}

	// Phase 1: compile every cell, per-program × per-level parallelism.
	compiled := make([]*core.Compiled, len(resolved))
	cerrs := make([]error, len(resolved))
	parallelDo(len(resolved), opts.Jobs, func(i int) {
		compiled[i], cerrs[i] = resolved[i].Compile()
	})

	// Phase 2: verify serially, in the deterministic study order.
	var rows []Figure4Row
	for pi := range names {
		row := Figure4Row{Program: resolved[pi*nl].Name, Cells: make(map[pipeline.Level]*Figure4Cell)}
		for li, level := range Figure4Levels {
			cell := &Figure4Cell{}
			row.Cells[level] = cell
			r, c, err := resolved[pi*nl+li], compiled[pi*nl+li], cerrs[pi*nl+li]
			if err != nil {
				cell.Err = err.Error()
				continue
			}
			cell.Compile = c.Result.CompileTime
			rep, err := c.Verify(r.Entry, r.Verify)
			if err != nil {
				cell.Err = err.Error()
				continue
			}
			cell.Verify = rep.Stats.Elapsed
			cell.Total = cell.Compile + cell.Verify
			cell.Paths = rep.Stats.TotalPaths()
			cell.Instrs = rep.Stats.Instrs
			cell.TimedOut = rep.Stats.TimedOut
			cell.Bugs = len(rep.Bugs)
		}
		rows = append(rows, row)
	}
	return rows, summarizeFigure4(rows, opts), nil
}

func summarizeFigure4(rows []Figure4Row, opts Figure4Options) *Figure4Summary {
	s := &Figure4Summary{Programs: len(rows)}
	for _, row := range rows {
		o0 := row.Cells[pipeline.O0]
		o3 := row.Cells[pipeline.O3]
		ov := row.Cells[pipeline.OVerify]
		if o0 == nil || o3 == nil || ov == nil {
			continue
		}
		s.TotalO0 += o0.Total
		s.TotalO3 += o3.Total
		s.TotalOVerify += ov.Total
		if o0.TimedOut {
			s.TimeoutsO0++
		}
		if o3.TimedOut {
			s.TimeoutsO3++
		}
		if ov.TimedOut {
			s.TimeoutsOVerify++
		}
		if o3.TimedOut && !ov.TimedOut {
			s.RescuedFromO3++
		}
		if !o3.TimedOut && !ov.TimedOut && o3.Total < ov.Total {
			s.OVerifySlower++
		}
		if !ov.TimedOut && ov.Total > 0 {
			speedup := float64(o3.Total) / float64(ov.Total)
			if speedup > s.MaxSpeedupVsO3 {
				s.MaxSpeedupVsO3 = speedup
				s.MaxSpeedupProgram = row.Program
			}
		}
	}
	if s.TotalO3 > 0 {
		s.ReductionVsO3 = 1 - float64(s.TotalOVerify)/float64(s.TotalO3)
	}
	if s.TotalO0 > 0 {
		s.ReductionVsO0 = 1 - float64(s.TotalOVerify)/float64(s.TotalO0)
	}
	return s
}

// RenderFigure4 draws the study as a sorted text chart in the spirit of
// the paper's Figure 4 (one bar per experiment), followed by the
// summary lines the paper quotes.
func RenderFigure4(rows []Figure4Row, s *Figure4Summary, opts Figure4Options) string {
	opts = opts.normalized()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: compile+verify time per program (%d symbolic bytes, timeout %s)\n\n",
		opts.InputBytes, opts.Timeout)
	fmt.Fprintf(&sb, "%-10s %12s %12s %12s  %s\n", "program", "-O0[ms]", "-O3[ms]", "-OSYMBEX[ms]", "gain vs -O3")

	// Sort like the paper: programs where -OVERIFY gains most on the
	// right; here: ascending gain.
	sorted := append([]Figure4Row(nil), rows...)
	gain := func(r Figure4Row) float64 {
		o3, ov := r.Cells[pipeline.O3], r.Cells[pipeline.OVerify]
		if o3 == nil || ov == nil || ov.Total == 0 {
			return 0
		}
		return float64(o3.Total) - float64(ov.Total)
	}
	sort.Slice(sorted, func(i, j int) bool { return gain(sorted[i]) < gain(sorted[j]) })

	for _, row := range sorted {
		o0, o3, ov := row.Cells[pipeline.O0], row.Cells[pipeline.O3], row.Cells[pipeline.OVerify]
		cellStr := func(c *Figure4Cell) string {
			if c == nil || c.Err != "" {
				return "err"
			}
			str := fmtDur(c.Total)
			if c.TimedOut {
				str = ">" + str
			}
			return str
		}
		bar := ""
		if o3 != nil && ov != nil && ov.Total > 0 {
			ratio := float64(o3.Total) / float64(ov.Total)
			n := int(ratio)
			if n > 40 {
				n = 40
			}
			if n >= 1 {
				bar = strings.Repeat("#", n)
			}
			bar = fmt.Sprintf("%-40s %.1fx", bar, ratio)
		}
		fmt.Fprintf(&sb, "%-10s %12s %12s %12s  %s\n",
			row.Program, cellStr(o0), cellStr(o3), cellStr(ov), bar)
	}

	fmt.Fprintf(&sb, "\nSummary over %d programs:\n", s.Programs)
	fmt.Fprintf(&sb, "  total time: -O0 %s, -O3 %s, -OSYMBEX %s\n",
		s.TotalO0.Round(time.Millisecond), s.TotalO3.Round(time.Millisecond),
		s.TotalOVerify.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  -OSYMBEX reduces total time by %.0f%% vs -O3 and %.0f%% vs -O0\n",
		100*s.ReductionVsO3, 100*s.ReductionVsO0)
	fmt.Fprintf(&sb, "  max benefit: %.0fx (%s)\n", s.MaxSpeedupVsO3, s.MaxSpeedupProgram)
	fmt.Fprintf(&sb, "  timeouts: %d at -O0, %d at -O3, %d at -OSYMBEX (%d rescued from -O3)\n",
		s.TimeoutsO0, s.TimeoutsO3, s.TimeoutsOVerify, s.RescuedFromO3)
	fmt.Fprintf(&sb, "  programs where -O3 beat -OSYMBEX: %d\n", s.OVerifySlower)
	return sb.String()
}

// Figure4JSON renders the study (rows, summary, options) as JSON — the
// machine-readable record overify-bench -figure4 -json writes.
func Figure4JSON(rows []Figure4Row, s *Figure4Summary, opts Figure4Options) ([]byte, error) {
	opts = opts.normalized()
	type cellJSON struct {
		Level string
		*Figure4Cell
	}
	type rowJSON struct {
		Program string
		Cells   []cellJSON
	}
	out := struct {
		InputBytes int
		TimeoutMs  float64
		Jobs       int
		Rows       []rowJSON
		Summary    *Figure4Summary
	}{
		InputBytes: opts.InputBytes,
		TimeoutMs:  float64(opts.Timeout.Microseconds()) / 1000,
		Jobs:       opts.Jobs,
		Summary:    s,
	}
	for _, row := range rows {
		rj := rowJSON{Program: row.Program}
		for _, level := range Figure4Levels {
			if cell := row.Cells[level]; cell != nil {
				rj.Cells = append(rj.Cells, cellJSON{Level: level.String(), Figure4Cell: cell})
			}
		}
		out.Rows = append(out.Rows, rj)
	}
	return json.MarshalIndent(out, "", "  ")
}
