// Package bench contains the experiment drivers that regenerate every
// table and figure in the paper's evaluation: Table 1 (the wc
// micro-benchmark), Table 2 (per-transformation impact, measured as an
// ablation), Table 3 (pass statistics over the corpus) and Figure 4
// (per-program compile+verify times at -O0/-O3/-OSYMBEX).
//
// Absolute numbers differ from the paper (different decade, different
// substrate); the shapes — who wins, by what factor, where the
// crossovers are — are asserted by the tests in this package and
// recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"strings"
	"time"

	"overify/internal/core"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/libc"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// WcSource is Listing 1 from the paper: the word-count function whose
// classification helpers come from the linked libc.
const WcSource = `
int wc(unsigned char *str, int any) {
	int res = 0;
	int new_word = 1;
	for (unsigned char *p = str; *p; ++p) {
		if (isspace(*p) || (any && !isalpha(*p))) {
			new_word = 1;
		} else {
			if (new_word) {
				++res;
				new_word = 0;
			}
		}
	}
	return res;
}
`

// VerifyWc symbolically explores wc over strings of up to n bytes with a
// symbolic `any` flag — the paper's Table 1 experiment.
func VerifyWc(c *core.Compiled, n int, opts symex.Options) (*symex.Report, error) {
	eng := symex.NewEngine(c.Mod, opts)
	buf := eng.SymbolicBuffer("input", n, true)
	any := eng.SymbolicInt("any", ir.I32)
	return eng.Run("wc", []symex.SymVal{buf, any}, nil)
}

// WordText generates a deterministic text with the given number of
// words, the "t_run" workload (the paper used 10^8 words; callers scale).
func WordText(words int) []byte {
	var sb strings.Builder
	sb.Grow(words * 6)
	for i := 0; i < words; i++ {
		switch i % 4 {
		case 0:
			sb.WriteString("lorem ")
		case 1:
			sb.WriteString("ipsum\t")
		case 2:
			sb.WriteString("dolor\n")
		default:
			sb.WriteString("sit ")
		}
	}
	return []byte(sb.String())
}

// TimeConcreteRun runs fn(buf, len) on the interpreter and reports the
// wall time and instruction count.
func TimeConcreteRun(c *core.Compiled, fn string, input []byte, extraArgs ...interp.Value) (time.Duration, int64, error) {
	m := interp.NewMachine(c.Mod, interp.Options{MaxSteps: 2_000_000_000})
	buf := interp.ByteObject("input", append(append([]byte{}, input...), 0))
	args := []interp.Value{interp.PtrVal(buf, 0)}
	args = append(args, extraArgs...)
	start := time.Now()
	_, err := m.Call(fn, args...)
	return time.Since(start), m.Stats.Instrs, err
}

// CompileAt compiles src at a level with the level's default libc,
// returning the compile result (timed inside pipeline.Optimize).
func CompileAt(name, src string, level pipeline.Level) (*core.Compiled, error) {
	return core.CompileSource(name, src, level, core.DefaultLibc(level))
}

// CompileOpts are the pass-manager knobs the experiment drivers share:
// an explicit -passes pipeline and the compile-side worker count.
type CompileOpts struct {
	Pipeline *pipeline.PipelineSpec
	Jobs     int
}

// CompileAtOpts is CompileAt with pass-manager overrides.
func CompileAtOpts(name, src string, level pipeline.Level, co CompileOpts) (*core.Compiled, error) {
	cfg := pipeline.LevelConfig(level)
	cfg.Pipeline = co.Pipeline
	cfg.Jobs = co.Jobs
	return core.CompileWithConfig(name, src, cfg, core.DefaultLibc(level))
}

// CompileAtWithLibc pins the libc variant.
func CompileAtWithLibc(name, src string, level pipeline.Level, lk libc.Kind) (*core.Compiled, error) {
	return core.CompileSource(name, src, level, lk)
}

// fmtDur renders a duration in the paper's milliseconds-style.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// fmtCount renders large counts with thousands separators.
func fmtCount(n int64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}
