package pipeline_test

import (
	"fmt"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
)

// The pass manager's contract is that its analysis cache is
// invisible: the cached schedule must emit byte-identical IR and
// identical Stats to the fresh-analysis baseline at every level over
// the whole corpus. A pass whose Preserves claims an analysis it
// clobbers surfaces here as an IR or Stats drift (VerifyEachPass
// localizes the guilty pass).

// equivalenceModes are the schedules compared against the baseline
// (analysis caching off).
var equivalenceModes = []struct {
	name string
	cfg  func(*pipeline.Config)
}{
	{"cached", func(cfg *pipeline.Config) {}},
}

func equivalencePrograms(t *testing.T) []coreutils.Program {
	t.Helper()
	progs := coreutils.All()
	if testing.Short() {
		progs = nil
		for _, name := range []string{"echo", "cat", "wc", "tr", "grep-v", "rev", "uniq", "seq"} {
			p, ok := coreutils.Get(name)
			if !ok {
				t.Fatalf("no corpus program %q", name)
			}
			progs = append(progs, p)
		}
	}
	// The examples from this repo's own tests ride along: wc is the
	// paper's Listing 1 and exercises every structural pass.
	progs = append(progs, coreutils.Program{Name: "wc-listing1", Src: wcSrc})
	return progs
}

func compileMode(t *testing.T, p coreutils.Program, level pipeline.Level, tweak func(*pipeline.Config)) (string, *pipeline.Result) {
	t.Helper()
	cfg := pipeline.LevelConfig(level)
	cfg.VerifyEachPass = true
	tweak(&cfg)
	c, err := core.CompileWithConfig(p.Name, p.Src, cfg, core.DefaultLibc(level))
	if err != nil {
		t.Fatalf("%s at %s: %v", p.Name, level, err)
	}
	return c.Mod.String(), c.Result
}

var equivalenceLevels = []pipeline.Level{
	pipeline.O0, pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify,
}

// TestPipelineEquivalence: for every level and program, the cached
// schedule must match the fresh-analysis baseline exactly. Subtests are named <level>/<mode> so CI can matrix over
// -run 'TestPipelineEquivalence/<level>/<mode>'.
func TestPipelineEquivalence(t *testing.T) {
	progs := equivalencePrograms(t)
	for _, level := range equivalenceLevels {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			type baseline struct {
				ir  string
				res *pipeline.Result
			}
			bases := make(map[string]baseline, len(progs))
			for _, p := range progs {
				irText, res := compileMode(t, p, level, pipeline.FreshAnalyses)
				bases[p.Name] = baseline{ir: irText, res: res}
			}
			for _, mode := range equivalenceModes {
				mode := mode
				t.Run(mode.name, func(t *testing.T) {
					for _, p := range progs {
						irText, res := compileMode(t, p, level, mode.cfg)
						base := bases[p.Name]
						if irText != base.ir {
							t.Errorf("%s: %s IR differs from baseline (%d vs %d bytes)",
								p.Name, mode.name, len(irText), len(base.ir))
						}
						if res.Stats != base.res.Stats {
							t.Errorf("%s: %s stats differ:\n  got  %+v\n  want %+v",
								p.Name, mode.name, res.Stats, base.res.Stats)
						}
						if res.PassInvocations > base.res.PassInvocations {
							t.Errorf("%s: %s ran %d invocations, baseline only %d",
								p.Name, mode.name, res.PassInvocations, base.res.PassInvocations)
						}
					}
				})
			}
		})
	}
}

// TestWorklistRunsFewerInvocations is the acceptance criterion on the
// change-driven fixpoints: over the corpus at -OVERIFY, the worklist
// must report the function runs it skipped, and the analysis cache
// must actually hit.
func TestWorklistRunsFewerInvocations(t *testing.T) {
	progs := equivalencePrograms(t)
	var worklist, skipped int
	var hits int64
	for _, p := range progs {
		_, res := compileMode(t, p, pipeline.OVerify, func(cfg *pipeline.Config) {})
		worklist += res.PassInvocations
		skipped += res.SkippedFuncRuns
		hits += res.Analysis.DomHits + res.Analysis.LoopHits
	}
	t.Logf("-OVERIFY over %d programs: %d invocations, %d skipped, %d analysis-cache hits",
		len(progs), worklist, skipped, hits)
	if skipped == 0 {
		t.Error("worklist reported no skipped function runs")
	}
	if hits == 0 {
		t.Error("analysis cache never hit")
	}
}

// TestPassTimingsAccounted: every pass the -OVERIFY spec names appears
// in the per-pass breakdown exactly once, no other pass does, and the
// breakdown's totals reconcile with the Result's counters.
func TestPassTimingsAccounted(t *testing.T) {
	p, ok := coreutils.Get("wc")
	if !ok {
		t.Fatal("no wc program")
	}
	_, res := compileMode(t, p, pipeline.OVerify, func(cfg *pipeline.Config) {})
	if len(res.PassTimings) == 0 {
		t.Fatal("no per-pass timings reported")
	}
	sumInv, sumSkip := 0, 0
	seen := map[string]bool{}
	for _, pm := range res.PassTimings {
		if seen[pm.Name] {
			t.Errorf("pass %s reported twice", pm.Name)
		}
		seen[pm.Name] = true
		sumInv += pm.Invocations
		sumSkip += pm.Skipped
	}
	if sumInv != res.PassInvocations {
		t.Errorf("per-pass invocations sum to %d, Result says %d", sumInv, res.PassInvocations)
	}
	if sumSkip != res.SkippedFuncRuns {
		t.Errorf("per-pass skips sum to %d, Result says %d", sumSkip, res.SkippedFuncRuns)
	}
	named := map[string]bool{}
	for _, st := range pipeline.Passes(pipeline.LevelConfig(pipeline.OVerify)).Stages {
		if st.Pass != "" {
			named[st.Pass] = true
		}
		for _, name := range st.Fixpoint {
			named[name] = true
		}
	}
	for name := range named {
		if !seen[name] {
			t.Errorf("pass %s missing from timings (have %v)", name, fmt.Sprint(res.PassTimings))
		}
	}
	for name := range seen {
		if !named[name] {
			t.Errorf("pass %s timed but not in the -OVERIFY spec", name)
		}
	}
}
