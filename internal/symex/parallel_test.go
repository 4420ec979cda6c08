package symex_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// verifyProg compiles a corpus program at the level and explores it
// with the given worker count.
func verifyProg(t *testing.T, p coreutils.Program, level pipeline.Level, n, workers int) *symex.Report {
	t.Helper()
	c, err := core.CompileProgram(p, level)
	if err != nil {
		t.Fatalf("%s at %s: %v", p.Name, level, err)
	}
	opts := core.VerifyOptions{InputBytes: n}
	opts.Engine.Workers = workers
	rep, err := c.Verify("umain", opts)
	if err != nil {
		t.Fatalf("%s at %s: verify: %v", p.Name, level, err)
	}
	return rep
}

// bugKey is the deterministic identity of a bug report (the concrete
// Input may legitimately differ between runs: any model reproduces).
func bugKey(b symex.Bug) string { return fmt.Sprintf("%s|%s|%s", b.Kind, b.Msg, b.Where) }

func bugKeys(rep *symex.Report) []string {
	keys := make([]string, 0, len(rep.Bugs))
	for _, b := range rep.Bugs {
		keys = append(keys, bugKey(b))
	}
	sort.Strings(keys)
	return keys
}

// TestParallelDeterminism is the acceptance criterion of the parallel
// engine: workers=4 must report the identical bug set, completed-path
// count, error-path count and instruction count as workers=1 across the
// coreutils suite — the interleaving may change, the verdicts may not.
func TestParallelDeterminism(t *testing.T) {
	programs := coreutils.All()
	if testing.Short() {
		// A cheap but structurally diverse subset (loops, flags, two
		// buffers, symbolic indexing) for the quick gate.
		programs = programs[:0]
		for _, name := range []string{"echo", "cat", "wc", "tr", "grep-v", "rev", "uniq", "seq"} {
			p, ok := coreutils.Get(name)
			if !ok {
				t.Fatalf("no corpus program %q", name)
			}
			programs = append(programs, p)
		}
	}
	for _, p := range programs {
		serial := verifyProg(t, p, pipeline.OVerify, 3, 1)
		parallel := verifyProg(t, p, pipeline.OVerify, 3, 4)
		if serial.Stats.Paths != parallel.Stats.Paths {
			t.Errorf("%s: paths %d (1 worker) != %d (4 workers)",
				p.Name, serial.Stats.Paths, parallel.Stats.Paths)
		}
		if serial.Stats.ErrorPaths != parallel.Stats.ErrorPaths {
			t.Errorf("%s: error paths %d (1 worker) != %d (4 workers)",
				p.Name, serial.Stats.ErrorPaths, parallel.Stats.ErrorPaths)
		}
		if serial.Stats.Instrs != parallel.Stats.Instrs {
			t.Errorf("%s: instrs %d (1 worker) != %d (4 workers)",
				p.Name, serial.Stats.Instrs, parallel.Stats.Instrs)
		}
		sk, pk := bugKeys(serial), bugKeys(parallel)
		if fmt.Sprint(sk) != fmt.Sprint(pk) {
			t.Errorf("%s: bug sets differ: 1 worker %v vs 4 workers %v", p.Name, sk, pk)
		}
	}
}

// TestParallelBuggyPrograms re-runs the seeded-defect corpus with a
// worker pool: every bug found serially must be found in parallel, with
// a reproducing input attached.
func TestParallelBuggyPrograms(t *testing.T) {
	for _, bp := range buggyPrograms {
		n := bp.n
		if n == 0 {
			n = 3
		}
		c, err := core.CompileSource(bp.name, bp.src, pipeline.OVerify, core.DefaultLibc(pipeline.OVerify))
		if err != nil {
			t.Fatal(err)
		}
		opts := core.VerifyOptions{InputBytes: n}
		opts.Engine.Workers = 4
		rep, err := c.Verify("umain", opts)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, b := range rep.Bugs {
			if containsSub(b.Kind.String(), bp.kind) || containsSub(b.Msg, bp.kind) {
				found = true
				if b.Input == nil {
					t.Errorf("%s: bug %q has no reproducing input", bp.name, b.Msg)
				}
			}
		}
		if !found {
			t.Errorf("%s: seeded %q bug not found with 4 workers (bugs: %v)",
				bp.name, bp.kind, rep.Bugs)
		}
	}
}

// TestParallelSharedSolverCache: every worker's solver publishes its
// decided groups into the cross-worker cache (whether another worker
// then *hits* them depends on scheduling — the deterministic
// cross-solver hit is asserted in the solver package's cache tests).
func TestParallelSharedSolverCache(t *testing.T) {
	p, ok := coreutils.Get("wc")
	if !ok {
		t.Fatal("no wc program")
	}
	rep := verifyProg(t, p, pipeline.O0, 4, 4)
	if rep.Stats.SharedCache.Entries == 0 {
		t.Errorf("no groups published to the shared solver cache: %+v", rep.Stats.SharedCache)
	}
	if rep.Stats.Workers != 4 {
		t.Errorf("stats report %d workers, want 4", rep.Stats.Workers)
	}
	if rep.Stats.SolverStats.Queries == 0 {
		t.Error("per-worker solver stats were not aggregated")
	}
}

// TestOneLookupPerGroup: a group's verdict is looked up in one place.
// On a serial cold run every group without a carried verdict costs
// exactly one shared-cache lookup, every hit there is a CacheHit, and
// every miss exactly one search — no second map in front of the cache
// answers (or hides) anything.
func TestOneLookupPerGroup(t *testing.T) {
	for _, tc := range []struct {
		prog string
		n    int
	}{{"wc", 6}, {"tail", 3}} {
		p, ok := coreutils.Get(tc.prog)
		if !ok {
			t.Fatalf("no %s program", tc.prog)
		}
		st := verifyProg(t, p, pipeline.O0, tc.n, 1).Stats
		if st.SolverStats.CacheHits == 0 || st.SolverStats.TapeCompiles == 0 {
			t.Fatalf("%s: vacuous run: %+v", tc.prog, st.SolverStats)
		}
		if st.SharedCache.Hits != st.SolverStats.CacheHits {
			t.Errorf("%s: shared cache counted %d hits, the solver %d cache hits", tc.prog, st.SharedCache.Hits, st.SolverStats.CacheHits)
		}
		if st.SharedCache.Misses != st.SolverStats.TapeCompiles {
			t.Errorf("%s: shared cache counted %d misses, the solver ran %d searches", tc.prog, st.SharedCache.Misses, st.SolverStats.TapeCompiles)
		}
	}
}

// TestParallelMaxInstrsTruncation: global limits must stop a worker
// pool and report the truncation, same contract as the serial engine.
func TestParallelMaxInstrsTruncation(t *testing.T) {
	p, ok := coreutils.Get("wc")
	if !ok {
		t.Fatal("no wc program")
	}
	c, err := core.CompileProgram(p, pipeline.O0)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.VerifyOptions{InputBytes: 10}
	opts.Engine.Workers = 4
	opts.Engine.MaxInstrs = 5000
	rep, err := c.Verify("umain", opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.TotalPaths() == 0 {
		t.Error("the pool stopped before exploring any path")
	}
	if rep.Stats.TruncatedPaths == 0 || !rep.Stats.TimedOut {
		t.Errorf("expected truncated paths and a timed-out run to be reported: %+v", rep.Stats)
	}
}

// TestParallelTimeout: the deadline must stop all workers promptly and
// set TimedOut.
func TestParallelTimeout(t *testing.T) {
	p, ok := coreutils.Get("checksum64")
	if !ok {
		t.Fatal("no checksum64 program")
	}
	c, err := core.CompileProgram(p, pipeline.O0)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.VerifyOptions{InputBytes: 8}
	opts.Engine.Workers = 4
	opts.Engine.Timeout = 50 * time.Millisecond
	start := time.Now()
	rep, err := c.Verify("umain", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stats.TimedOut && rep.Stats.TotalPaths() == 0 {
		t.Error("neither finished nor timed out")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("workers took %v to honor a 50ms deadline", elapsed)
	}
}

// TestWorkerAutoCount: Workers=-1 resolves to NumCPU and still explores
// everything.
func TestWorkerAutoCount(t *testing.T) {
	p, ok := coreutils.Get("cat")
	if !ok {
		t.Fatal("no cat program")
	}
	rep := verifyProg(t, p, pipeline.OVerify, 3, -1)
	if rep.Stats.Workers < 1 {
		t.Errorf("auto worker count resolved to %d", rep.Stats.Workers)
	}
	if rep.Stats.Paths == 0 {
		t.Error("no paths explored")
	}
}
