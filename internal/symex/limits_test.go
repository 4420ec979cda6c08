package symex_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/lru"
	"overify/internal/pipeline"
	"overify/internal/solver"
	"overify/internal/symex"
)

// verifyProg compiles a corpus program at the level and explores it.
func verifyProg(t *testing.T, p coreutils.Program, level pipeline.Level, n int, eo symex.Options) *symex.Report {
	t.Helper()
	c, err := core.CompileProgram(p, level)
	if err != nil {
		t.Fatalf("%s at %s: %v", p.Name, level, err)
	}
	opts := core.VerifyOptions{InputBytes: n, Engine: eo}
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

// TestOneLookupPerGroup: a group's verdict is looked up in one place.
// On a cold run every group a query decides costs exactly one
// shared-cache lookup, every hit there is a CacheHit, and every miss
// exactly one search — no second map in front of the cache answers (or
// hides) anything.
func TestOneLookupPerGroup(t *testing.T) {
	for _, tc := range []struct {
		prog string
		n    int
	}{{"wc", 6}, {"tail", 3}} {
		p, ok := coreutils.Get(tc.prog)
		if !ok {
			t.Fatalf("no %s program", tc.prog)
		}
		st := verifyProg(t, p, pipeline.O0, tc.n, symex.Options{}).Stats
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

// TestTimeoutStopsRun: the deadline stops the run promptly and sets
// TimedOut.
func TestTimeoutStopsRun(t *testing.T) {
	p, ok := coreutils.Get("checksum64")
	if !ok {
		t.Fatal("no checksum64 program")
	}
	start := time.Now()
	rep := verifyProg(t, p, pipeline.O0, 8, symex.Options{Timeout: 50 * time.Millisecond})
	if !rep.Stats.TimedOut && rep.Stats.TotalPaths() == 0 {
		t.Error("neither finished nor timed out")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("the run took %v to honor a 50ms deadline", elapsed)
	}
}

// TestStatsPinnedAtLimits pins every counter of two wc -O0 runs that a
// limit cuts short: an instruction budget that stops exploration
// midway, and a state cap that evicts queued states. The figures were
// taken from the engine before it became single-threaded, so where the
// limits are checked, what they count as truncated and the live-states
// high-water mark cannot drift unseen.
func TestStatsPinnedAtLimits(t *testing.T) {
	p, ok := coreutils.Get("wc")
	if !ok {
		t.Fatal("no wc program")
	}
	c, err := core.CompileProgram(p, pipeline.O0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		n         int
		opts      symex.Options
		maxStates int
		want      symex.Stats
	}{
		{"instrs", 8, symex.Options{MaxInstrs: 5000}, 0, symex.Stats{
			Paths: 165, TruncatedPaths: 10, Forks: 174, Instrs: 5120, StatesExplored: 340, CoveredBlocks: 10, MaxLiveStates: 17,
			SolverStats: solver.Stats{Queries: 522, CacheHits: 1887, ModelReuseHits: 240, Sat: 435, Unsat: 87, Nodes: 56,
				Assignments: 11254, TapeCompiles: 36, TapeSlots: 326, MaxGroupVars: 1},
			SharedCache: lru.Stats{Hits: 1887, Misses: 36, Entries: 36, Bytes: 6210},
			TimedOut:    true,
		}},
		{"states", 6, symex.Options{}, 3, symex.Stats{
			Paths: 6, TruncatedPaths: 9, Forks: 14, Instrs: 342, StatesExplored: 20, CoveredBlocks: 10, MaxLiveStates: 5,
			SolverStats: solver.Stats{Queries: 42, CacheHits: 62, ModelReuseHits: 20, Sat: 35, Unsat: 7, Nodes: 28,
				Assignments: 6645, TapeCompiles: 20, TapeSlots: 171, MaxGroupVars: 1},
			SharedCache: lru.Stats{Hits: 62, Misses: 20, Entries: 20, Bytes: 3359},
		}},
	} {
		eng := symex.NewEngine(c.Mod, tc.opts)
		if tc.maxStates > 0 {
			symex.SetMaxStates(eng, tc.maxStates)
		}
		rep, err := eng.Run("umain", eng.InputArgs(tc.n), nil)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Stats
		got.Elapsed = 0
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
