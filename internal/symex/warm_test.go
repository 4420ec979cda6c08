package symex_test

import (
	"reflect"
	"testing"

	"overify/internal/frontend"
	"overify/internal/ir"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// runShared explores src over injected warm state (the daemon's warm
// path) and returns the report.
func runShared(t *testing.T, src, fn string, n int, w *symex.Warm) *symex.Report {
	t.Helper()
	mod, err := frontend.Lower("t", src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(pipeline.O0)); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	eng := symex.NewEngine(mod, symex.Options{Warm: w})
	buf := eng.SymbolicBuffer("input", n, true)
	rep, err := eng.Run(fn, []symex.SymVal{buf, eng.IntArg(ir.I32, uint64(n))}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rep
}

const warmSrc = `
int f(unsigned char *in, int n) {
	int i = 0;
	int acc = 0;
	while (in[i] != 0) {
		if (in[i] > 'a') { acc = acc + in[i]; }
		if (in[i] == 'q') { acc = acc / (in[i] - 'q'); }
		i = i + 1;
	}
	return acc;
}`

// TestSharedBuilderCacheWarmRun is the engine-level core of the daemon:
// two runs over the same content sharing one concurrent builder and one
// solver cache must produce identical reports, with the second run
// answering (almost) every query from warm state instead of searching.
func TestSharedBuilderCacheWarmRun(t *testing.T) {
	w := symex.NewWarm()

	cold := runShared(t, warmSrc, "f", 4, w)
	warm := runShared(t, warmSrc, "f", 4, w)

	if !reflect.DeepEqual(cold.Bugs, warm.Bugs) {
		t.Errorf("warm run changed the bug report:\ncold: %+v\nwarm: %+v", cold.Bugs, warm.Bugs)
	}
	if cold.Stats.Paths != warm.Stats.Paths || cold.Stats.Instrs != warm.Stats.Instrs {
		t.Errorf("warm run changed exploration: paths %d vs %d, instrs %d vs %d",
			cold.Stats.Paths, warm.Stats.Paths, cold.Stats.Instrs, warm.Stats.Instrs)
	}
	ws := warm.Stats.SolverStats
	if ws.Queries == 0 {
		t.Fatal("warm run issued no queries; test is vacuous")
	}
	warmHits := ws.CacheHits + ws.PartitionHits + ws.ModelReuseHits
	if ratio := float64(warmHits) / float64(ws.Queries); ratio < 0.9 {
		t.Errorf("warm run answered only %.0f%% of %d queries from warm state (cache %d, partition %d, model %d)",
			100*ratio, ws.Queries, ws.CacheHits, ws.PartitionHits, ws.ModelReuseHits)
	}
	// Sanity: the cold run really did populate the shared cache.
	if snap := w.Cache.Snapshot(); snap.Entries == 0 {
		t.Error("shared cache is empty after a cold run")
	}
}

// TestSharedBuilderDistinctPrograms: runs of different programs through
// one shared builder+cache must not contaminate each other — hash-
// consing keeps node ids canonical, so distinct constraints can never
// collide on a fingerprint built from them.
func TestSharedBuilderDistinctPrograms(t *testing.T) {
	w := symex.NewWarm()

	other := `
int g(unsigned char *in, int n) {
	if (in[0] == 'z') { return 10 / (in[1] - in[1]); }
	return 0;
}`
	baseline := runShared(t, warmSrc, "f", 4, symex.NewWarm())
	runShared(t, other, "g", 4, w) // warms the shared state with different content
	mixed := runShared(t, warmSrc, "f", 4, w)

	if !reflect.DeepEqual(baseline.Bugs, mixed.Bugs) {
		t.Errorf("shared state across programs changed the bug report:\nisolated: %+v\nshared: %+v",
			baseline.Bugs, mixed.Bugs)
	}
	if baseline.Stats.Paths != mixed.Stats.Paths {
		t.Errorf("paths: isolated %d, shared %d", baseline.Stats.Paths, mixed.Stats.Paths)
	}
}
