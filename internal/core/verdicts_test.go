package core_test

import (
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/verdicts"
)

func coreutilsGet(t *testing.T, name string) (coreutils.Program, bool) {
	t.Helper()
	p, ok := coreutils.Get(name)
	if !ok {
		t.Fatalf("corpus program %q missing", name)
	}
	return p, ok
}

// TestColdWarmEquivalence is the verdict store's correctness gate: the
// whole corpus at every level, verified cold into one shared store and
// then warm out of it. Every warm report must render byte-identically
// to its cold run, and the warm sweep must skip the overwhelming
// majority of per-function verifies (≥90% — cells that truncate at the
// instruction cap are not cacheable and count against the rate).
func TestColdWarmEquivalence(t *testing.T) {
	store, err := verdicts.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	verify := func(p string, level pipeline.Level) (string, int64) {
		prog, _ := coreutilsGet(t, p)
		c, err := core.CompileProgram(prog, level)
		if err != nil {
			t.Fatalf("%s at %s: %v", p, level, err)
		}
		vo := core.VerifyOptions{InputBytes: 2, Verdicts: store}
		vo.Engine.MaxInstrs = 2_000_000
		rep, err := c.Verify("umain", vo)
		if err != nil {
			t.Fatalf("%s at %s: verify: %v", p, level, err)
		}
		return verdicts.Render(rep), rep.Stats.SkippedFuncVerifies
	}

	var total, skipped int64
	for _, p := range corpus(t) {
		if p.Name == "cksum" {
			// cksum's CRC loop blows the instruction cap below -O3, so
			// it is uncacheable there and pays its ~30s exploration
			// twice per level; the overify-bench -verdicts sweep covers
			// it (and its honest hit to the skip rate) instead.
			continue
		}
		for _, level := range allLevels {
			cold, coldSkip := verify(p.Name, level)
			if coldSkip != 0 {
				t.Errorf("%s at %s: cold run hit the cache", p.Name, level)
			}
			warm, warmSkip := verify(p.Name, level)
			if warm != cold {
				t.Errorf("%s at %s: warm render differs\ncold: %swarm: %s", p.Name, level, cold, warm)
			}
			total++
			skipped += warmSkip
		}
	}
	if rate := float64(skipped) / float64(total); rate < 0.9 {
		t.Errorf("warm sweep skipped only %d of %d verifies (%.0f%%), want >= 90%%", skipped, total, 100*rate)
	}
}

// TestVerifyCacheCounters pins the hit-path bookkeeping: a warm Verify
// reports VerdictCacheHits and SkippedFuncVerifies so callers can tell
// a served verdict from a re-exploration.
func TestVerifyCacheCounters(t *testing.T) {
	store, err := verdicts.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := coreutilsGet(t, "basename")
	c, err := core.CompileProgram(prog, pipeline.OVerify)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.VerifyOptions{InputBytes: 2, Verdicts: store}
	cold, err := c.Verify("umain", opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.VerdictCacheHits != 0 || store.Stores() != 1 {
		t.Fatalf("cold run: hits=%d stores=%d", cold.Stats.VerdictCacheHits, store.Stores())
	}
	warm, err := c.Verify("umain", opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.VerdictCacheHits != 1 || warm.Stats.SkippedFuncVerifies != 1 {
		t.Errorf("warm run: hits=%d skipped=%d, want 1/1", warm.Stats.VerdictCacheHits, warm.Stats.SkippedFuncVerifies)
	}
	// A different verify configuration is a different content key.
	other := opts
	other.InputBytes = 3
	rep, err := c.Verify("umain", other)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.VerdictCacheHits != 0 {
		t.Error("changed InputBytes still hit the cache")
	}
}

// TestVerdictKeyPipelineStability is the fingerprint-stability claim:
// re-rendering the pipeline spec through ParsePipeline and recompiling
// must reproduce the exact content key (specs round-trip, and identical
// content hashes identically), while different levels never collide
// (the level is part of the pipeline description).
func TestVerdictKeyPipelineStability(t *testing.T) {
	prog, _ := coreutilsGet(t, "basename")
	opts := core.VerifyOptions{InputBytes: 2}
	seen := map[verdicts.Key]pipeline.Level{}
	for _, level := range allLevels {
		c, err := core.CompileProgram(prog, level)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		key, ok := c.VerdictKey("umain", opts)
		if !ok {
			t.Fatalf("%s: no verdict key for a canonical compile", level)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s share a content key", prev, level)
		}
		seen[key] = level

		cfg := pipeline.LevelConfig(level)
		if c.Result.Spec != "" { // -O0's canonical pipeline is empty
			spec, err := pipeline.ParsePipeline(c.Result.Spec)
			if err != nil {
				t.Fatalf("%s: rendered spec does not parse: %v", level, err)
			}
			cfg.Pipeline = &spec
		}
		rt, err := core.CompileWithConfig(prog.Name, prog.Src, cfg, core.DefaultLibc(level))
		if err != nil {
			t.Fatalf("%s: round-trip compile: %v", level, err)
		}
		rtKey, ok := rt.VerdictKey("umain", opts)
		if !ok {
			t.Fatalf("%s: no verdict key for round-trip compile", level)
		}
		if rtKey != key {
			t.Errorf("%s: pipeline round-trip moved the key: %s -> %s", level, key, rtKey)
		}
	}
}

// TestExplicitPassListDisablesCaching pins what a Compiled without a
// pipeline description gets: every compile here sets one (an explicit
// pipeline's rendered spec included), so an empty description comes
// only from a Compiled assembled by hand, and verdict caching is off
// for it rather than keyed ambiguously.
func TestExplicitPassListDisablesCaching(t *testing.T) {
	prog, _ := coreutilsGet(t, "basename")
	c, err := core.CompileProgram(prog, pipeline.O0)
	if err != nil {
		t.Fatal(err)
	}
	c.PipelineDesc = ""
	if _, ok := c.VerdictKey("umain", core.VerifyOptions{InputBytes: 2}); ok {
		t.Error("VerdictKey succeeded without a pipeline description")
	}
}
