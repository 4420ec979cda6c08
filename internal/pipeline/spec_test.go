package pipeline_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"overify/internal/frontend"
	"overify/internal/ir"
	"overify/internal/passes"
	"overify/internal/pipeline"
)

func lowerWc(t *testing.T) *ir.Module {
	t.Helper()
	mod, err := frontend.Lower("wc", wcSrc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return mod
}

// TestSpecStringRoundTrip: every level's canonical spec must survive
// spec -> text -> ParsePipeline -> spec unchanged, so -passes= can
// express exactly what the levels run.
func TestSpecStringRoundTrip(t *testing.T) {
	for _, level := range []pipeline.Level{
		pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify,
	} {
		spec := pipeline.Passes(pipeline.LevelConfig(level))
		text := spec.String()
		back, err := pipeline.ParsePipeline(text)
		if err != nil {
			t.Fatalf("%s: ParsePipeline(%q): %v", level, text, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("%s: round trip drifted:\n  spec %+v\n  text %q\n  back %+v", level, spec, text, back)
		}
		if _, err := back.Build(); err != nil {
			t.Errorf("%s: Build after round trip: %v", level, err)
		}
	}
}

// TestOVerifySpec pins -OVERIFY's pipeline: inlining, one
// branch-removal fixpoint, runtime checks. Every CostModel field must
// tell the two cost models apart; a budget both levels share is a
// constant of its pass, not a field.
func TestOVerifySpec(t *testing.T) {
	const want = "mem2reg,simplify,cse,simplifycfg,dce,inline,mem2reg,simplify,cse,simplifycfg,dce," +
		"fixpoint:12(ifconvert,simplify,cse,simplifycfg,dce),checks"
	if got := pipeline.Passes(pipeline.LevelConfig(pipeline.OVerify)).String(); got != want {
		t.Errorf("-OVERIFY spec\n  got  %s\n  want %s", got, want)
	}
	cpu, ver := reflect.ValueOf(pipeline.CPUCost()), reflect.ValueOf(pipeline.VerifyCost())
	for i := 0; i < cpu.NumField(); i++ {
		if cpu.Field(i).Interface() == ver.Field(i).Interface() {
			t.Errorf("CostModel.%s is %v in both cost models", cpu.Type().Field(i).Name, cpu.Field(i))
		}
	}
}

// TestParsePipelineForms covers the grammar corners.
func TestParsePipelineForms(t *testing.T) {
	good := []string{
		"mem2reg",
		"mem2reg,simplify,dce",
		"fixpoint(ifconvert,simplify)",
		"fixpoint:3(jumpthread,cse),annotate",
		"mem2reg, fixpoint:12(ifconvert, simplify, cse, simplifycfg, dce), checks",
		"fixpoint(dce) , mem2reg",
	}
	for _, text := range good {
		spec, err := pipeline.ParsePipeline(text)
		if err != nil {
			t.Errorf("ParsePipeline(%q): %v", text, err)
			continue
		}
		if _, err := spec.Build(); err != nil {
			t.Errorf("Build(%q): %v", text, err)
		}
	}
	bad := map[string]string{
		"":                        "empty",
		"mem2reg,,dce":            "double comma",
		"bogus":                   "unknown pass",
		"fixpoint(mem2reg":        "unclosed",
		"fixpoint()":              "empty body",
		"fixpoint:0(dce)":         "zero rounds",
		"fixpoint:x(dce)":         "bad rounds",
		"fixpoint(fixpoint(dce))": "nested fixpoint",
		"fixpoint(dce)mem2reg":    "missing comma after fixpoint",
	}
	for text, why := range bad {
		if _, err := pipeline.ParsePipeline(text); err == nil {
			t.Errorf("ParsePipeline(%q) accepted (%s)", text, why)
		}
	}
}

// TestParsedPipelineCompiles: a hand-written -passes= pipeline drives a
// real compile through Config.Pipeline, and prints the IR that running
// its passes over the whole module in global rounds prints. The last
// two specs' fixpoints hold a module pass (inline), so the manager runs
// them in module rounds rather than per function; the third needs a
// second round, since the cleanup runs before the inlining it would
// tidy. Either way every body pass is timed under its own name.
func TestParsedPipelineCompiles(t *testing.T) {
	for _, text := range []string{
		"mem2reg,fixpoint:6(ifconvert,simplify,cse,simplifycfg,dce)",
		"mem2reg,fixpoint:3(inline,mem2reg,simplify,cse)",
		"mem2reg,fixpoint:3(simplify,cse,inline,mem2reg)",
	} {
		spec, err := pipeline.ParsePipeline(text)
		if err != nil {
			t.Fatal(err)
		}
		mod := lowerWc(t)
		cfg := pipeline.LevelConfig(pipeline.OVerify)
		cfg.Pipeline = &spec
		cfg.VerifyEachPass = true
		res, err := pipeline.Optimize(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PassesRun != len(spec.Stages) {
			t.Errorf("%s: ran %d stages, spec has %d", text, res.PassesRun, len(spec.Stages))
		}
		if got, want := mod.String(), moduleRounds(t, spec, cfg.Cost); got != want {
			t.Errorf("%s: IR differs from module rounds:\n%s\nwant:\n%s", text, got, want)
		}
		timed := map[string]bool{}
		for _, pm := range res.PassTimings {
			timed[pm.Name] = true
		}
		if timed["fixpoint"] {
			t.Errorf("%s: a fixpoint is timed as a pass: %v", text, res.PassTimings)
		}
		for _, st := range spec.Stages {
			for _, name := range append([]string{st.Pass}, st.Fixpoint...) {
				if name != "" && !timed[name] {
					t.Errorf("%s: pass %s missing from timings %v", text, name, res.PassTimings)
				}
			}
		}
	}
}

// moduleRounds is the reference schedule: wc lowered afresh, each
// stage's passes run over the whole module through Pass.Run with no
// analysis cache — a single pass once, a fixpoint's body round after
// round until a round changes nothing or its cap is reached.
func moduleRounds(t *testing.T, spec pipeline.PipelineSpec, cost passes.CostModel) string {
	t.Helper()
	mod := lowerWc(t)
	cx := &passes.Context{Cost: cost}
	for _, st := range spec.Stages {
		names, rounds := st.Fixpoint, st.MaxRounds
		if st.Pass != "" {
			names, rounds = []string{st.Pass}, 1
		}
		for range rounds {
			changed := false
			for _, name := range names {
				p, err := passes.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				if p.Run(mod, cx) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return mod.String()
}

// TestLoadSpecArg: a -passes argument is the spec itself unless it is
// spelled @FILE, and a file that holds no spec is an error — "" is what
// every caller reads as "no -passes given", so a truncated file would
// otherwise verify the stock level under the user's schedule's name.
func TestLoadSpecArg(t *testing.T) {
	// Stock -OVERIFY's straight-line prefix with the slicer placed
	// after instrumentation: the schedule PR 9's search kept finding.
	const sliced = "mem2reg,simplify,cse,simplifycfg,dce,checks,annotate,slice,simplify,simplifycfg"
	if got, err := pipeline.LoadSpecArg(sliced); err != nil || got != sliced {
		t.Errorf("plain spec: got %q, %v", got, err)
	}
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return "@" + path
	}
	text, err := pipeline.LoadSpecArg(write("ok.spec", sliced+"\n"))
	if err != nil || text != sliced {
		t.Fatalf("@file: got %q, %v", text, err)
	}
	spec, err := pipeline.ParsePipeline(text)
	if err != nil {
		t.Fatal(err)
	}
	if spec.String() != sliced {
		t.Errorf("loaded spec renders as %q", spec.String())
	}
	if _, err := spec.Build(); err != nil {
		t.Errorf("loaded spec does not build: %v", err)
	}
	if _, err := pipeline.LoadSpecArg("@" + filepath.Join(dir, "missing.spec")); err == nil {
		t.Error("missing file accepted")
	}
	for _, body := range []string{"", " \n\t\n"} {
		arg := write("empty.spec", body)
		if got, err := pipeline.LoadSpecArg(arg); err == nil || !strings.Contains(err.Error(), "empty.spec") {
			t.Errorf("empty file %q: got %q, %v — want an error naming the file", body, got, err)
		}
	}
}
