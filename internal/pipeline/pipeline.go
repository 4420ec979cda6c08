// Package pipeline assembles the optimization passes into the build
// configurations the paper compares: -O0, -O1, -O2, -O3 (CPU-oriented
// cost models) and -OVERIFY / -OSYMBEX (verification-oriented). The
// pass *set* barely differs between -O3 and -OVERIFY — what changes is
// the cost model, which is the paper's point: "it adjusts cost values
// and parameters ... to optimize compilation for fast verification, not
// fast execution" (§3).
package pipeline

import (
	"fmt"
	"time"

	"overify/internal/ir"
	"overify/internal/passes"
)

// Level is an optimization level switch.
type Level int

// The build configurations of the paper's tables.
const (
	O0 Level = iota
	O1
	O2
	O3
	OVerify // the paper's -OVERIFY / -OSYMBEX prototype
)

var levelNames = [...]string{"-O0", "-O1", "-O2", "-O3", "-OVERIFY"}

// String returns the flag spelling, e.g. "-O3".
func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("-O(%d)", int(l))
}

// ParseLevel converts a flag spelling ("O0", "-O3", "-Overify",
// "-OSYMBEX") to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "O0", "-O0", "o0":
		return O0, nil
	case "O1", "-O1", "o1":
		return O1, nil
	case "O2", "-O2", "o2":
		return O2, nil
	case "O3", "-O3", "o3":
		return O3, nil
	case "OVERIFY", "-OVERIFY", "Overify", "-Overify", "overify",
		"OSYMBEX", "-OSYMBEX", "Osymbex", "-Osymbex", "osymbex":
		return OVerify, nil
	}
	return O0, fmt.Errorf("pipeline: unknown optimization level %q", s)
}

// CPUCost is the cost model a CPU-oriented -O2/-O3 build uses: branches
// are cheap (~1 cycle when predicted), so speculation is only worth a
// couple of instructions; inlining and unrolling are bounded to protect
// the instruction cache.
func CPUCost() passes.CostModel {
	return passes.CostModel{
		BranchCost:        1,
		SpeculationBudget: 2,
		InlineThreshold:   40,
		InlineGrowthCap:   800,
		InlineRounds:      4,
		UnrollMaxTrip:     8,
		UnrollGrowthCap:   256,
		UnswitchMaxSize:   64,
		UnswitchMaxClones: 2,
	}
}

// VerifyCost is the -OVERIFY cost model: a conditional branch can double
// a symbolic executor's path count, so its effective cost is enormous;
// code size barely matters because the verifier pays per *executed path
// instruction*, not per cached code byte.
func VerifyCost() passes.CostModel {
	return passes.CostModel{
		BranchCost:        1000,
		SpeculationBudget: 400,
		InlineThreshold:   4000,
		InlineGrowthCap:   60000,
		InlineRounds:      12,
		UnrollMaxTrip:     64,
		UnrollGrowthCap:   20000,
		UnswitchMaxSize:   1200,
		UnswitchMaxClones: 24,
	}
}

// Config selects the passes and parameters for one compilation.
type Config struct {
	Level Level
	Cost  passes.CostModel

	// Slice enables verification-aware program slicing: after the
	// level's regular stages (and after checks are inserted, so the
	// check set is visible in the IR), the slice/loopsummary passes
	// delete everything the kept checks cannot observe. Off by default
	// at every level — slicing changes the program, so it must be an
	// explicit opt-in that flows into the pipeline description (and
	// hence the verdict key).
	Slice bool

	// SliceChecks restricts the slice to one check subset (the
	// per-property verify mode); the zero value keeps all checks.
	SliceChecks ir.CheckSet

	// SliceEntry names the function whose call closure the slicer
	// preserves; "" defaults to umain.
	SliceEntry string

	// VerifyEachPass re-runs the IR verifier after every stage; used in
	// tests to localize pass bugs.
	VerifyEachPass bool

	// Pipeline overrides the level's canonical pass sequence (the
	// -passes= flag parses into this). nil uses Passes(cfg).
	Pipeline *PipelineSpec

	// freshAnalyses turns the per-function Dom/Loops cache off, so
	// every pass recomputes them. Only tests set it (FreshAnalyses in
	// export_test.go): it is the baseline the cached schedule must
	// match, which catches a pass whose Preserves is wrong.
	freshAnalyses bool
}

// LevelConfig returns the canonical configuration for a level.
func LevelConfig(level Level) Config {
	cfg := Config{Level: level}
	switch level {
	case O0, O1, O2, O3:
		cfg.Cost = CPUCost()
	case OVerify:
		cfg.Cost = VerifyCost()
	}
	return cfg
}

// Passes returns the pass pipeline for the configuration as data: the
// same spec the -passes= flag parses, prints and Build()s. The paper's
// point survives the representation change — every level is the same
// stage structure with different cost constants — and becomes visible:
// the -O3 and -OVERIFY specs differ only in fixpoint composition.
func Passes(cfg Config) PipelineSpec {
	cleanup := []Stage{
		{Pass: "simplify"}, {Pass: "cse"}, {Pass: "simplifycfg"}, {Pass: "dce"},
	}
	var spec PipelineSpec
	add := func(sts ...Stage) { spec.Stages = append(spec.Stages, sts...) }

	switch cfg.Level {
	case O0:
		// Nothing: the clang-style -O0 lowering is the program.
	case O1:
		add(Stage{Pass: "mem2reg"})
		add(cleanup...)
	case O2:
		add(Stage{Pass: "mem2reg"})
		add(cleanup...)
		add(Stage{Pass: "inline"}, Stage{Pass: "mem2reg"})
		add(cleanup...)
		add(Stage{Pass: "jumpthread"}, Stage{Pass: "licm"})
		add(cleanup...)
	case O3:
		add(Stage{Pass: "mem2reg"})
		add(cleanup...)
		add(Stage{Pass: "inline"}, Stage{Pass: "mem2reg"})
		add(cleanup...)
		// CPU-oriented loop work: unswitch (bounded), unroll (bounded),
		// and if-convert only tiny diamonds (SpeculationBudget ~2).
		add(Stage{MaxRounds: 6, Fixpoint: []string{
			"jumpthread", "licm", "unswitch", "unroll", "ifconvert",
			"simplify", "cse", "simplifycfg", "dce",
		}})
	case OVerify:
		add(Stage{Pass: "mem2reg"})
		add(cleanup...)
		// Aggressive inlining first: function specialization exposes the
		// constants and loads that the later passes need (§4).
		add(Stage{Pass: "inline"}, Stage{Pass: "mem2reg"})
		add(cleanup...)
		// Branch removal before loop restructuring: a branch folded into
		// a select (Listing 2) costs the verifier nothing per iteration,
		// whereas unswitching doubles the loop. Iterate to fixpoint —
		// each cleanup (load-CSE in particular) exposes new convertible
		// diamonds.
		add(Stage{MaxRounds: 12, Fixpoint: []string{
			"jumpthread", "licm", "ifconvert",
			"simplify", "cse", "simplifycfg", "dce",
		}})
		// Loop restructuring with verification-oriented budgets; unswitch
		// handles only the branches if-conversion could not remove
		// (side-effecting arms).
		add(Stage{MaxRounds: 8, Fixpoint: []string{
			"unroll", "licm", "unswitch", "ifconvert", "jumpthread",
			"simplify", "cse", "simplifycfg", "dce",
		}})
		// Runtime checks (§3 "Runtime checks") and value-range metadata
		// for the verifier (§3 "Program annotations").
		add(Stage{Pass: "checks"}, Stage{Pass: "annotate"})
	}
	// The -OVERIFY slicing stage placement: slice after every
	// level-specific stage (checks included, so OpCheck roots exist in
	// the IR), clean up the cut edges, then summarize loops the slice
	// left bodiless and clean up again. The same stages apply at every
	// level — at -O0..-O3 the roots are the natively trapping
	// instructions alone. The cleanup deliberately omits dce: a
	// trapping instruction whose only consumers were sliced away is
	// dead by dce's reckoning but is exactly the root the slice
	// promised to keep.
	if cfg.Slice {
		sliceCleanup := []Stage{
			{Pass: "simplify"}, {Pass: "cse"}, {Pass: "simplifycfg"},
		}
		add(Stage{Pass: "slice", Checks: cfg.SliceChecks})
		add(sliceCleanup...)
		add(Stage{Pass: "loopsummary", Checks: cfg.SliceChecks})
		add(sliceCleanup...)
	}
	return spec
}

// Result reports what one pipeline run did.
type Result struct {
	Level Level
	// Spec is the rendered pass pipeline that actually ran (the level's
	// canonical spec, or the -passes override). It round-trips through
	// ParsePipeline, and is part of the verdict store's content key: a
	// different pipeline can produce different IR and different checks,
	// so it must produce a different key.
	Spec        string
	Stats       passes.Stats
	CompileTime time.Duration
	InstrsIn    int // static instruction count before
	InstrsOut   int // static instruction count after
	PassesRun   int // top-level stages run

	// PassInvocations counts function-level pass executions (module
	// passes count one per run); SkippedFuncRuns counts executions the
	// change-driven fixpoints avoided relative to the global-round
	// schedule.
	PassInvocations int
	SkippedFuncRuns int
	// PassTimings breaks invocations, changes, skips and wall time down
	// per pass name.
	PassTimings []passes.PassMetric
	// Analysis reports the Dom/Loops cache counters.
	Analysis passes.AnalysisStats
}

// Optimize runs the configured pipeline over the module in place,
// through the pass manager: analyses cached per function, fixpoints
// change-driven per function.
func Optimize(m *ir.Module, cfg Config) (*Result, error) {
	spec := Passes(cfg)
	if cfg.Pipeline != nil {
		spec = *cfg.Pipeline
	}
	// Canonicalize the slice configuration into the spec itself: the
	// rendered Result.Spec (and hence the verdict-store key) must
	// capture the kept-check subset, whether it arrived annotated on
	// the stages (-passes=...,slice:bounds,...) or on the legacy
	// Config.SliceChecks field.
	spec, sliceChecks, err := spec.withSliceChecks(cfg.SliceChecks)
	if err != nil {
		return nil, err
	}
	stages, err := spec.Build()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cx := &passes.Context{
		Cost:        cfg.Cost,
		SliceChecks: sliceChecks,
		SliceEntry:  cfg.SliceEntry,
	}
	defer cx.Release()
	if !cfg.freshAnalyses {
		cx.EnableAnalysisCache()
	}
	mgr := &passes.Manager{}
	if cfg.VerifyEachPass {
		mgr.AfterStage = func(i int) error {
			if err := ir.VerifyModule(m); err != nil {
				return fmt.Errorf("after stage %s: %w", PipelineSpec{Stages: spec.Stages[i : i+1]}, err)
			}
			return nil
		}
	}
	res := &Result{Level: cfg.Level, Spec: spec.String(), InstrsIn: m.NumInstrs()}
	metrics, err := mgr.Run(m, stages, cx)
	if err != nil {
		return nil, err
	}
	if err := ir.VerifyModule(m); err != nil {
		return nil, fmt.Errorf("after %s pipeline: %w", cfg.Level, err)
	}
	res.Stats = cx.Stats
	res.CompileTime = time.Since(start)
	res.InstrsOut = m.NumInstrs()
	res.PassesRun = metrics.StagesRun
	res.PassInvocations = metrics.Invocations
	res.SkippedFuncRuns = metrics.Skipped
	res.PassTimings = metrics.Passes
	res.Analysis = cx.AnalysisStats()
	return res, nil
}
