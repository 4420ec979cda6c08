// Package passes implements the optimization passes the pipelines
// compose (paper §3): SSA construction (mem2reg), instruction
// simplification, CSE, dead-code elimination, CFG simplification, jump
// threading, function inlining, loop-invariant code motion, loop
// unswitching, loop unrolling, if-conversion (branch → select) and
// runtime check insertion. The value-range annotations of §3 ("Program
// annotations") are not kept: no verifier here read them, and they
// decided none of the corpus's comparisons.
//
// The passes -OVERIFY runs are tuned by a CostModel. The paper's
// central claim is that verification wants different cost constants
// than a CPU: a conditional branch that costs ~1 cycle on hardware
// multiplies path counts in a symbolic executor. Pipelines in
// internal/pipeline instantiate the same passes with CPU-oriented
// (-O2/-O3) or verifier-oriented (-OVERIFY) models.
package passes

import (
	"fmt"

	"overify/internal/ir"
)

// CostModel parameterizes pass aggressiveness. The zero value is useless;
// use one of the pipeline presets.
type CostModel struct {
	// SpeculationBudget is what prices a conditional branch: the most
	// instructions if-conversion speculates per converted branch side.
	// A CPU's branch costs ~1 cycle, so it is worth a couple of
	// instructions; in symbolic execution each branch may double the
	// path count, so -OVERIFY speculates hundreds.
	SpeculationBudget int

	// KeepDeferredForks prices each if-conversion site: a branch stays
	// when a select it would become only moves its fork to a later
	// branch that stays (see defersFork). On a CPU a select is cheap
	// wherever its value goes, so only the -OVERIFY model sets it.
	KeepDeferredForks bool

	// InlineThreshold is the maximum callee size (in IR instructions)
	// considered for inlining.
	InlineThreshold int

	// InlineGrowthCap bounds the size a caller may reach through
	// inlining, in instructions.
	InlineGrowthCap int

	// InlineRounds bounds repeated inlining sweeps (handles call chains).
	InlineRounds int
}

// Stats aggregates pass counters across a pipeline run. The Table 3
// columns of the paper come directly from here.
type Stats struct {
	FunctionsInlined  int // call sites inlined ("# functions inlined")
	LoopsUnswitched   int // "# loops unswitched"
	LoopsUnrolled     int // loops fully unrolled away
	LoopsPeeled       int // individual iterations peeled
	BranchesConverted int // "# branches converted" by if-conversion

	AllocasPromoted int
	InstrsFolded    int
	InstrsCSEd      int
	InstrsHoisted   int
	JumpsThreaded   int
	BlocksMerged    int
	DeadInstrs      int
	DeadBlocks      int
	ChecksInserted  int

	InstrsSliced    int // instructions deleted by the slice pass
	BranchesSliced  int // conditional branches flattened by the slice pass
	FuncsSliced     int // whole functions deleted by the slice pass
	LoopsSummarized int // check-irrelevant loops replaced by summaries
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.FunctionsInlined += other.FunctionsInlined
	s.LoopsUnswitched += other.LoopsUnswitched
	s.LoopsUnrolled += other.LoopsUnrolled
	s.LoopsPeeled += other.LoopsPeeled
	s.BranchesConverted += other.BranchesConverted
	s.AllocasPromoted += other.AllocasPromoted
	s.InstrsFolded += other.InstrsFolded
	s.InstrsCSEd += other.InstrsCSEd
	s.InstrsHoisted += other.InstrsHoisted
	s.JumpsThreaded += other.JumpsThreaded
	s.BlocksMerged += other.BlocksMerged
	s.DeadInstrs += other.DeadInstrs
	s.DeadBlocks += other.DeadBlocks
	s.ChecksInserted += other.ChecksInserted
	s.InstrsSliced += other.InstrsSliced
	s.BranchesSliced += other.BranchesSliced
	s.FuncsSliced += other.FuncsSliced
	s.LoopsSummarized += other.LoopsSummarized
}

// Context carries the cost model, statistics and the per-function
// analysis cache through a pipeline run. The zero value (plus a cost
// model) is a valid uncached context: Dom/Loops recompute on every
// call, which is what the fresh-analysis baseline and the pass unit
// tests use.
type Context struct {
	Cost  CostModel
	Stats Stats

	// SliceChecks is the check subset the slice/loopsummary passes
	// target (zero value: all checks). SliceEntry names the function
	// whose reachable closure the slicer keeps ("" defaults to umain).
	SliceChecks ir.CheckSet
	SliceEntry  string

	// analyses caches Dom/Loops per function; nil disables caching.
	// See analysis.go.
	analyses map[*ir.Function]*analysisEntry
	// relevance caches the module-wide check-relevance closure. See
	// analysis.go.
	relevance *relevanceBox
	// scr is the compile's pass scratch, nil until a pass first needs
	// it; Release returns it to its pool. See scratch.go.
	scr *scratch
}

// Pass transforms a module in place, returning whether anything
// changed, and declares which cached analyses survive a changed run
// (LLVM-NewPM-style PreservedAnalyses, reduced to the two analyses
// this compiler has). A pass whose mutations are instruction-only may
// declare AllAnalyses and call Context.Invalidate itself at the rare
// points where it does touch the CFG (DCE and LICM do exactly that).
type Pass interface {
	Name() string
	Run(m *ir.Module, cx *Context) bool
	Preserves() AnalysisSet
}

// FunctionPass is a Pass that works one function at a time with no
// cross-function effects. The manager drives fixpoints over
// FunctionPasses as a per-function worklist.
type FunctionPass interface {
	Pass
	RunOnFunc(f *ir.Function, cx *Context) bool
}

// funcPass adapts a per-function transform into a Pass.
type funcPass struct {
	name      string
	preserves AnalysisSet
	run       func(f *ir.Function, cx *Context) bool
}

func (p funcPass) Name() string           { return p.name }
func (p funcPass) Preserves() AnalysisSet { return p.preserves }

func (p funcPass) RunOnFunc(f *ir.Function, cx *Context) bool {
	return p.run(f, cx)
}

func (p funcPass) Run(m *ir.Module, cx *Context) bool {
	changed := false
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		if p.run(f, cx) {
			changed = true
			cx.Invalidate(f, p.preserves)
		}
	}
	return changed
}

// isPure reports whether an instruction can be removed if unused and
// duplicated or reordered freely (no side effects, cannot trap).
// Division and remainder trap on zero, so they are not pure.
func isPure(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem:
		return false
	case ir.OpSelect, ir.OpZExt, ir.OpSExt, ir.OpTrunc, ir.OpGEP, ir.OpPhi:
		return true
	case ir.OpPtrDiff:
		return false // traps across objects
	case ir.OpLoad:
		return false // may trap, reads memory
	}
	return in.Op.IsBinary() || in.Op.IsCmp()
}

// removableIfDead reports whether an unused instruction may be deleted.
// Unused loads and divisions are removable under MiniC's semantics
// (their traps are considered detectable by the checks pass instead),
// mirroring LLVM treating them as removable when dead.
func removableIfDead(in *ir.Instr) bool {
	if isPure(in) {
		return true
	}
	switch in.Op {
	case ir.OpLoad, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem, ir.OpPtrDiff, ir.OpAlloca:
		return true
	}
	return false
}

func dumpOnPanic(name string, f *ir.Function) {
	if r := recover(); r != nil {
		panic(fmt.Sprintf("pass %s on @%s: %v\n%s", name, f.Name, r, f.String()))
	}
}
