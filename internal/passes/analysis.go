package passes

import "overify/internal/ir"

// AnalysisSet is a bitset of the per-function analyses the pass manager
// caches. A pass declares what it keeps valid via Pass.Preserves; the
// manager invalidates only what a changed pass clobbers, so a chain of
// analysis-preserving passes (mem2reg, simplify, cse, dce's
// instruction-only path, checks) shares one dominator tree
// and one loop forest instead of recomputing them per pass — the
// t_compile term of the paper's end-to-end verification budget.
type AnalysisSet uint32

// The cached analyses.
const (
	// AnalysisDom is the dominator tree (ir.ComputeDom).
	AnalysisDom AnalysisSet = 1 << iota
	// AnalysisLoops is the natural-loop forest (ir.FindLoops). Loops
	// are derived from the dominator tree, so invalidating AnalysisDom
	// always invalidates AnalysisLoops too.
	AnalysisLoops
	// AnalysisRelevance is the module-wide check-relevance closure
	// (ComputeRelevance), consumed by the slice and loopsummary passes.
	// It is keyed by instruction identity, so it survives only passes
	// that change nothing at all — it is deliberately NOT part of
	// AllAnalyses, and a pass must name the bit explicitly to preserve
	// it.
	AnalysisRelevance
)

// Convenience sets for Preserves declarations. AllAnalyses is the
// per-function CFG set (Dom+Loops); see AnalysisRelevance for why the
// module-scoped relevance closure is excluded.
const (
	NoAnalyses  AnalysisSet = 0
	AllAnalyses             = AnalysisDom | AnalysisLoops
)

// AnalysisStats counts analysis-cache effectiveness across a pipeline
// run; pipeline.Result surfaces it next to the per-pass timings.
type AnalysisStats struct {
	DomHits           int64 // Dom() served from cache
	DomComputes       int64 // Dom() recomputed (cache miss or caching off)
	LoopHits          int64
	LoopComputes      int64
	RelevanceHits     int64 // Relevance() served from the module-wide cache
	RelevanceComputes int64
}

// Add accumulates o into s.
func (s *AnalysisStats) Add(o AnalysisStats) {
	s.DomHits += o.DomHits
	s.DomComputes += o.DomComputes
	s.LoopHits += o.LoopHits
	s.LoopComputes += o.LoopComputes
	s.RelevanceHits += o.RelevanceHits
	s.RelevanceComputes += o.RelevanceComputes
}

// HitRate is the fraction of Dom/Loops requests served from cache.
func (s AnalysisStats) HitRate() float64 {
	total := s.DomHits + s.DomComputes + s.LoopHits + s.LoopComputes
	if total == 0 {
		return 0
	}
	return float64(s.DomHits+s.LoopHits) / float64(total)
}

// analysisEntry caches one function's analyses; the per-entry counters
// are summed after the run.
type analysisEntry struct {
	dom   *ir.DomTree
	loops []*ir.Loop
	stats AnalysisStats
}

// Dom returns f's dominator tree, from cache when this Context caches
// analyses (pipeline runs do; a bare &Context{} recomputes fresh every
// call, which is also the stance of the cached-vs-fresh equivalence
// test's baseline).
func (cx *Context) Dom(f *ir.Function) *ir.DomTree {
	e := cx.entry(f)
	if e == nil {
		return ir.ComputeDom(f)
	}
	if e.dom == nil {
		e.dom = ir.ComputeDom(f)
		e.stats.DomComputes++
	} else {
		e.stats.DomHits++
	}
	return e.dom
}

// Loops returns f's natural loops, cached like Dom.
func (cx *Context) Loops(f *ir.Function) []*ir.Loop {
	e := cx.entry(f)
	if e == nil {
		return ir.FindLoops(f, cx.Dom(f))
	}
	if e.loops == nil {
		e.loops = ir.FindLoops(f, cx.Dom(f))
		e.stats.LoopComputes++
	} else {
		e.stats.LoopHits++
	}
	return e.loops
}

// relevanceBox holds the module-wide check-relevance closure: a pass
// that changes any function drops it.
type relevanceBox struct {
	module *ir.Module
	checks ir.CheckSet
	rel    *Relevance
	hits   int64
	comps  int64
}

// Relevance returns the module-wide check-relevance closure for m under
// this context's SliceChecks subset, cached in the analysis cache next
// to Dom/Loops. Only a pass that preserves AnalysisRelevance keeps it
// alive across a change; every other changed pass drops it via
// Invalidate.
func (cx *Context) Relevance(m *ir.Module) *Relevance {
	if cx.relevance == nil {
		return ComputeRelevance(m, cx.SliceChecks)
	}
	box := cx.relevance
	if box.rel != nil && box.module == m && box.checks == cx.SliceChecks {
		box.hits++
		return box.rel
	}
	box.rel = ComputeRelevance(m, cx.SliceChecks)
	box.module = m
	box.checks = cx.SliceChecks
	box.comps++
	return box.rel
}

// Invalidate drops f's cached analyses except those in preserved.
// Passes call this at the precise points where they mutate the CFG
// (jump threading an edge, peeling a loop, creating a preheader,
// removing an unreachable block); the manager additionally calls it
// with the pass's static Preserves set after every changed run.
// Invalidating the dominator tree always drops the loop forest too,
// since loops are derived from it.
func (cx *Context) Invalidate(f *ir.Function, preserved AnalysisSet) {
	if cx.relevance != nil && preserved&AnalysisRelevance == 0 {
		cx.relevance.rel = nil
		cx.relevance.module = nil
	}
	e := cx.entry(f)
	if e == nil {
		return
	}
	if preserved&AnalysisDom == 0 {
		e.dom = nil
		e.loops = nil
		return
	}
	if preserved&AnalysisLoops == 0 {
		e.loops = nil
	}
}

// EnableAnalysisCache turns on per-function analysis caching for this
// context. pipeline.Optimize enables it unless the configuration asks
// for the fresh-analysis baseline.
func (cx *Context) EnableAnalysisCache() {
	if cx.analyses == nil {
		cx.analyses = make(map[*ir.Function]*analysisEntry)
	}
	if cx.relevance == nil {
		cx.relevance = &relevanceBox{}
	}
}

// AnalysisStats sums the cache counters over every function seen.
func (cx *Context) AnalysisStats() AnalysisStats {
	var total AnalysisStats
	for _, e := range cx.analyses {
		total.Add(e.stats)
	}
	if cx.relevance != nil {
		total.RelevanceHits += cx.relevance.hits
		total.RelevanceComputes += cx.relevance.comps
	}
	return total
}

// entry returns f's cache slot, created on first use, or nil when
// caching is off.
func (cx *Context) entry(f *ir.Function) *analysisEntry {
	if cx.analyses == nil {
		return nil
	}
	e := cx.analyses[f]
	if e == nil {
		e = &analysisEntry{}
		cx.analyses[f] = e
	}
	return e
}
