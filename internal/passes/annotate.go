package passes

import "overify/internal/ir"

// Annotate does nothing and reports no change. It once attached value
// ranges to instruction results (the paper's §3, "Program
// annotations"), but no verifier here read them, they decided none of
// the corpus's 886 comparisons, and no level ran the pass. The name
// stays registered only because benchmark/'s per_layer list enumerates
// Names(); the next change to the benchmark removes it with this stub.
func Annotate() Pass {
	return funcPass{name: "annotate", preserves: AllAnalyses, run: func(*ir.Function, *Context) bool { return false }}
}
