package pipeline

import (
	"reflect"
	"testing"
)

// FuzzPipelineSpecRoundTrip pins the -passes= grammar's round-trip
// property: any accepted input renders to a canonical string that
// reparses to the same spec and re-renders byte-identically. The
// verdict store's pipeline field keys on the rendered string, so a
// render/parse disagreement would silently split or merge cache
// entries.
func FuzzPipelineSpecRoundTrip(f *testing.F) {
	f.Add("mem2reg")
	f.Add("mem2reg,simplify,cse,simplifycfg,dce")
	f.Add("fixpoint(ifconvert,simplify)")
	f.Add("fixpoint:12(jumpthread,licm,ifconvert,simplify,cse,simplifycfg,dce)")
	f.Add("mem2reg,fixpoint:8(unroll,licm),checks,annotate")
	f.Add("checks,annotate,slice,simplify,cse,simplifycfg")
	f.Add("slice:bounds")
	f.Add("slice:div-by-zero+bounds,loopsummary:div-by-zero+bounds")
	f.Add("checks,annotate,slice:overflow,simplify,loopsummary:overflow")
	f.Add(" mem2reg , cse ")
	f.Add("fixpoint:1(dce)")
	f.Add("slice:all")
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParsePipeline(text)
		if err != nil {
			return // rejected inputs are out of scope
		}
		rendered := spec.String()
		again, err := ParsePipeline(rendered)
		if err != nil {
			t.Fatalf("render of accepted input does not reparse: %q -> %q: %v", text, rendered, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("reparse differs from original spec:\n  input:    %q\n  rendered: %q", text, rendered)
		}
		if again.String() != rendered {
			t.Fatalf("render is not a fixed point: %q -> %q -> %q", text, rendered, again.String())
		}
	})
}
