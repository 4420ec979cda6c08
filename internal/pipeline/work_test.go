package pipeline_test

import (
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
)

// TestCorpusPassInvocationsPinned pins how much compiling the corpus
// costs at each level: the sums of Result.PassInvocations (pass runs,
// one per function a function pass visits) and InstrsOut (static size
// of what the verifier gets) over every corpus program, compiled as
// core.CompileSource does with the level's default libc. Both counts
// are deterministic, so any change to a level's spec, a pass's
// change reporting or the fixpoint schedule shows up here; a change
// that means to move them re-pins the table and says why. -OVERIFY
// must also run no more pass invocations than -O3: its cost model is
// aimed at the verifier, not at a longer pipeline.
func TestCorpusPassInvocationsPinned(t *testing.T) {
	want := map[pipeline.Level]struct{ invocations, instrsOut int }{
		pipeline.O0:      {0, 4988},
		pipeline.O1:      {690, 2669},
		pipeline.O2:      {2265, 3991},
		pipeline.O3:      {3552, 4147},
		pipeline.OVerify: {2464, 4978},
	}
	got := map[pipeline.Level]int{}
	for _, level := range []pipeline.Level{
		pipeline.O0, pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify,
	} {
		inv, out := 0, 0
		for _, p := range coreutils.All() {
			c, err := core.CompileSource(p.Name, p.Src, level, core.DefaultLibc(level))
			if err != nil {
				t.Fatalf("%s at %s: %v", p.Name, level, err)
			}
			inv += c.Result.PassInvocations
			out += c.Result.InstrsOut
		}
		got[level] = inv
		if w := want[level]; inv != w.invocations || out != w.instrsOut {
			t.Errorf("%s: corpus pass invocations %d, instrs out %d; pinned %d, %d",
				level, inv, out, w.invocations, w.instrsOut)
		}
	}
	if got[pipeline.OVerify] > got[pipeline.O3] {
		t.Errorf("-OVERIFY runs %d pass invocations over the corpus, more than -O3's %d",
			got[pipeline.OVerify], got[pipeline.O3])
	}
}
