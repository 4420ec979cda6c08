package dist

import (
	"fmt"
	"testing"

	"overify/internal/daemon"
)

// TestCoordinatorAndWorkerCompileTheSameModule: for every combination
// of the compile identity fields, the job a worker rebuilds from the
// shard request resolves to the coordinator's compile-cache key and
// compiles to the coordinator's PipelineDesc and module key. The state
// codec names IR by position, so anything less decodes garbage.
func TestCoordinatorAndWorkerCompileTheSameModule(t *testing.T) {
	const src = `int umain(unsigned char *input, int len) { if (len > 0) { return 100 / (input[0] + 1); } return 0; }`
	for _, level := range []string{"", "-O0", "-O1", "-O2", "-O3", "-OVERIFY"} {
		for _, passes := range []string{"", "mem2reg,fixpoint:4(simplify,cse,simplifycfg,dce)"} {
			for _, slice := range []bool{false, true} {
				for _, checks := range []string{"", "div-by-zero", "div-by-zero,bounds"} {
					for _, prog := range []bool{false, true} {
						job := Options{Level: level, Passes: passes, Slice: slice, Checks: checks}
						if prog {
							job.Prog = "echo"
						} else {
							job.Source = src // unnamed: both sides must agree on "<source>"
						}
						label := fmt.Sprintf("level=%q passes=%q slice=%v checks=%q prog=%v", level, passes, slice, checks, prog)
						coord, err := job.Resolve()
						if err != nil {
							t.Fatalf("%s: coordinator: %v", label, err)
						}
						worker, err := daemon.NewDistExploreRequest(workerJob(job, coord), nil).Job().Resolve()
						if err != nil {
							t.Fatalf("%s: worker: %v", label, err)
						}
						if coord.CompileKey() != worker.CompileKey() {
							t.Errorf("%s: compile keys differ", label)
						}
						cc, err := coord.Compile()
						if err != nil {
							t.Fatalf("%s: coordinator compile: %v", label, err)
						}
						wc, err := worker.Compile()
						if err != nil {
							t.Fatalf("%s: worker compile: %v", label, err)
						}
						if cc.PipelineDesc != wc.PipelineDesc {
							t.Errorf("%s: pipeline descriptions differ:\n%s\n%s", label, cc.PipelineDesc, wc.PipelineDesc)
						}
						if cc.Mod.String() != wc.Mod.String() {
							t.Errorf("%s: modules differ", label)
						}
						if cc.ModuleKey(coord.Entry) != wc.ModuleKey(worker.Entry) {
							t.Errorf("%s: module keys differ", label)
						}
					}
				}
			}
		}
	}
}
