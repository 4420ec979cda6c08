package dist_test

import (
	"strings"
	"testing"

	"overify/internal/core"
	"overify/internal/daemon"
	"overify/internal/symex"
)

// oldOVerify is -OVERIFY's pass list before it became one fixpoint: a
// worker that compiles today's -OVERIFY compiles another tac module.
const oldOVerify = "mem2reg,simplify,cse,simplifycfg,dce,inline,mem2reg,simplify,cse,simplifycfg,dce," +
	"fixpoint:12(jumpthread,licm,ifconvert,simplify,cse,simplifycfg,dce)," +
	"fixpoint:8(unroll,licm,unswitch,ifconvert,jumpthread,simplify,cse,simplifycfg,dce),checks"

// TestWorkerRefusesAnotherModule: a coordinator compiles tac -OVERIFY
// under the old pass list and ships a shard to a worker that compiles
// today's. The state frame decodes against either module, so without
// the module key the worker runs the states to wrong counters with no
// error; with it the worker refuses the shard, naming both keys. The
// same shard sent with the coordinator's own job is answered.
func TestWorkerRefusesAnotherModule(t *testing.T) {
	coordJob := core.Job{Prog: "tac", Level: "-OVERIFY", Passes: oldOVerify}
	r, err := coordJob.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Compile()
	if err != nil {
		t.Fatal(err)
	}
	eng := symex.NewEngine(c.Mod, r.Verify.Engine)
	states, err := eng.Split(r.Entry, eng.InputArgs(5), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	data, err := eng.EncodeStates(states)
	if err != nil {
		t.Fatal(err)
	}
	coordKey := c.ModuleKey(r.Entry)

	worker := cluster(t, 1)[0]
	todays := core.Job{Name: r.Name, Source: r.Source, Level: "-OVERIFY"}
	req := daemon.NewDistExploreRequest(todays, data)
	req.Module = coordKey
	reply, refusal := worker.DistExplore(req)
	if refusal == nil {
		t.Fatalf("worker ran a shard of another module: %d paths, %d instrs", reply.Stats.TotalPaths(), reply.Stats.Instrs)
	}
	wr, _ := todays.Resolve()
	wc, err := wr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	workerKey := wc.ModuleKey(wr.Entry)
	if workerKey == coordKey {
		t.Fatal("the two pass lists compile tac to one module")
	}
	if msg := refusal.Error(); !strings.Contains(msg, coordKey) || !strings.Contains(msg, workerKey) {
		t.Errorf("refusal does not name both module keys: %v", refusal)
	}

	same := daemon.NewDistExploreRequest(core.Job{Name: r.Name, Source: r.Source, Level: "-OVERIFY", Passes: oldOVerify}, data)
	same.Module = coordKey
	if _, err := worker.DistExplore(same); err != nil {
		t.Errorf("worker refused a shard of its own module: %v", err)
	}
}
