package dist_test

import (
	"regexp"
	"testing"

	"overify/internal/core"
	"overify/internal/daemon"
	"overify/internal/dist"
)

// witness matches the reproducing-input field of a verdicts.Render bug
// line; NormalizedRender prints it empty.
var witness = regexp.MustCompile(`input="(?:[^"\\]|\\.)*"`)

// threeShapes runs one job in-process, through a daemon and through
// dist.Verify over two workers, and returns the three normalized
// renders plus the raw results.
func threeShapes(t *testing.T, job core.Job) (inProc, served, clustered string, reply *daemon.VerifyReply, res *dist.Result) {
	t.Helper()
	r, err := job.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Verify(r.Entry, r.Verify)
	if err != nil {
		t.Fatal(err)
	}
	reply, err = daemon.NewServer(daemon.Config{}).Verify(&job)
	if err != nil {
		t.Fatal(err)
	}
	res, err = dist.Verify(cluster(t, 2), job)
	if err != nil {
		t.Fatal(err)
	}
	return dist.NormalizedRender(rep), witness.ReplaceAllString(reply.Render, `input=""`),
		dist.NormalizedRender(res.Report), reply, res
}

// TestOneJobThreeShapes: the same core.Job value yields the same
// verdict however it is run, and its solver-portfolio and timeout
// fields reach the engine in every shape.
func TestOneJobThreeShapes(t *testing.T) {
	t.Run("bug", func(t *testing.T) {
		job := core.Job{
			Name:   "div.c",
			Source: `int umain(unsigned char *input, int len) { if (input[1] == 'q') { return 7; } return 100 / ((int)input[0] - 'z'); }`,
			Level:  "-O1", InputBytes: 3, SplitStates: 2,
		}
		inProc, served, clustered, reply, res := threeShapes(t, job)
		if inProc != served || inProc != clustered {
			t.Errorf("verdict depends on the shape:\nin-process:\n%s\ndaemon:\n%s\ncluster:\n%s", inProc, served, clustered)
		}
		if len(reply.Bugs) != 1 || len(res.Report.Bugs) != 1 {
			t.Errorf("want the one division by zero, got %d (daemon) and %d (cluster) bugs", len(reply.Bugs), len(res.Report.Bugs))
		}
		if res.ShardsSent != 2 {
			t.Errorf("cluster shipped %d shards, want one per worker", res.ShardsSent)
		}
	})

	// basename at -OVERIFY has one constraint group the fixed-order
	// search abandons at its budget; a four-way portfolio settles it,
	// which adds a path and a sat query to the render. A shape that
	// dropped the portfolio fields would render the fixed-order verdict.
	t.Run("portfolio", func(t *testing.T) {
		if testing.Short() {
			t.Skip("four solver-bound verifications")
		}
		job := core.Job{Prog: "basename", InputBytes: 4, Portfolio: 4, PortfolioStall: 4096, TimeoutMS: 600_000}
		inProc, served, clustered, _, res := threeShapes(t, job)
		if inProc != served || inProc != clustered {
			t.Errorf("verdict depends on the shape:\nin-process:\n%s\ndaemon:\n%s\ncluster:\n%s", inProc, served, clustered)
		}
		if res.Report.Stats.SolverStats.PortfolioRaces == 0 {
			t.Errorf("cluster run raced no portfolio")
		}
		job.Portfolio, job.PortfolioStall = 0, 0
		fixed, err := daemon.NewServer(daemon.Config{}).Verify(&job)
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Render == served {
			t.Errorf("daemon render does not depend on the portfolio fields:\n%s", served)
		}
	})

	// A 1 ms budget on a concrete loop that needs far longer (the engine
	// polls its deadline every 1024 instructions): every shape must stop
	// and say so. The cluster is asked for a frontier wider than the
	// program has paths, so its whole exploration is the coordinator's
	// split phase.
	t.Run("timeout", func(t *testing.T) {
		job := core.Job{
			Source: `int umain(unsigned char *input, int len) {
				int acc = 0;
				for (int i = 0; i < 2000000; i++) { acc = acc + i; }
				if (input[0] == 'a') { return acc; }
				return 0;
			}`,
			Level: "-O0", TimeoutMS: 1, SplitStates: 1 << 30,
		}
		r, err := job.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.Compile()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Verify(r.Entry, r.Verify)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Stats.TimedOut {
			t.Errorf("in-process run ignored the job's timeout")
		}
		reply, err := daemon.NewServer(daemon.Config{}).Verify(&job)
		if err != nil {
			t.Fatal(err)
		}
		if !reply.TimedOut {
			t.Errorf("daemon ignored the job's timeout")
		}
		res, err := dist.Verify(cluster(t, 2), job)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Report.Stats.TimedOut || res.ShardsSent != 0 {
			t.Errorf("coordinator split ignored the job's timeout (timedOut=%v, %d shards shipped)",
				res.Report.Stats.TimedOut, res.ShardsSent)
		}
	})
}
