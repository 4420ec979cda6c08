package dist_test

import (
	"os"
	"regexp"
	"strings"
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

	// The hash program reaches its division through a 32-bit hash of
	// the four input bytes. The run finds the bug but leaves queries
	// undecided at their assignment budget, so at every level and in
	// every shape the render opens with inconclusive and still lists the
	// bug: never verified, never a bare bugs line.
	t.Run("inconclusive", func(t *testing.T) {
		src, err := os.ReadFile("../core/testdata/hash.c")
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range []string{"-O0", "-O3", "-OVERIFY"} {
			job := core.Job{Name: "hash.c", Source: string(src), Level: level, InputBytes: 4, SplitStates: 2}
			inProc, served, clustered, reply, _ := threeShapes(t, job)
			if inProc != served || inProc != clustered {
				t.Errorf("%s: verdict depends on the shape:\nin-process:\n%s\ndaemon:\n%s\ncluster:\n%s", level, inProc, served, clustered)
			}
			if !strings.HasPrefix(inProc, "inconclusive: 2 paths (undecided solver queries: ") || !strings.Contains(inProc, ")\n  [") {
				t.Errorf("%s: want an inconclusive render that lists the bug, got\n%s", level, inProc)
			}
			if reply.Verdict != "inconclusive" || len(reply.Bugs) != 1 {
				t.Errorf("%s: daemon verdict %q with %d bugs, want inconclusive with 1", level, reply.Verdict, len(reply.Bugs))
			}
		}
	})

	// tail at -OVERIFY reads input[i] at i = strlen(input) - input[0] % 8,
	// an index over the whole buffer. The group that index builds stalls
	// the fixed-order search past the portfolio's threshold, so with a
	// four-way portfolio the group is raced; both searches decide it, to
	// the same render, but the race tries more values. So the field is
	// seen to reach each shape in its counters: the in-process and
	// cluster reports count a race, and the daemon reply's assignments
	// differ from the fixed-order run's.
	t.Run("portfolio", func(t *testing.T) {
		job := core.Job{Prog: "tail", InputBytes: 4, Portfolio: 4, TimeoutMS: 600_000}
		inProc, served, clustered, reply, res := threeShapes(t, job)
		if inProc != served || inProc != clustered {
			t.Errorf("verdict depends on the shape:\nin-process:\n%s\ndaemon:\n%s\ncluster:\n%s", inProc, served, clustered)
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
		if rep.Stats.SolverStats.PortfolioRaces == 0 {
			t.Errorf("in-process run raced no portfolio")
		}
		if res.Report.Stats.SolverStats.PortfolioRaces == 0 {
			t.Errorf("cluster run raced no portfolio")
		}
		job.Portfolio = 0
		fixed, err := daemon.NewServer(daemon.Config{}).Verify(&job)
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Render != reply.Render {
			t.Errorf("the portfolio changed the daemon's render:\nfixed order:\n%s\nportfolio:\n%s", fixed.Render, reply.Render)
		}
		if fixed.Assignments == reply.Assignments {
			t.Errorf("daemon assignments do not depend on the portfolio field: %d either way", reply.Assignments)
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

// TestSlicedEntryThreeShapes: with -slice, the slicer keeps the job's
// entry and its call closure, not umain's, in every shape — the
// coordinator, the daemon and each cluster worker compile the same
// sliced module, so the shipped shards decode against the function the
// job asked for. Here umain does not call f, so a slice for umain would
// delete the entry.
func TestSlicedEntryThreeShapes(t *testing.T) {
	job := core.Job{
		Name: "entry.c",
		Source: `int f(unsigned char *in, int n) {
			if (in[1] == 'q') { return 7; }
			int d = in[0] - 'a';
			return 100 / d;
		}
		int umain(unsigned char *input, int len) { return input[0]; }`,
		Entry: "f", Slice: true, InputBytes: 2, SplitStates: 2,
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
}
