package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"overify/internal/core"
	"overify/internal/daemon"
)

// TestSubMillisecondTimeoutIsABudget: `-timeout 1us` used to truncate to
// a TimeoutMS of 0, which every shape of run reads as "no budget". The
// job built from the flag must stop the 2M-iteration concrete loop
// (TestOneJobThreeShapes' timeout program) and say it timed out,
// instead of running it to the end.
func TestSubMillisecondTimeoutIsABudget(t *testing.T) {
	for d, want := range map[time.Duration]int64{
		0: 0, time.Microsecond: 1, 500 * time.Microsecond: 1, time.Millisecond: 1, 60 * time.Second: 60_000,
	} {
		if got := jobTimeoutMS(d); got != want {
			t.Errorf("jobTimeoutMS(%s) = %d, want %d", d, got, want)
		}
	}
	job := core.Job{
		Source: `int umain(unsigned char *input, int len) {
			int acc = 0;
			for (int i = 0; i < 2000000; i++) { acc = acc + i; }
			if (input[0] == 'a') { return acc; }
			return 0;
		}`,
		Level: "-O0", TimeoutMS: jobTimeoutMS(time.Microsecond),
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
	if !rep.Stats.TimedOut || rep.Stats.Paths != 0 {
		t.Errorf("-timeout 1us explored to the end: timedOut=%v paths=%d truncated=%d",
			rep.Stats.TimedOut, rep.Stats.Paths, rep.Stats.TruncatedPaths)
	}
}

// TestUndecidedRunIsInconclusive: tail at -OVERIFY with 4 bytes leaves
// one solver query undecided at default flags. It reads input[i] at
// i = strlen(input) - input[0] % 8, an index that depends on every byte
// of the buffer, and the fixed-order search abandons that group at its
// budget (ROADMAP item 4). So symbex must not print "verified" over it
// or exit 0, in process or through a daemon, whose reply carries the
// verdict. Once the search decides tail, the test needs another cell.
func TestUndecidedRunIsInconclusive(t *testing.T) {
	job := core.Job{Prog: "tail", InputBytes: 4}
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
	if rep.Stats.SolverStats.Failures == 0 {
		t.Fatal("tail -OVERIFY n=4 decides every query now; pick another undecided cell")
	}
	if code := reportExitCode(rep); code != 3 {
		t.Errorf("exit code %d over %d undecided queries, want 3", code, rep.Stats.SolverStats.Failures)
	}

	reply, err := daemon.NewServer(daemon.Config{}).Verify(&job)
	if err != nil {
		t.Fatal(err)
	}
	_, why := rep.Verdict()
	if code := exitCode(reply.Verdict); code != 3 || !reflect.DeepEqual(reply.Why, why) {
		t.Errorf("daemon reply: verdict %q (exit code %d) because %q, want inconclusive (3) because %q",
			reply.Verdict, code, reply.Why, why)
	}
	if reply.Assignments != rep.Stats.SolverStats.Assignments {
		t.Errorf("daemon reply: %d assignments, the in-process run tried %d", reply.Assignments, rep.Stats.SolverStats.Assignments)
	}
}

// TestRunErrorExitsTwo: a run that fails — a missing entry function, an
// unknown program, a refused dial, fewer than one symbolic byte — exits
// 2, not 1 ("bugs found"). (-n 0 and -n -2 used to explore the job's
// default 4 bytes under a header claiming 0 or -2.) The test binary
// re-runs itself with symbex's arguments after "--", and that child
// runs main.
func TestRunErrorExitsTwo(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "symbex" {
		os.Args = args
		flag.CommandLine = flag.NewFlagSet("symbex", flag.ExitOnError)
		main()
		return
	}
	for _, args := range [][]string{
		{"-prog", "wc", "-entry", "nosuch"},
		{"-prog", "nosuch"},
		{"-prog", "wc", "-daemon", t.TempDir() + "/none.sock"},
		{"-prog", "true", "-n", "0"},
		{"-prog", "true", "-n", "-2"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestRunErrorExitsTwo$", "--", "symbex"}, args...)...)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("symbex %v: %v, want exit status 2\n%s", args, err, out)
		}
	}
}
