package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"strings"
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

// TestUndecidedRunIsInconclusive: internal/core/testdata/hash.c at -O0
// with 4 bytes leaves two solver queries undecided at default flags. Its
// branch asks for four bytes whose FNV-1a hash is one 32-bit constant,
// a group no byte of which is unary until the other three are bound, and
// the search abandons it at its budget. So symbex must not print
// "verified" over it or exit 0, in process or through a daemon, whose
// reply carries the verdict. (The run also finds the division by zero
// behind the branch; an undecided query outranks it.) Once the search
// decides hash.c, the test needs another cell.
func TestUndecidedRunIsInconclusive(t *testing.T) {
	src, err := os.ReadFile("../../internal/core/testdata/hash.c")
	if err != nil {
		t.Fatal(err)
	}
	job := core.Job{Name: "hash.c", Source: string(src), Level: "-O0", InputBytes: 4}
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
		t.Fatal("hash.c -O0 n=4 decides every query now; pick another undecided cell")
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

// TestInconclusiveRunIsNotStored: an inconclusive outcome stays out of
// the verdict store (verdicts.Cacheable), so a run over a fresh store
// must not say it stored one. hash.c at -O0 with 4 bytes is inconclusive
// (TestUndecidedRunIsInconclusive): symbex exits 3 and prints no
// "stored" line. The child is this test binary re-run as symbex, as in
// TestRunErrorExitsTwo.
func TestInconclusiveRunIsNotStored(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "symbex" {
		os.Args = args
		flag.CommandLine = flag.NewFlagSet("symbex", flag.ExitOnError)
		main()
		return
	}
	args := []string{"-n", "4", "-O", "-O0", "-verdict-cache", t.TempDir(), "../../internal/core/testdata/hash.c"}
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestInconclusiveRunIsNotStored$", "--", "symbex"}, args...)...)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("symbex %v: %v, want exit status 3\n%s", args, err, out)
	}
	if strings.Contains(string(out), "stored in") {
		t.Errorf("symbex %v claims an inconclusive outcome was stored:\n%s", args, out)
	}
	if !strings.Contains(string(out), "inconclusive, not stored") {
		t.Errorf("symbex %v does not say the outcome was left out of the store:\n%s", args, out)
	}
}
