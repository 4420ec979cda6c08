package main

import (
	"testing"
	"time"

	"overify/internal/core"
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
