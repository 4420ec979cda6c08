package core_test

import (
	"strings"
	"testing"
	"time"

	"overify/internal/core"
	"overify/internal/ir"
	"overify/internal/libc"
	"overify/internal/pipeline"
)

const trivialSrc = `int umain(unsigned char *input, int len) { return 0; }`

// TestJobResolveDefaults: a job that names only its program resolves to
// the documented defaults — -OVERIFY with its own libc, umain, 4
// symbolic bytes, every check, no budgets.
func TestJobResolveDefaults(t *testing.T) {
	r, err := core.Job{Source: trivialSrc}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "<source>" || r.Entry != "umain" {
		t.Errorf("name %q entry %q, want <source> umain", r.Name, r.Entry)
	}
	if r.Config.Level != pipeline.OVerify || r.Libc != libc.Verified {
		t.Errorf("level %s libc %s, want -OVERIFY with the verified libc", r.Config.Level, r.Libc)
	}
	if r.Config.Pipeline != nil || r.Config.Slice {
		t.Errorf("default job overrides the pipeline: %+v", r.Config)
	}
	// The zero engine options are every check with no budgets.
	if want := (core.VerifyOptions{InputBytes: 4}); r.Verify != want {
		t.Errorf("engine configuration %+v, want only InputBytes: 4", r.Verify)
	}

	p, err := core.Job{Prog: "wc", Level: "-O2"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "wc" || p.Source == "" || p.Libc != libc.Uclibc {
		t.Errorf("corpus job resolved to name %q, %d source bytes, libc %s", p.Name, len(p.Source), p.Libc)
	}
}

// TestJobResolveFields: every field lands where the engine and the
// compiler read it.
func TestJobResolveFields(t *testing.T) {
	r, err := core.Job{
		Name: "t.c", Source: trivialSrc, Level: "-O3", Passes: "mem2reg,dce", Entry: "f",
		InputBytes: 7, TimeoutMS: 1500, MaxInstrs: 99, Workers: 2,
		Slice: true, Checks: "div-by-zero", Portfolio: 4, PortfolioStall: 64,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	divOnly, _ := ir.ParseCheckSet("div-by-zero")
	e := r.Verify.Engine
	if r.Name != "t.c" || r.Entry != "f" || r.Verify.InputBytes != 7 ||
		e.Timeout != 1500*time.Millisecond || e.MaxInstrs != 99 ||
		e.Workers != 2 || e.Checks != divOnly ||
		e.Solver.Portfolio != 4 || e.Solver.PortfolioStall != 64 {
		t.Errorf("engine configuration lost a field: %+v (entry %q, name %q)", r.Verify, r.Entry, r.Name)
	}
	c := r.Config
	if c.Level != pipeline.O3 || !c.Slice || c.SliceChecks != divOnly ||
		c.Pipeline == nil || c.Pipeline.String() != "mem2reg,dce" {
		t.Errorf("pipeline configuration lost a field: %+v", c)
	}
}

// TestJobResolveRejects: malformed jobs fail in Resolve, before
// anything is compiled or dialed.
func TestJobResolveRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		job  core.Job
		want string
	}{
		{"both", core.Job{Source: trivialSrc, Prog: "wc"}, "both source and corpus program"},
		{"neither", core.Job{Level: "-O0"}, "neither source nor a corpus program"},
		{"prog", core.Job{Prog: "no-such-program"}, `unknown corpus program "no-such-program"`},
		{"level", core.Job{Prog: "wc", Level: "-O9"}, "unknown optimization level"},
		{"check", core.Job{Prog: "wc", Checks: "div-by-zero,nonsense"}, "unknown check kind"},
		{"pass", core.Job{Prog: "wc", Passes: "mem2reg,nosuchpass"}, "nosuchpass"},
		{"pass syntax", core.Job{Prog: "wc", Passes: "fixpoint(dce"}, "fixpoint"},
	} {
		r, err := tc.job.Resolve()
		if err == nil {
			t.Errorf("%s: resolved to %+v, want an error", tc.name, r)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
