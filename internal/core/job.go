package core

import (
	"fmt"
	"time"

	"overify/internal/coreutils"
	"overify/internal/ir"
	"overify/internal/lang"
	"overify/internal/libc"
	"overify/internal/pipeline"
	"overify/internal/solver"
)

// Job is one verification request as written: which program, compiled
// how, explored how. It is the single description every shape of run
// shares — `symbex` builds one from its flags and hands the same value
// to the in-process run, the daemon client or the cluster coordinator;
// daemon.VerifyRequest and dist.Options are aliases of it, and its
// JSON form is the daemon protocol's verify body. Exactly one of Source
// (with Name) or Prog (a bundled corpus program) must be set; every
// other field may be left zero. Resolve is the one place the fields
// are defaulted and parsed.
type Job struct {
	Name   string `json:"name,omitempty"`   // display name for Source
	Source string `json:"source,omitempty"` // MiniC source text
	Prog   string `json:"prog,omitempty"`   // corpus program name

	Level  string `json:"level,omitempty"`  // optimization level (default -OVERIFY)
	Passes string `json:"passes,omitempty"` // explicit pass pipeline (its rendered spec is in the verdict and compile keys)
	Entry  string `json:"entry,omitempty"`  // entry function (default umain)

	InputBytes int   `json:"inputBytes,omitempty"` // symbolic input size (default 4)
	TimeoutMS  int64 `json:"timeoutMs,omitempty"`  // exploration budget (0 = none)
	MaxInstrs  int64 `json:"maxInstrs,omitempty"`  // instruction cap (0 = engine default)
	Workers    int   `json:"workers,omitempty"`    // exploration workers (0/1 serial, -1 = one per CPU)

	// Slice enables verification-aware slicing: the pipeline deletes
	// whatever no kept check can observe before exploration.
	Slice bool `json:"slice,omitempty"`
	// Checks restricts verification (and, with Slice, the slicing
	// closure) to a comma-separated subset of check names — see
	// ir.ParseCheckSet. Empty or "all" keeps every check.
	Checks string `json:"checks,omitempty"`

	// NoVerdicts bypasses the verdict store for this job (the
	// exploration still warms and reads the solver cache). Benchmarks
	// use it to isolate the solver-cache layer.
	NoVerdicts bool `json:"noVerdicts,omitempty"`

	// Portfolio configures the solver portfolio (0 = fixed-order
	// solving).
	Portfolio int `json:"portfolio,omitempty"`

	// SplitStates is how many pending states a cluster coordinator's
	// breadth-first prefix aims for before sharding (default 8 per
	// worker). It never travels: only the coordinator reads it.
	SplitStates int `json:"-"`
}

// Resolved is a Job as resolved: every default applied and every
// string parsed into what the compiler and the engine take.
type Resolved struct {
	Name   string // display name (the corpus program's, or "<source>" when none was given)
	Source string // MiniC text to compile
	Entry  string
	Libc   libc.Kind
	Config pipeline.Config

	// Verify is the engine configuration. Callers that own warm state
	// (symex.Warm, verdict store) inject it here before running.
	Verify VerifyOptions
}

// Resolve decides how the job's fields become a module and an engine
// configuration. Every runner goes through it, so a coordinator and
// its workers — or a CLI and its daemon — given the same fields
// compile the same module by construction (the state codec names IR
// by position and decodes garbage otherwise).
func (j Job) Resolve() (*Resolved, error) {
	r := &Resolved{Name: j.Name, Source: j.Source, Entry: j.Entry}
	switch {
	case j.Prog != "" && j.Source != "":
		return nil, fmt.Errorf("request carries both source and corpus program %q", j.Prog)
	case j.Prog != "":
		p, ok := coreutils.Get(j.Prog)
		if !ok {
			return nil, fmt.Errorf("unknown corpus program %q", j.Prog)
		}
		r.Name, r.Source = p.Name, p.Src
	case j.Source == "" && j.Name != "":
		return nil, fmt.Errorf("%s: empty source", j.Name)
	case j.Source == "":
		return nil, fmt.Errorf("request carries neither source nor a corpus program")
	case j.Name == "":
		r.Name = "<source>"
	}
	if r.Entry == "" {
		r.Entry = "umain"
	}

	level := j.Level
	if level == "" {
		level = "-OVERIFY"
	}
	lvl, err := pipeline.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	checks, err := ir.ParseCheckSet(j.Checks)
	if err != nil {
		return nil, err
	}
	r.Libc = DefaultLibc(lvl)
	r.Config = pipeline.LevelConfig(lvl)
	r.Config.Slice = j.Slice
	r.Config.SliceChecks = checks
	r.Config.SliceEntry = r.Entry
	if j.Passes != "" {
		spec, err := pipeline.ParsePipeline(j.Passes)
		if err != nil {
			return nil, err
		}
		r.Config.Pipeline = &spec
	}

	vo := VerifyOptions{InputBytes: j.InputBytes}
	vo.Engine.Timeout = time.Duration(j.TimeoutMS) * time.Millisecond
	vo.Engine.MaxInstrs = j.MaxInstrs
	vo.Engine.Workers = j.Workers
	vo.Engine.Checks = checks
	vo.Engine.Solver.Portfolio = j.Portfolio
	r.Verify = vo.normalized()
	return r, nil
}

// Compile compiles the resolved program.
func (r *Resolved) Compile() (*Compiled, error) {
	return CompileWithConfig(r.Name, r.Source, r.Config, r.Libc)
}

// CompileKey identifies the module Compile produces, for module
// caches. It covers what the compiler reads: the name, the level, the
// explicit pipeline, the level-implied libc, the slicing configuration,
// the entry whenever a slice stage may run (-slice or an explicit
// pipeline), since the slice keeps the entry's call closure, and the
// source's token stream (lang.WriteKey) rather than its text,
// so an edit to comments, whitespace or blank lines keeps the key and
// any other edit moves it. A source that does not lex keys on its raw
// text; its compile fails, failed compiles are never cached, and so
// each such source reports its own error position.
func (r *Resolved) CompileKey() string {
	passes, sliceKey := "", ""
	if r.Config.Pipeline != nil {
		passes = r.Config.Pipeline.String()
	}
	if r.Config.Slice {
		sliceKey = "slice:" + r.Config.SliceChecks.String()
	}
	if r.Config.Slice || r.Config.Pipeline != nil {
		sliceKey += "@" + r.Entry
	}
	h := solver.NewHasher()
	for _, part := range []string{r.Name, r.Config.Level.String(), passes, r.Libc.String(), sliceKey} {
		h.WriteString(part)
		h.WriteString("\x00")
	}
	if err := lang.WriteKey(h, r.Source); err != nil {
		h.WriteUint64(lexFailed)
		h.WriteString(r.Source)
	}
	return h.Sum().Hex()
}

// lexFailed marks a compile key taken over raw text. Each token
// WriteKey writes opens with a word whose low byte is the token's kind,
// and no kind is 0xff, so the marker never reads as a token.
const lexFailed = ^uint64(0)

// VerdictTag is the part of the verdict key the job decides and the
// module does not: the entry and the outcome-relevant verify
// configuration. Two jobs with one CompileKey and one VerdictTag have
// one verdict key, so a module cache may remember the key by the tag.
func (r *Resolved) VerdictTag() string {
	return r.Entry + "\x00" + verifyDesc(r.Verify.normalized())
}
