// Package core is the facade tying the tool chain together: parse MiniC,
// link a libc variant, optimize at a level (the -OVERIFY switch lives
// here), then execute concretely or verify symbolically. The public root
// package overify re-exports this API.
package core

import (
	"fmt"

	"overify/internal/coreutils"
	"overify/internal/frontend"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/lang"
	"overify/internal/libc"
	"overify/internal/pipeline"
	"overify/internal/symex"
	"overify/internal/verdicts"
)

// Compiled is a program compiled at a specific optimization level with a
// specific libc variant.
type Compiled struct {
	Name   string
	Mod    *ir.Module
	Level  pipeline.Level
	Libc   libc.Kind
	Result *pipeline.Result

	// PipelineDesc identifies how the module was produced — level,
	// rendered pass pipeline, the checks= and ranges= switches, libc
	// variant. It is the compilation half of the verdict store's content
	// key; empty (a Compiled assembled by hand rather than compiled here)
	// disables verdict caching for it.
	PipelineDesc string
}

// DefaultLibc returns the library variant a level links by default:
// -OVERIFY ships its own verification-friendly libc (§3), everything
// else uses the uclibc-style baseline (as KLEE does).
func DefaultLibc(level pipeline.Level) libc.Kind {
	if level == pipeline.OVerify {
		return libc.Verified
	}
	return libc.Uclibc
}

// CompileSource parses src, links the libc variant, and optimizes at the
// given level.
func CompileSource(name, src string, level pipeline.Level, lk libc.Kind) (*Compiled, error) {
	cfg := pipeline.LevelConfig(level)
	return CompileWithConfig(name, src, cfg, lk)
}

// lower parses src and lowers it, linked against the libc variant, into
// one unoptimized module. libc.Parse hands back the process-wide archive
// AST, so only the members src references are lowered.
func lower(name, src string, lk libc.Kind) (*ir.Module, error) {
	progFile, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	libFile, err := libc.Parse(lk)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", lk, err)
	}
	mod, err := frontend.LowerFiles(name, libFile, progFile)
	if err != nil {
		return nil, fmt.Errorf("lower %s: %w", name, err)
	}
	return mod, nil
}

// CompileWithConfig is CompileSource with an explicit pipeline config
// (custom cost models, checks toggles, per-pass verification).
func CompileWithConfig(name, src string, cfg pipeline.Config, lk libc.Kind) (*Compiled, error) {
	mod, err := lower(name, src, lk)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.Optimize(mod, cfg)
	if err != nil {
		return nil, fmt.Errorf("optimize %s at %s: %w", name, cfg.Level, err)
	}
	// The slice configuration needs no fields of its own: the rendered
	// spec contains the slice/loopsummary stages, annotated with the
	// kept-check subset when it is not "all". The checks= and ranges=
	// fields predate the spec holding those stages; they stay, so that
	// stored verdicts and pinned keys remain valid; ranges= names
	// annotations the compiler no longer has.
	ov := cfg.Level == pipeline.OVerify
	desc := fmt.Sprintf("level=%s|pipeline=%s|checks=%v|ranges=%v|libc=%s",
		cfg.Level, res.Spec, ov, ov, lk)
	return &Compiled{Name: name, Mod: mod, Level: cfg.Level, Libc: lk, Result: res, PipelineDesc: desc}, nil
}

// CompileProgram compiles a corpus program with the level's default libc.
func CompileProgram(p coreutils.Program, level pipeline.Level) (*Compiled, error) {
	return CompileSource(p.Name, p.Src, level, DefaultLibc(level))
}

// RunResult is the outcome of one concrete execution.
type RunResult struct {
	Exit   int64
	Output []byte
	Stats  interp.Stats
}

// Run executes fn(input, len(input)) concretely on the reference
// interpreter and collects the bytes written to the libc OUT sink.
func (c *Compiled) Run(fn string, input []byte) (*RunResult, error) {
	m := interp.NewMachine(c.Mod, interp.Options{})
	buf := interp.ByteObject("input", append(append([]byte{}, input...), 0))
	ret, err := m.Call(fn,
		interp.PtrVal(buf, 0),
		interp.IntVal(ir.I32, uint64(len(input))))
	if err != nil {
		return nil, err
	}
	return &RunResult{Exit: ir.SignExtend(32, ret.Bits), Output: libc.ReadOut(m.GlobalData), Stats: m.Stats}, nil
}

// VerifyOptions configure symbolic verification.
type VerifyOptions struct {
	// InputBytes is the symbolic input size (the paper uses 2–10).
	InputBytes int
	// Engine options (timeouts, limits).
	Engine symex.Options
	// Verdicts, when non-nil, is consulted before exploring: if the
	// store holds an outcome for this exact content key (reachable IR +
	// pipeline + verify config) the stored merged report is returned
	// without running the engine, and deterministic outcomes of cold
	// runs are persisted for next time.
	Verdicts *verdicts.Store
}

// normalized applies the input-size default, so the content key and the
// run agree on the effective configuration.
func (opts VerifyOptions) normalized() VerifyOptions {
	if opts.InputBytes <= 0 {
		opts.InputBytes = 4
	}
	return opts
}

// verifyDesc renders the outcome-relevant verify configuration for the
// content key. Budgets and limits can change a stored outcome, so they
// are in.
func verifyDesc(opts VerifyOptions) string {
	// maxpaths=0, maxstates=0, cover=0, maxnodes=0 and history=0 stay in
	// the key, though no path cap, state cap, coverage target, node
	// bound or history length can be set any more, so that stored
	// verdicts and pinned keys remain valid.
	return fmt.Sprintf("entrybytes=%d|maxpaths=0|maxinstrs=%d|maxstates=0|cover=0|maxnodes=0|maxwork=%d|history=0|verifychecks=%s",
		opts.InputBytes, opts.Engine.MaxInstrs,
		opts.Engine.Solver.MaxWork, opts.Engine.Checks)
}

// VerdictKey computes the content key Verify would use for fn under
// opts, and whether verdict caching applies to this compile at all.
func (c *Compiled) VerdictKey(fn string, opts VerifyOptions) (verdicts.Key, bool) {
	opts = opts.normalized()
	if c.PipelineDesc == "" {
		return "", false
	}
	return verdicts.KeyFor(c.Mod, fn, c.PipelineDesc, verifyDesc(opts))
}

// ModuleKey identifies the module for a run from entry: the verdict
// key's hash of the IR reachable from entry and of PipelineDesc,
// without the verify half. A cluster coordinator sends it with every
// shard, and a worker whose own compile has another key refuses the
// shard, since the state codec names IR by position.
func (c *Compiled) ModuleKey(entry string) string {
	k, _ := verdicts.KeyFor(c.Mod, entry, c.PipelineDesc)
	return string(k)
}

// Verify explores fn(input, n) exhaustively with an n-byte symbolic
// NUL-terminated input, the KLEE coreutils setup of §4. With a verdict
// store attached it becomes the incremental re-verify path: unchanged
// content is answered from the store (VerdictCacheHits and
// SkippedFuncVerifies count the skipped work), and fresh deterministic
// outcomes are persisted.
func (c *Compiled) Verify(fn string, opts VerifyOptions) (*symex.Report, error) {
	var key verdicts.Key
	if opts.Verdicts != nil {
		key, _ = c.VerdictKey(fn, opts)
	}
	return c.VerifyKeyed(fn, opts, key)
}

// VerifyKeyed is Verify under a verdict key the caller already
// computed with VerdictKey; an empty key runs uncached.
func (c *Compiled) VerifyKeyed(fn string, opts VerifyOptions, key verdicts.Key) (*symex.Report, error) {
	opts = opts.normalized()
	keyed := key != "" && opts.Verdicts != nil
	if keyed {
		if e, ok := opts.Verdicts.Get(key); ok {
			rep := e.Report()
			rep.Stats.VerdictCacheHits = 1
			rep.Stats.SkippedFuncVerifies = 1
			return rep, nil
		}
	}
	eng := symex.NewEngine(c.Mod, opts.Engine)
	rep, err := eng.Run(fn, eng.InputArgs(opts.InputBytes), nil)
	if err == nil && keyed && verdicts.Cacheable(rep) {
		// Best-effort: a failed write only loses warmth.
		_ = opts.Verdicts.Put(key, verdicts.FromReport(key, c.Name, fn, c.Level.String(), rep))
	}
	return rep, err
}
