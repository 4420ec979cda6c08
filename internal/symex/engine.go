package symex

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"overify/internal/expr"
	"overify/internal/ir"
	"overify/internal/lru"
	"overify/internal/solver"
)

// Options bound a symbolic-execution run.
type Options struct {
	MaxInstrs int64         // 0 = default 100M
	Timeout   time.Duration // 0 = none
	// MaxAssignments bounds total solver assignments tried across the
	// run (0 = unlimited), checked after every solver query. A serial
	// run stops at the same query on every machine — a deterministic
	// work budget where Timeout is a load-dependent one.
	MaxAssignments int64
	Solver         solver.Options
	// Workers is never read: an engine explores on the calling
	// goroutine. It stays declared only because the frozen
	// benchmark/cold.go sets it; the next change to the benchmark drops
	// it.
	Workers int
	// Warm, when non-nil, is the state this run shares with other runs
	// instead of building its own; nil runs cold.
	Warm *Warm
	// Checks restricts which OpCheck kinds the run reports (the
	// per-property verify mode); the zero value keeps all of them.
	// Skipped checks neither report bugs nor constrain the path — the
	// path continues as if the check were absent, exactly matching a
	// program sliced for the same subset.
	Checks ir.CheckSet
}

// Warm is what a long-lived process keeps between runs: the hash-consed
// expression DAG and the solver's decided groups. It is one value
// because the two are only meaningful together — a cache's keys are
// fingerprints of builder-local node ids, so a Cache consulted under
// any Builder but the one that filled it answers wrongly, not slowly.
// Build both with NewWarm and retire both together. The builder is the
// concurrent kind: every run sharing a Warm interns through it, and a
// daemon runs several at once.
type Warm struct {
	Builder *expr.Builder
	Cache   *solver.Cache
}

// NewWarm returns empty warm state.
func NewWarm() *Warm {
	return &Warm{Builder: expr.NewConcurrentBuilder(), Cache: solver.NewCache()}
}

// BugKind classifies a found defect.
type BugKind int

// Bug kinds the engine detects natively (KLEE-style) plus explicit
// runtime-check failures.
const (
	BugDivByZero BugKind = iota
	BugNullDeref
	BugOutOfBounds
	BugCheckFailed
	BugAssertFailed
	BugUnreachable
	BugStoreConst
	BugPtrDomain
)

var bugNames = [...]string{
	"division by zero", "null dereference", "out-of-bounds access",
	"check failed", "assertion failed", "unreachable executed",
	"write to constant", "pointer domain error",
}

// String returns the bug class description.
func (k BugKind) String() string {
	if int(k) < len(bugNames) {
		return bugNames[k]
	}
	return "bug?"
}

// Bug is one defect found during exploration, with a concrete input that
// triggers it (the paper's "better error reports ... closer to their
// root cause").
type Bug struct {
	Kind  BugKind
	Msg   string
	Where string
	Input []byte // concrete symbolic-input bytes reproducing the bug
}

// Stats aggregates the engine's work; Table 1's t_verify, #instructions
// and #paths columns come from here.
type Stats struct {
	Paths          int64 // completed paths (returned from the entry fn)
	ErrorPaths     int64 // paths terminated by a bug
	TruncatedPaths int64 // paths killed by limits
	Forks          int64
	Instrs         int64 // instructions interpreted across all paths
	ChecksSkipped  int64 // OpChecks outside Options.Checks, passed over
	StatesExplored int64 // states whose execution began (initial + resumed forks)
	CoveredBlocks  int   // distinct basic blocks executed on some path
	MaxLiveStates  int
	SolverStats    solver.Stats // summed over Split's solver and the run's
	SharedCache    lru.Stats    // the query cache the solvers share
	Elapsed        time.Duration
	TimedOut       bool

	// Verdict-store counters, set by the re-verify driver (the engine
	// itself leaves them zero): VerdictCacheHits counts merged reports
	// served from the content-addressed store, SkippedFuncVerifies the
	// per-function explorations those hits avoided.
	VerdictCacheHits    int64
	SkippedFuncVerifies int64
}

// TotalPaths is completed + errored + truncated.
func (s *Stats) TotalPaths() int64 { return s.Paths + s.ErrorPaths + s.TruncatedPaths }

// Report is the result of one run.
type Report struct {
	Stats Stats
	Bugs  []Bug
}

// Verdict is what a run lets its user conclude.
type Verdict int

const (
	Verified     Verdict = iota // every path ran to completion and none failed a check
	Bugs                        // every path ran to completion and some failed a check
	Inconclusive                // some path or query was not decided: its bugs, if any, are real, its "none" is not
)

func (v Verdict) String() string {
	return [...]string{"verified", "bugs", "inconclusive"}[v]
}

// Verdict reads the report's verdict and, when it is Inconclusive, why:
// the run timed out, truncated paths, or left solver queries undecided
// (a path may then be infeasible, or a branch whose sides were both
// undecided followed one side only).
func (r *Report) Verdict() (Verdict, []string) {
	var why []string
	if r.Stats.TimedOut {
		why = append(why, "timed out")
	}
	if n := r.Stats.TruncatedPaths; n > 0 {
		why = append(why, fmt.Sprintf("truncated paths: %d", n))
	}
	if n := r.Stats.SolverStats.Failures; n > 0 {
		why = append(why, fmt.Sprintf("undecided solver queries: %d", n))
	}
	switch {
	case why != nil:
		return Inconclusive, why
	case len(r.Bugs) > 0:
		return Bugs, nil
	}
	return Verified, nil
}

// Engine symbolically executes one module. One Engine runs one
// exploration, on the calling goroutine; several engines may run at
// once over one module and one Warm, each with its own counters and
// coverage.
type Engine struct {
	Mod  *ir.Module
	B    *expr.Builder
	opts Options

	cache     *solver.Cache // shared by Split's solver and the run's
	layouts   map[*ir.Function]*frameLayout
	globals   []*MemObject         // the module's globals, numbered in module order
	globalNum map[*ir.Global]int32 // a global's number
	byName    []int32              // global numbers in name order, the codec's order
	buffers   [][]page             // cells of the entry buffers, numbered after the globals
	inputVars []*expr.Var          // ordered; used to concretize bug inputs
	deadline  time.Time
	maxStates int // queued states beyond this many are evicted as truncated

	// Split-phase residue: solver work and bugs accumulated by Split's
	// breadth-first prefix driver, merged into the final report by
	// RunStates (local continuation) or PartialReport (the distributed
	// coordinator, whose frontier runs in other processes).
	splitStats solver.Stats
	splitBugs  []Bug

	nextState     int64
	paths         int64
	errorPaths    int64
	truncated     int64
	forks         int64
	instrs        int64 // instructions of the workers that have finished
	checksSkipped int64
	explored      int64 // states whose execution began
	covered       int64 // distinct blocks executed (the layouts' coverage bits set)
	timedOut      bool
	stopped       bool // a limit fired: the worker bails out
}

// maxStates caps the queued states of a run.
const maxStates = 1_000_000

// NewEngine prepares an engine over mod.
func NewEngine(mod *ir.Module, opts Options) *Engine {
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 100_000_000
	}
	// A cold run gets the unsynchronized builder: the per-expression
	// interning path is too hot to pay a concurrency tax nothing needs.
	warm := opts.Warm
	if warm == nil {
		warm = &Warm{Builder: expr.NewBuilder(), Cache: solver.NewCache()}
	}
	e := &Engine{
		Mod:       mod,
		B:         warm.Builder,
		cache:     warm.Cache,
		layouts:   make(map[*ir.Function]*frameLayout, len(mod.Funcs)),
		opts:      opts,
		maxStates: maxStates,
	}
	for i, fn := range mod.Funcs {
		e.layouts[fn] = newFrameLayout(fn)
		e.layouts[fn].id = i
	}
	e.globalNum = make(map[*ir.Global]int32, len(mod.Globals))
	for n, g := range mod.Globals {
		e.globals = append(e.globals, &MemObject{Name: "@" + g.Name, Elem: g.Elem, Count: g.Count, ReadOnly: g.ReadOnly, num: int32(n)})
		e.globalNum[g] = int32(n)
		e.byName = append(e.byName, int32(n))
	}
	slices.SortStableFunc(e.byName, func(a, b int32) int { return cmp.Compare(mod.Globals[a].Name, mod.Globals[b].Name) })
	return e
}

// newFrame builds fn's activation record, entered from caller, with
// every register unassigned.
func (e *Engine) newFrame(fn *ir.Function, caller *ir.Instr) *Frame {
	lay := e.layouts[fn]
	return &Frame{Fn: fn, Block: fn.Entry(), Regs: make([]SymVal, len(lay.allocas)), Caller: caller, lay: lay}
}

// NewState builds the initial state with fresh global storage and the
// entry buffers made so far. A read-only global's cells are built once
// per engine, by the first state, and shared.
func (e *Engine) NewState() *State {
	st := &State{nobj: int32(len(e.globals) + len(e.buffers))}
	for n, g := range e.Mod.Globals {
		o := e.globals[n]
		if o.ReadOnly && o.pages != nil {
			continue
		}
		cells := make([]SymVal, g.Count)
		bits := g.Elem.(ir.IntType).Bits
		for i := range cells {
			var v uint64
			if i < len(g.Init) {
				v = g.Init[i]
			}
			cells[i] = SymVal{E: e.B.Const(bits, v)}
		}
		if o.ReadOnly {
			o.pages = paginate(cells)
		} else {
			st.install(o.num, paginate(cells), false)
		}
	}
	for i, pages := range e.buffers {
		st.install(int32(len(e.globals)+i), pages, true) // every new state starts from these cells
	}
	return st
}

// buffer makes an entry-argument object over cells. Every state NewState
// builds afterwards holds it, so make buffers before the run's first
// state.
func (e *Engine) buffer(name string, cells []SymVal) SymVal {
	o := &MemObject{Name: name, Elem: ir.I8, Count: int64(len(cells)), num: int32(len(e.globals) + len(e.buffers))}
	e.buffers = append(e.buffers, paginate(cells))
	return SymVal{E: e.B.Const(64, 0), Obj: o}
}

// SymbolicBuffer creates an i8 object of n symbolic bytes; when
// nulTerminated, one extra concrete NUL cell is appended (the paper's
// "up to N characters" convention: any byte may be NUL, and byte N
// certainly is).
func (e *Engine) SymbolicBuffer(name string, n int, nulTerminated bool) SymVal {
	count := n
	if nulTerminated {
		count++
	}
	cells := make([]SymVal, count)
	for i := 0; i < n; i++ {
		v := &expr.Var{Name: fmt.Sprintf("%s[%d]", name, i), Bits: 8, Idx: len(e.inputVars)}
		node := e.B.Var(v)
		// Track the node's canonical *Var, not the candidate: on a
		// builder shared across runs the name may already be interned,
		// and solver models are keyed by the canonical pointer.
		e.inputVars = append(e.inputVars, node.V)
		cells[i] = SymVal{E: node}
	}
	if nulTerminated {
		cells[n] = SymVal{E: e.B.Const(8, 0)}
	}
	return e.buffer(name, cells)
}

// InputArgs builds the arguments of the corpus entry convention
// `int f(unsigned char *input, int len)`: an n-byte symbolic
// NUL-terminated buffer named "input" and its concrete length — the
// KLEE coreutils setup of §4.
func (e *Engine) InputArgs(n int) []SymVal {
	return []SymVal{e.SymbolicBuffer("input", n, true), e.IntArg(ir.I32, uint64(n))}
}

// SymbolicInt creates a fresh symbolic value of the given integer type,
// backed by an 8-bit input variable zero-extended as needed (the solver
// works over byte domains).
func (e *Engine) SymbolicInt(name string, t ir.IntType) SymVal {
	v := &expr.Var{Name: name, Bits: 8, Idx: len(e.inputVars)}
	x := e.B.Var(v)
	e.inputVars = append(e.inputVars, x.V)
	if t.Bits > 8 {
		return SymVal{E: e.B.Cast(ir.OpZExt, x, t.Bits)}
	}
	return SymVal{E: x}
}

// IntArg wraps a concrete integer argument.
func (e *Engine) IntArg(t ir.IntType, v uint64) SymVal {
	return SymVal{E: e.B.Const(t.Bits, v)}
}

// Run explores fn(args) exhaustively from the given initial state (pass
// nil for a fresh one) and returns the report.
func (e *Engine) Run(fnName string, args []SymVal, init *State) (*Report, error) {
	st, err := e.initialState(fnName, args, init)
	if err != nil {
		return nil, err
	}
	return e.RunStates([]*State{st}), nil
}

// initialState validates the entry function and builds the run's first
// state: args bound to params, control at the entry block.
func (e *Engine) initialState(fnName string, args []SymVal, init *State) (*State, error) {
	fn := e.Mod.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("symex: no function %q", fnName)
	}
	if fn.IsDeclaration() {
		return nil, fmt.Errorf("symex: %q has no body", fnName)
	}
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("symex: %s takes %d args, got %d", fnName, len(fn.Params), len(args))
	}
	if init == nil {
		init = e.NewState()
	}
	frame := e.newFrame(fn, nil)
	frame.base = init.nobj
	copy(frame.Regs, args)
	init.Frames = append(init.Frames, frame)
	return init, nil
}

// armDeadline starts the wall-clock budget on first use; Split and
// RunStates share one deadline however the run is phased.
func (e *Engine) armDeadline() {
	if e.opts.Timeout > 0 && e.deadline.IsZero() {
		e.deadline = time.Now().Add(e.opts.Timeout)
	}
}

// RunStates explores the given frontier states to completion,
// depth-first on the calling goroutine, and returns the report,
// including any split-phase work this engine accumulated earlier. It is
// Run's engine room, and the entry point a distributed worker process
// feeds decoded remote states into.
func (e *Engine) RunStates(states []*State) *Report {
	start := time.Now()
	e.armDeadline()

	s := &stack{max: e.maxStates}
	e.truncated += s.push(states, 0)
	w := e.newWorker()
	w.run(s)
	// A limit that fired between paths leaves states queued.
	e.truncated += s.drain()

	solverStats := w.finish()
	stats := e.snapshot()
	stats.SolverStats.Add(solverStats)
	stats.MaxLiveStates = s.maxLive
	stats.Elapsed = time.Since(start)
	return &Report{Stats: stats, Bugs: mergeBugs(append(append([]Bug(nil), e.splitBugs...), w.bugs...))}
}

// Split executes a bounded breadth-first prefix of fn(args)'s
// exploration and returns the pending frontier once it holds at least
// want states (or the program exhausts first, returning fewer). The
// distributed coordinator uses it to shard one verification across
// worker processes: the prefix's completed paths, bugs, and solver work
// stay in this engine (PartialReport), and every returned state can be
// shipped elsewhere (EncodeStates) — each branch decision still happens
// exactly once somewhere, which is what keeps the merged totals equal
// to a serial run's.
func (e *Engine) Split(fnName string, args []SymVal, init *State, want int) ([]*State, error) {
	st, err := e.initialState(fnName, args, init)
	if err != nil {
		return nil, err
	}
	e.armDeadline()
	w := e.newWorker()
	queue := []*State{st}
	for len(queue) > 0 && len(queue) < want {
		cur := queue[0]
		queue = queue[1:]
		e.explored++
		stop, forked := w.step(cur)
		if stop {
			// A limit fired during the prefix: everything still queued
			// is truncated, and so is the state being run.
			e.stopped = true
			e.truncated += int64(len(queue)) + 1
			queue = nil
			break
		}
		queue = append(queue, forked...)
		if len(forked) == 0 {
			w.drop(cur)
		}
	}
	e.splitStats.Add(w.finish())
	e.splitBugs = append(e.splitBugs, w.bugs...)
	return queue, nil
}

// PartialReport snapshots the work this engine has done so far — the
// split-phase prefix — without running a frontier. The distributed
// coordinator merges it with the worker processes' reports; the sum
// equals a serial run because every path is finished exactly once,
// either here or remotely.
func (e *Engine) PartialReport() *Report {
	return &Report{Stats: e.snapshot(), Bugs: mergeBugs(append([]Bug(nil), e.splitBugs...))}
}

// snapshot reads the engine's counters into a Stats; SolverStats
// starts from the split-phase residue, for the caller to add its
// worker's solver to.
func (e *Engine) snapshot() Stats {
	return Stats{
		Paths:          e.paths,
		ErrorPaths:     e.errorPaths,
		TruncatedPaths: e.truncated,
		Forks:          e.forks,
		Instrs:         e.instrs,
		ChecksSkipped:  e.checksSkipped,
		StatesExplored: e.explored,
		CoveredBlocks:  int(e.covered),
		SolverStats:    e.splitStats,
		SharedCache:    e.cache.Snapshot(),
		TimedOut:       e.timedOut,
	}
}

// newWorker builds a worker: a solver over the engine's cache, bound to
// the run's deadline. Call after armDeadline.
func (e *Engine) newWorker() *worker {
	w := &worker{e: e, B: e.B, sol: solver.NewWithCache(e.opts.Solver, e.cache),
		free: make([][]*Frame, len(e.Mod.Funcs))}
	w.sol.SetDeadline(e.deadline) // zero = none
	return w
}

// CoveredBlockNames returns the sorted "function/block" names of every
// covered block. Coverage is process-local state keyed by block
// numbers, so distributed runs union these names across processes to
// recover the serial run's distinct-block count.
func (e *Engine) CoveredBlockNames() []string {
	var names []string
	for _, fn := range e.Mod.Funcs {
		cov := e.layouts[fn].cov
		for _, b := range fn.Blocks {
			if cov.covered(b) {
				names = append(names, fn.Name+"/"+b.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// MergeReports combines the per-process reports of one sharded run:
// counters sum (each path, instruction and query happened exactly once
// in exactly one process), bug lists go through the same deterministic
// sorted/deduped merge a single process uses, and TimedOut is sticky.
// CoveredBlocks is summed naively — processes can cover the same block
// — so callers that track coverage across processes must overwrite it
// with the size of the CoveredBlockNames union.
func MergeReports(parts ...*Report) *Report {
	var out Report
	var bugs []Bug
	for _, r := range parts {
		if r == nil {
			continue
		}
		out.Stats.Paths += r.Stats.Paths
		out.Stats.ErrorPaths += r.Stats.ErrorPaths
		out.Stats.TruncatedPaths += r.Stats.TruncatedPaths
		out.Stats.Forks += r.Stats.Forks
		out.Stats.Instrs += r.Stats.Instrs
		out.Stats.ChecksSkipped += r.Stats.ChecksSkipped
		out.Stats.StatesExplored += r.Stats.StatesExplored
		out.Stats.CoveredBlocks += r.Stats.CoveredBlocks
		out.Stats.SolverStats.Add(r.Stats.SolverStats)
		if r.Stats.MaxLiveStates > out.Stats.MaxLiveStates {
			out.Stats.MaxLiveStates = r.Stats.MaxLiveStates
		}
		if r.Stats.Elapsed > out.Stats.Elapsed {
			out.Stats.Elapsed = r.Stats.Elapsed
		}
		out.Stats.TimedOut = out.Stats.TimedOut || r.Stats.TimedOut
		bugs = append(bugs, r.Bugs...)
	}
	out.Bugs = mergeBugs(bugs)
	return &out
}

// mergeBugs produces the deterministic, deduplicated bug list: sorted
// by (kind, message, location, input) and collapsed to one report per
// defect site, so the output is reproducible regardless of which
// process found which bug first.
func mergeBugs(bugs []Bug) []Bug {
	slices.SortFunc(bugs, func(a, b Bug) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Msg, b.Msg),
			cmp.Compare(a.Where, b.Where), bytes.Compare(a.Input, b.Input))
	})
	out := bugs[:0]
	for _, b := range bugs {
		if len(out) > 0 {
			last := out[len(out)-1]
			if last.Kind == b.Kind && last.Msg == b.Msg {
				continue
			}
		}
		out = append(out, b)
	}
	return out
}

// satResult is a solver verdict: yes, no, or budget-exhausted unknown.
type satResult int

// Solver verdicts.
const (
	satNo satResult = iota
	satYes
	satUnknown
)
