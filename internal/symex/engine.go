package symex

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"overify/internal/expr"
	"overify/internal/ir"
	"overify/internal/lru"
	"overify/internal/solver"
)

// Options bound a symbolic-execution run.
type Options struct {
	MaxInstrs int64         // 0 = default 100M
	MaxStates int           // live states cap; 0 = default 1M
	Timeout   time.Duration // 0 = none
	// MaxAssignments bounds total solver assignments tried across the
	// run (0 = unlimited), checked after every solver query. A serial
	// run stops at the same query on every machine — a deterministic
	// work budget where Timeout is a load-dependent one.
	MaxAssignments int64
	Solver         solver.Options
	// Workers is the number of exploration workers. 1 (or 0) explores
	// serially; -1 uses one worker per CPU. Workers share one expression
	// builder and one solver cache but hold private solvers and private
	// frontier shards (work-stealing keeps them busy).
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
// concurrent kind: every run and every worker sharing a Warm interns
// through it.
type Warm struct {
	Builder *expr.Builder
	Cache   *solver.Cache
}

// NewWarm returns empty warm state.
func NewWarm() *Warm {
	return &Warm{Builder: expr.NewConcurrentBuilder(), Cache: solver.NewCache()}
}

// effectiveWorkers resolves the Workers option to a concrete count.
func (o Options) effectiveWorkers() int {
	switch {
	case o.Workers < 0:
		return runtime.NumCPU()
	case o.Workers == 0:
		return 1
	default:
		return o.Workers
	}
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
	Workers        int          // exploration workers used
	SolverStats    solver.Stats // summed over all workers
	SharedCache    lru.Stats    // the cross-worker query cache
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
// exploration; the per-run shared pieces (expression builder, solver
// cache, counters) live here, while everything scheduling-dependent
// lives in per-worker state.
type Engine struct {
	Mod  *ir.Module
	B    *expr.Builder
	opts Options

	cache     *solver.Cache // shared across all workers' solvers
	layouts   map[*ir.Function]*frameLayout
	globals   []*MemObject         // the module's globals, numbered in module order
	globalNum map[*ir.Global]int32 // a global's number
	byName    []int32              // global numbers in name order, the codec's order
	buffers   [][]page             // cells of the entry buffers, numbered after the globals
	inputVars []*expr.Var          // ordered; used to concretize bug inputs
	deadline  time.Time

	// Split-phase residue: solver work and bugs accumulated by Split's
	// breadth-first prefix driver, merged into the final report by
	// RunStates (local continuation) or PartialReport (the distributed
	// coordinator, whose frontier runs in other processes). Split runs
	// single-threaded before any worker pool, so plain fields suffice.
	splitStats solver.Stats
	splitBugs  []Bug

	// Cross-worker counters. Paths counters are updated at path
	// granularity (cheap); instruction counts are batched per worker and
	// flushed every instrFlushStride instructions.
	nextState     atomic.Int64
	paths         atomic.Int64
	errorPaths    atomic.Int64
	truncated     atomic.Int64
	forks         atomic.Int64
	instrs        atomic.Int64
	assigns       atomic.Int64 // solver assignments flushed so far (MaxAssignments accounting)
	checksSkipped atomic.Int64
	explored      atomic.Int64 // states whose execution began
	covered       atomic.Int64 // distinct blocks executed (the layouts' coverage bits set)
	timedOut      atomic.Bool
	stopped       atomic.Bool // a global limit fired; all workers bail out
}

// NewEngine prepares an engine over mod.
func NewEngine(mod *ir.Module, opts Options) *Engine {
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 100_000_000
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = 1_000_000
	}
	// A cold serial run gets the unsynchronized builder: the
	// per-expression interning path is too hot to pay a concurrency tax
	// for one worker.
	warm := opts.Warm
	if warm == nil {
		warm = &Warm{Builder: expr.NewBuilder(), Cache: solver.NewCache()}
		if opts.effectiveWorkers() > 1 {
			warm.Builder = expr.NewConcurrentBuilder()
		}
	}
	e := &Engine{
		Mod:     mod,
		B:       warm.Builder,
		cache:   warm.Cache,
		layouts: make(map[*ir.Function]*frameLayout, len(mod.Funcs)),
		opts:    opts,
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
// nil for a fresh one) and returns the report. With Workers > 1 the
// frontier is explored by a worker pool; the verdicts (bug set, path
// counts, instruction count) are independent of the interleaving as
// long as no budget limit fires mid-run.
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

// RunStates explores the given frontier states to completion with the
// configured worker pool and returns the report, including any
// split-phase work this engine accumulated earlier. It is Run's engine
// room, and the entry point a distributed worker process feeds decoded
// remote states into.
func (e *Engine) RunStates(states []*State) *Report {
	start := time.Now()
	e.armDeadline()

	n := e.opts.effectiveWorkers()
	fr := newFrontier(n, e.opts.MaxStates)
	fr.put(0, states)

	workers := make([]*worker, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := e.newWorker(i, fr)
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()
	// Collect truncation residue the workers did not fold in: states
	// still queued when the pool stopped (e.g. published after the
	// stopping worker drained).
	e.truncated.Add(fr.drain())

	stats := e.snapshot()
	stats.MaxLiveStates = fr.maxLive
	stats.Elapsed = time.Since(start)
	bugs := append([]Bug(nil), e.splitBugs...)
	for _, w := range workers {
		stats.SolverStats.Add(w.sol.Stats)
		w.sol.Release()
		bugs = append(bugs, w.bugs...)
	}
	return &Report{Stats: stats, Bugs: mergeBugs(bugs)}
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
	w := e.newWorker(0, nil)
	queue := []*State{st}
	for len(queue) > 0 && len(queue) < want {
		cur := queue[0]
		queue = queue[1:]
		e.explored.Add(1)
		stop, forked := w.step(cur)
		if stop {
			// A global limit fired during the prefix: everything still
			// queued is truncated, exactly as the worker pool would record.
			e.requestStop()
			e.truncated.Add(int64(len(queue)) + int64(len(forked)) + 1)
			queue = nil
			break
		}
		queue = append(queue, forked...)
		if len(forked) == 0 {
			w.drop(cur)
		}
	}
	w.flushInstrs()
	e.splitStats.Add(w.sol.Stats)
	w.sol.Release()
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

// snapshot reads the engine-wide counters into a Stats; SolverStats
// starts from the split-phase residue, for the caller to add its
// workers' solvers to.
func (e *Engine) snapshot() Stats {
	return Stats{
		Paths:          e.paths.Load(),
		ErrorPaths:     e.errorPaths.Load(),
		TruncatedPaths: e.truncated.Load(),
		Forks:          e.forks.Load(),
		Instrs:         e.instrs.Load(),
		ChecksSkipped:  e.checksSkipped.Load(),
		StatesExplored: e.explored.Load(),
		CoveredBlocks:  int(e.covered.Load()),
		Workers:        e.opts.effectiveWorkers(),
		SolverStats:    e.splitStats,
		SharedCache:    e.cache.Snapshot(),
		TimedOut:       e.timedOut.Load(),
	}
}

// newWorker builds one exploration worker: a private solver over the
// shared cache, bound to the run's deadline. Call after armDeadline.
func (e *Engine) newWorker(id int, fr *frontier) *worker {
	w := &worker{e: e, id: id, B: e.B, fr: fr, sol: solver.NewWithCache(e.opts.Solver, e.cache),
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
		out.Stats.Workers += r.Stats.Workers
		out.Stats.TimedOut = out.Stats.TimedOut || r.Stats.TimedOut
		bugs = append(bugs, r.Bugs...)
	}
	out.Bugs = mergeBugs(bugs)
	return &out
}

// mergeBugs produces the deterministic, deduplicated bug list: sorted
// by (kind, message, location, input) and collapsed to one report per
// defect site, so the output is reproducible regardless of which worker
// found which bug first.
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

// requestStop asks every worker to bail out at its next limit check.
func (e *Engine) requestStop() { e.stopped.Store(true) }

// satResult is a solver verdict: yes, no, or budget-exhausted unknown.
type satResult int

// Solver verdicts.
const (
	satNo satResult = iota
	satYes
	satUnknown
)
