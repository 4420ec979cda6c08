// Package solver decides satisfiability of path constraints over
// symbolic input bytes. It is the reproduction's stand-in for the STP
// solver KLEE uses, scoped to the workload the paper evaluates: bitvector
// constraints over small byte-wide inputs (2–10 symbolic bytes).
//
// The decision procedure is exact: constraints are partitioned into
// independent groups (KLEE's independence optimization), each group is
// solved by backtracking search over per-byte domains with forward
// checking, and results are cached per group (KLEE's counterexample
// cache). Forward checking works on live variables: a constraint is
// filtered as soon as one unassigned byte is left among those it still
// reads, where a select whose condition the assignment decides reads
// only its chosen arm, and an and, or or mul that one known side
// decides reads nothing (compile.go). Model reuse is attempted before
// any search: if a recently produced model satisfies the whole query,
// no search happens at all —
// and since the query is its parent condition plus one constraint, only
// that constraint is evaluated (modelSatisfies).
//
// The search pays only for the constraints a branch added, where that
// is exact. For a satisfiable group over one variable the unary filter
// leaves the group's whole solution set in the byte's domain, and the
// decided entry stores it (256 bits beside {sat, model}, in the shared
// cache). For any satisfiable group whose value-set propagation
// converged, the entry also stores that fixpoint: every slot's value
// sets and every variable's domain, one byte slice. A later group looks
// up the prefixes of its own constraint list in the cache, longest
// first (Solver.carried, Solver.search). Over one variable it filters
// only the constraints after the first prefix that holds a set, starting
// from that set: no propagation on that path, the filter over the
// surviving values is already exact, and value-set propagation over a
// narrow domain costs more than it saves; same verdict, model and stored
// set as the from-scratch search, fewer assignments. Over several it
// resumes propagation from the first prefix that holds a fixpoint taken
// in the same constraint order, re-running only the steps the later
// constraints reach: the same domains as a run from scratch, so the same
// search and the same assignments (propagate.go). The prefix and not the
// parent, because model reuse answers most branch sides without deciding
// their groups, so the parent is usually undecided while an ancestor a
// few constraints back is not.
//
// A propagation over several variables that converges without a verdict
// gets one exact step more before the search: refutation by cases. One
// slot whose feasible set holds 2 to 4 values is split, and propagation
// resumes from the fixpoint once per value; when every case ends unsat,
// so does the group, with no search (basename's "last slash" groups,
// which the search used to prove unsat value by value). Otherwise the
// fixpoint is restored and the search runs as it would have
// (propagate.go).
//
// The per-query constant factors are engineered away: variable sets are
// interned on expression nodes at construction (expr.VarSet), the
// independence partition is carried incrementally across a growing path
// condition (Partition), groups are keyed by fixed-size fingerprints
// instead of strings, and the backtracking search runs each group as a
// compiled flat tape (compile.go) rather than a memoized tree walk: one
// scalar evaluator for the values it commits, one column evaluator for
// the unary filter, which asks about every value of a byte at once
// (column.go). Comparisons, the commonest slots, are decided by bounds in
// both of the solver's kernels: propagation and the filter answer a
// comparison from the other side's extremes and membership, not by
// enumerating pairs, with the same sets, domains and charges
// (cmpkernel.go). Tape, columns, propagation sets and DFS stacks are the
// solver's own scratch: a warm solver's search allocates what it returns,
// and a released solver's scratch is the next solver's (Release).
//
// The search also skips the evaluations whose answer it already has,
// each skip exact: value-set propagation re-runs a slot's step only when one
// of its inputs changed since the step last ran (stamps, propagate.go),
// in a run resumed from a prefix's fixpoint as in one from scratch;
// sibling values are assigned over one another, one watch-list walk
// each; and the forward check after binding a byte skips the
// constraints that do not mention it, which an ancestor node filtered by
// under the same assignment. Verdicts, models and counters are those of
// the search that evaluates everything.
package solver

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"time"

	"overify/internal/expr"
	"overify/internal/freelist"
)

// The solver's fixed limits. A test that needs another value sets the
// Solver field that holds it.
const (
	// maxNodes bounds backtracking nodes per query.
	maxNodes = 65_536
	// modelHistory is how many recent models are tried for reuse.
	modelHistory = 8
	// portfolioStall is the assignment budget the default configuration
	// gets before a portfolio race starts; groups that decide within it
	// never pay for a race.
	portfolioStall = 4096
)

// Options bound the solver's work.
type Options struct {
	// MaxWork bounds assignments tried per query (default 8,000,000):
	// every value bound by the backtracking search counts one unit, and
	// the unary filter counts one per value of the forward-checked domain
	// per constraint it checks — a constraint whose one open live
	// variable is that byte — whether that constraint is evaluated or,
	// not mentioning the variable just bound, known to hold already
	// (searchTape skips evaluating it, not paying for it). Assignments are
	// a pure function of the search tree, so a group's verdict does not
	// depend on how constraints are evaluated — an evaluator that
	// charges differently per probe (the legacy memoized tree walk vs
	// the compiled tape) cannot flip a decided group to ErrBudget.
	//
	// A single-variable group searched from a carried solution set
	// (Solver.carried) is charged for the values in that set once per
	// constraint after the prefix, plus one — at most 257 when the prefix
	// is the parent, against 256 per constraint from scratch — so under
	// any budget that admits the from-scratch search of a byte it cannot
	// fail on MaxWork. The charge is not always lower: that path does
	// not propagate, so the few such queries propagation used to close
	// without trying a value now pay the filter over the set.
	MaxWork int64
	// Portfolio, when > 1, races that many diverse search configurations
	// (distinct value orders and variable tie-breaks, portfolio.go) on
	// any group whose default-configuration search stalls past
	// portfolioStall assignments. The race is time-sliced by assignment
	// budget in a fixed rotation, so the winner — and every counter — is
	// a pure function of the group, identical on every machine. 0 or 1
	// disables the portfolio (the default): single fixed-order search.
	Portfolio int
}

// Stats counts solver work across a run; t_verify is dominated by these.
type Stats struct {
	Queries        int64
	CacheHits      int64 // group verdicts answered by the shared cache
	ModelReuseHits int64
	Sat            int64
	Unsat          int64
	Failures       int64 // budget exhaustion
	Nodes          int64 // backtracking nodes explored
	Assignments    int64 // candidate values tried (probes + bindings), the budget currency
	TapeCompiles   int64 // groups compiled to evaluation tapes (searches run)
	// TapeReuses and PartitionHits are never incremented: the tape
	// cache and the verdict carried on partition groups that they
	// counted are gone (the shared cache answers those groups, in
	// CacheHits). They stay declared only because benchmark/cold.go,
	// which a non-benchmark PR may not edit, reads them; the next
	// benchmark PR drops them together with the solver.tape_reuses and
	// solver.partition_hits metrics.
	TapeReuses     int64
	PartitionHits  int64
	TapeSlots      int64 // total slots across compiled tapes
	PortfolioRaces int64 // groups that stalled past portfolioStall and entered a race
	PortfolioWins  int64 // races a non-default configuration answered first
	MaxGroupVars   int
}

// Add accumulates o into s; the engine sums Split's solver and its
// worker's with it, and MergeReports every process's.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.CacheHits += o.CacheHits
	s.ModelReuseHits += o.ModelReuseHits
	s.Sat += o.Sat
	s.Unsat += o.Unsat
	s.Failures += o.Failures
	s.Nodes += o.Nodes
	s.Assignments += o.Assignments
	s.TapeCompiles += o.TapeCompiles
	s.TapeSlots += o.TapeSlots
	s.PortfolioRaces += o.PortfolioRaces
	s.PortfolioWins += o.PortfolioWins
	if o.MaxGroupVars > s.MaxGroupVars {
		s.MaxGroupVars = o.MaxGroupVars
	}
}

// ErrBudget is returned when a query exceeds the node budget.
var ErrBudget = errors.New("solver: node budget exhausted")

// CaptureQuery, when non-nil, receives every constant-filtered query the
// solver decides. Benchmark harnesses set it (from a serial run) to
// capture corpus-shaped path conditions; production leaves it nil.
var CaptureQuery func(q []*expr.Expr)

var errTooWide = errors.New("solver: variable wider than 8 bits")

// errDeadline is an attempt that ended on the wall-clock deadline, not on
// a budget: search reports it as ErrBudget, the portfolio tells the two
// apart (a stall starts a race, a deadline ends the query).
var errDeadline = errors.New("solver: deadline passed")

// cacheEntry is a group's decided verdict. For a satisfiable group it
// also holds what a later search of an extension of the group starts
// from (Solver.carried): over one variable, the group's exact solution
// set — what the unary filter left of the byte's domain; and when the
// search propagated, the fixpoint that propagation converged on
// (propagator.snapshot).
type cacheEntry struct {
	sat   bool
	model expr.Model
	set   domain // single-variable sat groups only; zero otherwise
	prop  []byte // sat groups whose propagation converged; nil otherwise
}

// recentModel is a remembered model: a private copy, never written
// again, under a process-unique serial that partition memos key on.
type recentModel struct {
	serial uint64
	model  expr.Model
}

// modelSerials is the process-wide source of model serials. A solver
// draws a block at a time, so its own recent models stay consecutive
// (one memo word covers a window of consecutive serials) no matter how
// many other solvers are remembering models meanwhile.
var modelSerials atomic.Uint64

const serialBlock = 1024

// Solver decides queries and caches results. Not safe for concurrent
// use; create one per engine worker. Solvers may share a Cache (see
// NewWithCache) — the cache layer is concurrency-safe, the search and
// model-reuse state is not.
type Solver struct {
	opts Options
	// maxNodes, history and stall hold the package's fixed limits
	// (maxNodes, modelHistory, portfolioStall); only tests change them.
	maxNodes int64
	history  int
	stall    int64
	Stats    Stats
	cache    *Cache
	recent   []recentModel
	// reuseEvals counts the constraints modelSatisfies evaluated (test
	// instrumentation: the probe must stay O(1) per model per branch).
	reuseEvals int64
	// commitEvals counts the slots assign and unassign evaluated (test
	// instrumentation: a binding re-evaluates only what it changes).
	commitEvals int64
	// propEvals counts the slots value-set propagation evaluated, case
	// runs aside (test instrumentation: an extension re-propagates only
	// what it changes).
	propEvals int64
	// caseSplits, caseRuns and caseRefuted count refutation by cases
	// (test instrumentation): the converged runs split, the cases run and
	// the groups every case refuted.
	caseSplits, caseRuns, caseRefuted int64
	// serial is the last model serial handed out.
	serial   uint64
	deadline time.Time
	*searchStore
}

// searchStore is the storage a solver reuses from query to query, and
// from solver to solver: Release lists it, and NewWithCache takes a
// listed one before it makes one. Buffers sized by the jobs before are
// then refilled, not allocated again.
type searchStore struct {
	// scratch is the compile/evaluation buffer set reused across the
	// solver's searches (solvers are single-goroutine); prop is value-set
	// propagation's storage and rest/saved the DFS's per-depth stacks, on
	// the same terms.
	scratch tapeScratch
	prop    propagator
	rest    []int32
	saved   []domain
	// decided is SatPartition's scratch: the entries of the groups it
	// has decided so far in the current query. pending is
	// modelSatisfies'.
	decided []*cacheEntry
	pending []*reuseNode
	// reuseEval evaluates constraints under a remembered model.
	reuseEval *expr.Evaluator
}

// stores lists the search storage of released solvers.
var stores freelist.List[searchStore]

// drop clears every pointer the storage holds into a module's
// expression DAG — a tape's variables and tables, the compile's slot
// map, the propagator's tape and domains, the decided entries, the
// reuse probe's partitions and the evaluator's model and memo — so a
// listed store keeps no module alive.
func (st *searchStore) drop() {
	t := &st.scratch.t
	clear(t.vars[:cap(t.vars)])
	clear(t.ops[:cap(t.ops)])
	clear(st.scratch.slotOf)
	st.prop.t, st.prop.domains = nil, nil
	clear(st.decided[:cap(st.decided)])
	clear(st.pending[:cap(st.pending)])
	st.reuseEval.Reset()
}

// Release lists the solver's search storage for the next solver
// NewWithCache makes. Its Stats stay readable; no query may be asked of
// it afterwards.
func (s *Solver) Release() {
	st := s.searchStore
	if st == nil {
		return
	}
	s.searchStore = nil
	st.drop()
	stores.Put(st)
}

// New returns a solver with the given options and a private cache.
func New(opts Options) *Solver {
	return NewWithCache(opts, NewCache())
}

// NewWithCache returns a solver layered over a shared query cache. The
// parallel engine creates one Cache per run and one Solver per worker,
// so every worker benefits from every other worker's decided groups. The
// solver's search storage is a released solver's when one is listed
// (Release).
func NewWithCache(opts Options, cache *Cache) *Solver {
	if opts.MaxWork == 0 {
		opts.MaxWork = 8_000_000
	}
	if cache == nil {
		cache = NewCache()
	}
	st := stores.Get()
	if st.reuseEval == nil {
		st.reuseEval = expr.NewEvaluator()
	}
	return &Solver{
		opts:        opts,
		maxNodes:    maxNodes,
		history:     modelHistory,
		stall:       portfolioStall,
		cache:       cache,
		searchStore: st,
	}
}

// SetDeadline makes every subsequent query fail with ErrBudget once the
// wall clock passes t (zero disables). The symbolic-execution engine
// forwards its own deadline here so a single hard query cannot outlive
// the exploration budget.
func (s *Solver) SetDeadline(t time.Time) { s.deadline = t }

// Sat reports whether the conjunction of the constraints is satisfiable,
// and if so returns a model (an assignment of every mentioned variable).
// Callers with a growing path condition should carry a Partition and use
// SatPartition instead; Sat re-partitions from scratch. The model is
// read-only, as SatPartition's is.
func (s *Solver) Sat(constraints []*expr.Expr) (bool, expr.Model, error) {
	return s.SatPartition(PartitionOf(constraints))
}

// SatPartition decides a pre-partitioned query: model reuse first, then
// each group through the shared cache and compiled search (solveGroup).
//
// A returned model is shared with the solver's reuse history — a later
// query may hand the same model out again, and the memo holds verdicts
// about its contents — so callers must only read it, never write it.
// A sat answer's model is never nil (a trivially satisfiable query's
// binds nothing), so a nil model means no model was found.
func (s *Solver) SatPartition(p *Partition) (bool, expr.Model, error) {
	s.Stats.Queries++

	if sat, trivial := p.Trivial(); trivial {
		if sat {
			s.Stats.Sat++
			return true, expr.Model{}, nil
		}
		s.Stats.Unsat++
		return false, nil, nil
	}
	if CaptureQuery != nil {
		q := make([]*expr.Expr, 0, p.Len())
		for _, g := range p.groups {
			q = append(q, g.cs...)
		}
		CaptureQuery(q)
	}

	// Model reuse: does a recent model satisfy everything?
	for _, m := range s.recent {
		if s.modelSatisfies(p, m) {
			s.Stats.ModelReuseHits++
			s.Stats.Sat++
			return true, m.model, nil
		}
	}

	// Decide every group before building the model, so that an unsat
	// answer allocates none and a sat one allocates it once, at its size.
	// The decided entries wait in solver scratch, cleared on the way out
	// so that it keeps none of them reachable.
	decided := s.decided[:0]
	defer func() {
		clear(decided)
		s.decided = decided[:0]
	}()
	n := 0
	for _, g := range p.groups {
		e, err := s.solveGroup(g)
		if err != nil {
			s.Stats.Failures++
			return false, nil, err
		}
		if !e.sat {
			s.Stats.Unsat++
			return false, nil, nil
		}
		decided = append(decided, e)
		n += len(e.model)
	}
	model := make(expr.Model, 0, n)
	for _, e := range decided {
		model = append(model, e.model...)
	}
	s.Stats.Sat++
	s.remember(p, model)
	return true, model, nil
}

// modelSatisfies reports whether the model satisfies every constraint
// of the partition (missing variables read as zero, like expr.Eval).
//
// It is incremental on the partition's extension history. A model
// satisfies P.Extend(c) iff it satisfies P and c; remembered models
// are never written again and partitions are immutable, so a verdict
// about (condition, model) is a fact that can be memoized on the
// condition for every state and worker sharing it, and "does not
// satisfy" is inherited by every extension. The probe climbs the
// history to the nearest condition that knows the model — for a branch
// off a probed state, the parent — then evaluates only the constraints
// below it, recording each verdict on the way down. A model is born
// known to the condition it was found for and to everything that
// condition extends (remember). The one case that still evaluates the
// whole condition is a model no ancestor knows — one pushed out of the
// memo windows, or probed against a history it shares no ancestor with
// (PartitionOf's from-scratch chain: the slice API, a state decoded
// from a shard): the climb ends at the empty condition, which every
// model satisfies, and the descent is the from-scratch walk, done once
// for every condition on the path.
func (s *Solver) modelSatisfies(p *Partition, m recentModel) bool {
	sat := true
	pending := s.pending[:0]
	for n := p.hist; n != nil; n = n.parent {
		if v, known := n.lookup(m.serial); known {
			sat = v
			break
		}
		pending = append(pending, n)
	}
	s.reuseEval.Bind(m.model)
	for i := len(pending) - 1; i >= 0; i-- {
		n := pending[i]
		if sat {
			s.reuseEvals++
			sat = s.reuseEval.Eval(n.c) != 0
		}
		n.record(m.serial, sat)
	}
	clear(pending)
	s.pending = pending[:0]
	return sat
}

// remember puts the model just found for p into the history, taking
// ownership of it: SatPartition built the model for this query alone and
// hands it to its caller read-only, so it is stored, not copied. The
// model is the union of satisfying assignments of p's groups, so it
// satisfies p and every condition p extends; the memo is told so
// without evaluating anything, on the grounds the engine already
// reports the model as p's witness on.
func (s *Solver) remember(p *Partition, model expr.Model) {
	if s.serial%serialBlock == 0 {
		s.serial = modelSerials.Add(serialBlock) - serialBlock
	}
	s.serial++
	s.recent = append(s.recent, recentModel{serial: s.serial, model: model})
	if len(s.recent) > s.history {
		// Drop the oldest in place (oldest first is the probe order), so
		// the next append reuses the array.
		s.recent = s.recent[:copy(s.recent, s.recent[1:])]
	}
	for n := p.hist; n != nil; n = n.parent {
		n.record(s.serial, true)
	}
}

// solveGroup is the whole lookup story for one group: the one shared
// cache, then search. It returns the resident entry, shared across
// workers and never written again (SatPartition copies a group's model
// into the query's own and only reads this one).
func (s *Solver) solveGroup(g *Group) (*cacheEntry, error) {
	if e, ok := s.cache.get(g.fp); ok {
		s.Stats.CacheHits++
		return e, nil
	}
	found, err := s.search(g)
	if err != nil {
		return nil, err
	}
	return s.cache.put(g.fp, found), nil
}

// domain is the candidate-value set of one 8-bit variable.
type domain [4]uint64

// maxValues is how many values a domain can hold.
const maxValues = len(domain{}) * 64

func fullDomain(bits int) domain {
	var d domain
	for w, n := 0, 1<<uint(bits); n > 0; w, n = w+1, n-64 {
		if n >= 64 {
			d[w] = ^uint64(0)
		} else {
			d[w] = 1<<uint(n) - 1
		}
	}
	return d
}

func (d *domain) has(v uint64) bool { return d[v/64]&(1<<(v%64)) != 0 }
func (d *domain) clear(v uint64)    { d[v/64] &^= 1 << (v % 64) }

// appendValues appends the domain's values to dst in ascending order.
func (d *domain) appendValues(dst []uint64) []uint64 {
	for w, word := range d {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, uint64(w*64+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

func (d *domain) count() int {
	return bits.OnesCount64(d[0]) + bits.OnesCount64(d[1]) + bits.OnesCount64(d[2]) + bits.OnesCount64(d[3])
}

// search runs backtracking with forward checking over the group,
// evaluating constraints on the group's compiled tape. With a portfolio
// configured, a group that stalls past the stall budget is raced across
// diverse configurations (portfolio.go); otherwise the default
// configuration runs alone with the full work budget.
//
// A group over one variable for which carried finds a solution set is
// not searched from scratch: only the constraints after the prefix are
// compiled, and the unary filter runs them over the prefix's solution
// set instead of the full domain. Every value of that set already
// satisfies the prefix, so what the filter leaves is exactly the group's
// solution set — the set the from-scratch search ends with — and the
// model, its first value in the default order, is the same one. That
// path does not propagate (the filter is already exact, and value-set
// propagation over a domain narrower than vsetCap tracks real sets
// through every slot instead of widening to top) and runs the default
// configuration before any portfolio race: its cost does not depend on
// the value order.
//
// Any other group propagates first, resuming from a prefix's fixpoint
// when carried finds one (propagator.resume): the same domains as a run
// from scratch, so the same search. A run over several variables that
// converges is then refuted by cases where it can be
// (propagator.refuteByCases), before any portfolio race; a group it
// does not refute is searched from the fixpoint as before.
func (s *Solver) search(g *Group) (cacheEntry, error) {
	vars := g.vs.Vars()
	for _, v := range vars {
		if v.Bits > 8 {
			return cacheEntry{}, errTooWide
		}
	}
	k, from := s.carried(g)
	seeded := k > 0 && len(vars) == 1
	cs := g.cs
	if seeded {
		cs = g.cs[k:]
	}

	t := s.scratch.compile(g.vs, cs)
	s.Stats.TapeCompiles++
	s.Stats.TapeSlots += int64(len(t.ops))
	if len(t.vars) > s.Stats.MaxGroupVars {
		s.Stats.MaxGroupVars = len(t.vars)
	}

	domains := make([]domain, len(t.vars))
	var e cacheEntry
	var err error
	if seeded {
		domains[0] = from.set
		e.sat, e.model, err = s.searchTape(t, domains, searchConfig{}, s.opts.MaxWork)
	} else {
		for i, v := range t.vars {
			domains[i] = fullDomain(v.Bits)
		}
		// Value-set propagation first: it can prove the group unsat or
		// collapse domains without trying a single assignment, and its
		// cost is a function of the tape, not of the search tree
		// (propagate.go).
		var ok bool
		if k > 0 {
			ok = s.prop.resume(t, domains, vars, from.prop)
		} else {
			ok = s.prop.run(t, domains)
		}
		s.propEvals += s.prop.evals
		if ok && s.prop.converged && len(vars) > 1 {
			runs, refuted := s.prop.refuteByCases(vars)
			if runs > 0 {
				s.caseSplits++
				s.caseRuns += int64(runs)
			}
			if refuted {
				s.caseRefuted++
				ok = false
			}
		}
		if !ok {
			return cacheEntry{}, nil
		}
		if s.opts.Portfolio > 1 {
			e.sat, e.model, err = s.searchPortfolio(t, domains)
		} else {
			e.sat, e.model, err = s.searchTape(t, domains, searchConfig{}, s.opts.MaxWork)
		}
		if err == nil && e.sat && s.prop.converged {
			e.prop = s.prop.snapshot(vars, orderKey(g.cs))
		}
	}
	if err == errDeadline {
		err = ErrBudget
	}
	if err != nil {
		return cacheEntry{}, err
	}
	if e.sat && len(vars) == 1 {
		// Every constraint mentions only this variable, so the initial
		// unary filter probed each against every surviving value: what
		// is left is the solution set, not an approximation of it.
		e.set = domains[0]
	}
	return e, nil
}

// carried finds where the search of a group can start: the longest
// proper prefix of its constraints whose cache entry holds what the
// search can start from, as (prefix length, entry); 0 when there is
// none. A group over one variable starts from a solution set. Any other
// group resumes propagation from a snapshot taken over the same
// constraints in the same order: the cache key is a set hash, and the
// tape prefix the snapshot describes is the prefix's in its order.
//
// A group only ever grows by Extend appending to it, or by merging
// groups ahead of the constraint that merged them, so its prefixes are
// mostly the groups of the path condition's ancestors — but nothing
// rests on that: the solution set of any subset of the constraints
// contains the group's, and a snapshot is resumed from only over the
// constraint list it was taken on. The prefix is searched
// for, not the parent alone, because model reuse answers one side of
// most branches without deciding its group: the nearest decided ancestor
// is usually a few constraints back. The lookups are peeks, so the
// cache's hits and misses stay one per group looked up to be decided. A
// prefix's key is the group's key less the keys of the constraints after
// it (fingerprint.go), so the walk reads no id list.
func (s *Solver) carried(g *Group) (int, *cacheEntry) {
	single := len(g.vs.Vars()) == 1
	fp := g.fp
	for k := len(g.cs) - 1; k >= 1; k-- {
		fp = fp.minus(idKey(g.cs[k].ID()))
		e := s.cache.peek(fp)
		switch {
		case e == nil:
		case single && e.set != (domain{}):
			return k, e
		case !single && e.prop != nil && snapOrder(e.prop) == orderKey(g.cs[:k]):
			return k, e
		}
	}
	return 0, nil
}

// searchTape is one backtracking attempt over a compiled tape: the
// given configuration's value order and tie-break, at most maxAssigns
// assignments. domains is consumed (filtering mutates it); callers
// re-running attempts must pass a fresh copy.
func (s *Solver) searchTape(t *tape, domains []domain, cfg searchConfig, maxAssigns int64) (bool, expr.Model, error) {
	vars := t.vars
	ts := tapeStateFrom(&s.scratch, t)
	// The budget is counted in assignments tried — one unit per
	// candidate value probed by the unary filter or bound by the DFS —
	// never in evaluator work. Assignments are determined by the group
	// alone (domains, constraint order, variable order), so the verdict
	// a group gets is independent of how constraints are evaluated.
	var nodes, assigns int64
	defer func() {
		s.Stats.Assignments += assigns
		s.commitEvals += ts.evals
	}()
	// The clock is read on the first check and then whenever another
	// 1024 assignments have been tried since the last reading. (Checks
	// run once per filtered constraint and per DFS node, between which
	// assigns jumps by up to 256: testing it for a multiple of 1024
	// would almost never fire.)
	polled := int64(-1024)
	checkBudget := func() error {
		if nodes > s.maxNodes || assigns > maxAssigns {
			return ErrBudget
		}
		if !s.deadline.IsZero() && assigns-polled >= 1024 {
			polled = assigns
			if time.Now().After(s.deadline) {
				return errDeadline
			}
		}
		return nil
	}

	nc := len(t.roots)
	// filterUnary prunes the domain of v using constraints where v is the
	// only unassigned variable they still read (tapeState.unassignedIn).
	// Returns false if a domain empties.
	//
	// bound is the variable the DFS just bound, -1 in the initial pass. A
	// constraint that does not mention it reads what it read before the
	// binding, so it was unary in v under this same assignment at the
	// node that last bound one of its variables (or in the initial pass),
	// which filtered v's domain by it, and the domain has only shrunk
	// since: the filter would remove nothing
	// (TestSkippedFilterIsNoOp), so it is not evaluated — but it is
	// charged, so Assignments stay a function of the search tree.
	filterUnary := func(vi, bound int32) (bool, error) {
		d := &domains[vi]
		for ci := 0; ci < nc; ci++ {
			if err := checkBudget(); err != nil {
				return false, err
			}
			un, hasV := ts.unassignedIn(ci, vi)
			if un != 1 || !hasV {
				continue
			}
			if bound >= 0 && !t.mentions(ci, bound) {
				assigns += int64(d.count())
				continue
			}
			assigns += int64(ts.filterColumn(ci, vi, d))
			if d.count() == 0 {
				return false, nil
			}
		}
		return true, nil
	}

	// allHold checks every constraint under the current (partial)
	// assignment; returns false on a definite violation.
	allHold := func() bool {
		for ci := 0; ci < nc; ci++ {
			known, r := ts.root(ci)
			if known && r == 0 {
				return false
			}
		}
		return true
	}
	complete := func() bool {
		for ci := 0; ci < nc; ci++ {
			known, r := ts.root(ci)
			if !known || r == 0 {
				return false
			}
		}
		return true
	}

	// A DFS node at depth k keeps the variables below its choice in row
	// k+1 of s.rest (row 0 is the root's list) and the domains it restores
	// between sibling values in row k of s.saved.
	nv := len(vars)
	if cap(s.rest) < (nv+1)*nv {
		s.rest, s.saved = make([]int32, (nv+1)*nv), make([]domain, nv*nv)
	}
	var dfs func(remaining []int32) (bool, error)
	dfs = func(remaining []int32) (bool, error) {
		nodes++
		s.Stats.Nodes++
		if err := checkBudget(); err != nil {
			return false, err
		}
		if len(remaining) == 0 {
			return complete(), nil
		}
		// Choose the unassigned variable with the smallest domain; the
		// configuration picks which of several equal minima to take.
		best := 0
		bestCount := domains[remaining[0]].count()
		for i := 1; i < len(remaining); i++ {
			if c := domains[remaining[i]].count(); c < bestCount || (cfg.tieLast && c == bestCount) {
				best, bestCount = i, c
			}
		}
		vi := remaining[best]
		depth := nv - len(remaining)
		rest := append(s.rest[(depth+1)*nv:][:0], remaining[:best]...)
		rest = append(rest, remaining[best+1:]...)
		saved := s.saved[depth*nv:][:len(rest)]

		d := domains[vi] // snapshot: restored by value semantics
		n := uint64(1) << uint(vars[vi].Bits)
		for k := uint64(0); k < n; k++ {
			val := cfg.value(k, n)
			if !d.has(val) {
				continue
			}
			assigns++
			// Each sibling value is assigned over the last: assign
			// re-evaluates what moved from the last value, which a retract
			// in between would only have doubled. One unassign after the
			// loop.
			ts.assign(vi, val)
			if allHold() {
				// Forward-check: refilter domains of remaining vars.
				for i, rv := range rest {
					saved[i] = domains[rv]
				}
				alive := true
				for _, rv := range rest {
					ok, err := filterUnary(rv, vi)
					if err != nil {
						return false, err
					}
					if !ok {
						alive = false
						break
					}
				}
				if alive {
					sat, err := dfs(rest)
					if err != nil {
						return false, err
					}
					if sat {
						return true, nil
					}
				}
				for i, rv := range rest {
					domains[rv] = saved[i]
				}
			}
		}
		ts.unassign(vi)
		return false, nil
	}

	// Initial unary filtering pass.
	order := s.rest[:nv]
	for i := range order {
		order[i] = int32(i)
	}
	for _, vi := range order {
		ok, err := filterUnary(vi, -1)
		if err != nil {
			return false, nil, err
		}
		if !ok {
			return false, nil, nil
		}
	}
	sat, err := dfs(order)
	if err != nil {
		return false, nil, err
	}
	if !sat {
		return false, nil, nil
	}
	model := make(expr.Model, len(vars))
	for i, v := range vars {
		model[i] = expr.Binding{Var: v, Val: ts.avals[i]}
	}
	return true, model, nil
}
