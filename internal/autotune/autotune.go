// Package autotune searches the space of optimization schedules for
// one that minimizes symbolic-verification work on a given program —
// the paper's thesis made executable. -OVERIFY is a hand-written pass
// list; pipeline.PipelineSpec made pass lists data (PR 3), slicing
// made their payoff program-dependent (PR 8), so the schedule itself
// is now a search problem: seed from the five stock levels, mutate
// (insert/delete/swap/duplicate passes, grow/shrink fixpoint bodies,
// toggle slice/loopsummary placement), evaluate each candidate by
// compiling and verifying it, and hill-climb with random restarts.
//
// The objective is reproducible on shared CI hardware: candidates are
// ranked by deterministic work units — solver assignments tried plus
// instructions symbolically executed, both already counted by the
// engine — never by wall clock, and every evaluation runs the engine
// serially so the counts are schedule-independent. The candidate
// budgets are deterministic too: exploration stops at instruction and
// solver-assignment caps derived from the baseline (InstrsFactor,
// AssignsFactor), so an over-budget candidate is rejected at the same
// point on every run — a wall-clock budget would reject different
// candidates under different machine load and fork the search
// trajectory. Wall-clock is recorded per candidate and used only as a
// display tiebreaker in the bench rendering; letting it into the
// search comparator would make "reproducible from a fixed -seed" a lie
// on a noisy machine. Ties on
// work units fall through to compile work (pass invocations, also
// deterministic), then spec length, then the spec string.
//
// Soundness: a schedule that changes what verification finds is not an
// optimization, it is a different program. Every candidate is gated on
// bug parity against the -OVERIFY baseline — its position-normalized
// bug set must equal the baseline's — and a candidate that fails the
// gate is discarded, never ranked. Candidates also keep the
// instrumentation suffix (checks, annotate) fixed: deleting the checks
// pass would "win" by verifying a weaker property, so mutation cannot
// touch it. The slice/loopsummary stages are fair game — slicing holds
// bug parity by construction (PR 8's conformance suite), and where the
// search places slice is part of the headline result.
package autotune

import (
	"fmt"
	"math/rand"
	"time"

	"overify/internal/pipeline"
	"overify/internal/solver"
)

// Options configure one search.
type Options struct {
	// Name and Source identify the program (Name is display-only).
	Name   string
	Source string

	// InputBytes is the symbolic input size (default 4).
	InputBytes int
	// Timeout is the per-candidate wall-clock backstop (default 2m).
	// The real candidate budgets are InstrsFactor and AssignsFactor,
	// which stop the engine deterministically; the timeout only catches
	// pathology those caps cannot see (a compile blowup, a stall inside
	// one solver query). It is set far above the runtime the
	// deterministic caps allow on purpose: a backstop that can fire
	// under CPU contention would make the search trajectory
	// load-dependent.
	Timeout time.Duration
	// Budget caps unique candidate evaluations (default 64). The
	// baseline evaluation is free; memo hits cost nothing.
	Budget int
	// Seed fixes the mutation PRNG. Same seed, same program, same
	// budget => same search trajectory and same best spec.
	Seed int64
	// Jobs bounds concurrent candidate evaluations (0/1 serial). Each
	// evaluation owns a fresh engine, so fan-out cannot change any
	// candidate's deterministic counters.
	Jobs int
	// Neighborhood is how many mutants each hill-climb step evaluates
	// (default 6).
	Neighborhood int
	// MaxStages caps candidate spec length in top-level stages
	// (default 24), bounding compile-time bloat from duplication.
	MaxStages int
	// CompileFactor bounds candidate compile work: a candidate whose
	// pass invocations exceed factor x the baseline's is rejected
	// without verifying (default 1.0 — "equal-or-less t_compile",
	// measured in the deterministic currency).
	CompileFactor float64
	// InstrsFactor bounds candidate verify work: exploration is capped
	// at factor x the baseline's instruction count (default 16, floor
	// 1<<18) and a truncated candidate is rejected — deterministically,
	// unlike a wall-clock timeout.
	InstrsFactor int64
	// AssignsFactor bounds the other half of the work objective the
	// same way: a candidate's solver assignments are capped at factor x
	// the baseline's (default 8, floor 1<<16) and the engine stops
	// deterministically at the cap. Together the two caps bound every
	// candidate's runtime, which is what keeps the wall-clock backstop
	// from ever firing on a rankable candidate.
	AssignsFactor int64
}

func (o Options) withDefaults() Options {
	if o.InputBytes <= 0 {
		o.InputBytes = 4
	}
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.Budget <= 0 {
		o.Budget = 64
	}
	if o.Neighborhood <= 0 {
		o.Neighborhood = 6
	}
	if o.MaxStages <= 0 {
		o.MaxStages = 24
	}
	if o.CompileFactor <= 0 {
		o.CompileFactor = 1.0
	}
	if o.InstrsFactor <= 0 {
		o.InstrsFactor = 16
	}
	if o.AssignsFactor <= 0 {
		o.AssignsFactor = 8
	}
	return o
}

// Result is what one search found.
type Result struct {
	Program  string
	Seed     int64
	Baseline *Candidate
	// Best is the winning candidate; it is the baseline itself when no
	// searched schedule beat it, so Best.Work <= Baseline.Work always.
	Best           *Candidate
	BestIsBaseline bool
	// ImprovementPct is the verify-work reduction vs the baseline.
	ImprovementPct float64
	Evaluated      int // unique candidate evaluations (baseline excluded)
	MemoHits       int // mutants skipped because their fingerprint was already evaluated
	Restarts       int
	// Candidates lists every unique evaluated candidate in evaluation
	// order (rejected ones included, with their rejection reason).
	Candidates []*Candidate
}

// Tune runs the search. The returned best spec is guaranteed to
// round-trip through ParsePipeline and to hold bug parity with the
// -OVERIFY baseline.
func Tune(opts Options) (*Result, error) {
	o := opts.withDefaults()
	base, baseBugs, err := evalBaseline(o)
	if err != nil {
		return nil, err
	}
	ec := evalConfig{
		name:       o.Name,
		src:        o.Source,
		inputBytes: o.InputBytes,
		timeout:    o.Timeout,
		jobs:       1,
		baseBugs:   baseBugs,
		gate:       true,
		invCap:     int(float64(base.CompileInvocations) * o.CompileFactor),
		maxInstrs:  maxi64(base.Instrs*o.InstrsFactor, 1<<18),
		maxAssigns: maxi64(base.Assignments*o.AssignsFactor, 1<<16),
	}

	res := &Result{Program: o.Name, Seed: o.Seed, Baseline: base}
	memo := map[solver.Fingerprint]bool{specFingerprint(base.Spec): true}
	seen := func(spec pipeline.PipelineSpec) bool {
		fp := specFingerprint(spec.String())
		if memo[fp] {
			res.MemoHits++
			return true
		}
		memo[fp] = true
		return false
	}

	// evalBatch evaluates specs concurrently (bounded by o.Jobs) and
	// records them. Selection happens only after the whole batch is
	// done, so completion order cannot influence the search.
	evalBatch := func(specs []pipeline.PipelineSpec) []*Candidate {
		out := make([]*Candidate, len(specs))
		pipeline.ParallelDo(len(specs), o.Jobs, func(i int) {
			out[i] = evaluate(specs[i], ec)
		})
		res.Candidates = append(res.Candidates, out...)
		res.Evaluated += len(out)
		return out
	}

	rng := rand.New(rand.NewSource(o.Seed ^ 0x07e1f1ed5eed))
	// Proposal weighting: the baseline compile's per-pass attribution
	// biases which pass an insert/grow mutation draws — passes that
	// actually rewrote this program propose more often. The attribution
	// is deterministic (Changed counts, not wall clock), so a fixed seed
	// still yields a fixed candidate sequence.
	weights := weightsFromMetrics(base.PassTimings)
	seeds := seedSpecs()
	best := base
	seedIdx := 0
	var cur *Candidate

	// nextStart picks a restart point: the stock levels round-robin,
	// then increasingly-kicked mutants of them once all five are seen.
	nextStart := func() (pipeline.PipelineSpec, bool) {
		for tries := 0; tries < 64; tries++ {
			s := cloneSpec(seeds[seedIdx%len(seeds)])
			kicks := seedIdx / len(seeds)
			seedIdx++
			for k := 0; k < kicks; k++ {
				s = mutate(s, rng, o.MaxStages, weights)
			}
			if !seen(s) {
				return s, true
			}
		}
		return pipeline.PipelineSpec{}, false
	}

	for res.Evaluated < o.Budget {
		if cur == nil {
			spec, ok := nextStart()
			if !ok {
				break // search space around the seeds is exhausted
			}
			res.Restarts++
			cur = evalBatch([]pipeline.PipelineSpec{spec})[0]
			if cur.Valid() && less(cur, best) {
				best = cur
			}
			continue
		}
		k := o.Neighborhood
		if room := o.Budget - res.Evaluated; k > room {
			k = room
		}
		var neighbors []pipeline.PipelineSpec
		for tries := 0; len(neighbors) < k && tries < 16*k; tries++ {
			m := mutate(cur.spec, rng, o.MaxStages, weights)
			if !seen(m) {
				neighbors = append(neighbors, m)
			}
		}
		if len(neighbors) == 0 {
			cur = nil // neighborhood exhausted: restart
			continue
		}
		var bn *Candidate
		for _, c := range evalBatch(neighbors) {
			if !c.Valid() {
				continue
			}
			if bn == nil || less(c, bn) {
				bn = c
			}
			if less(c, best) {
				best = c
			}
		}
		if bn != nil && (!cur.Valid() || less(bn, cur)) {
			cur = bn // greedy step
		} else {
			cur = nil // local optimum: restart
		}
	}

	res.Best = best
	res.BestIsBaseline = best == base
	if base.Work > 0 {
		res.ImprovementPct = 100 * float64(base.Work-best.Work) / float64(base.Work)
	}
	// The contract callers (and the CI smoke) rely on: the winning spec
	// replays — parse, re-render, byte-identical.
	rt, err := pipeline.ParsePipeline(best.Spec)
	if err != nil {
		return nil, fmt.Errorf("autotune %s: best spec does not parse back: %w", o.Name, err)
	}
	if rt.String() != best.Spec {
		return nil, fmt.Errorf("autotune %s: best spec does not round-trip: %q -> %q", o.Name, best.Spec, rt.String())
	}
	return res, nil
}

// Evaluate scores one explicit spec against the program's -OVERIFY
// baseline under the same gates the search applies — the single-spec
// entry point tests and replay tooling use.
func Evaluate(opts Options, spec pipeline.PipelineSpec) (cand, baseline *Candidate, err error) {
	o := opts.withDefaults()
	base, baseBugs, err := evalBaseline(o)
	if err != nil {
		return nil, nil, err
	}
	ec := evalConfig{
		name:       o.Name,
		src:        o.Source,
		inputBytes: o.InputBytes,
		timeout:    o.Timeout,
		jobs:       o.Jobs,
		baseBugs:   baseBugs,
		gate:       true,
		invCap:     int(float64(base.CompileInvocations) * o.CompileFactor),
		maxInstrs:  maxi64(base.Instrs*o.InstrsFactor, 1<<18),
		maxAssigns: maxi64(base.Assignments*o.AssignsFactor, 1<<16),
	}
	return evaluate(cloneSpec(spec), ec), base, nil
}

// less is the search's strict total order over valid candidates. It is
// fully deterministic — see the package comment for why wall clock is
// excluded.
func less(a, b *Candidate) bool {
	if a.Work != b.Work {
		return a.Work < b.Work
	}
	if a.CompileInvocations != b.CompileInvocations {
		return a.CompileInvocations < b.CompileInvocations
	}
	if len(a.Spec) != len(b.Spec) {
		return len(a.Spec) < len(b.Spec)
	}
	return a.Spec < b.Spec
}

// specFingerprint is the dedupe key: the rendered spec string hashed
// through the verdict store's 128-bit streaming hasher.
func specFingerprint(spec string) solver.Fingerprint {
	h := solver.NewHasher()
	h.WriteString(spec)
	return h.Sum()
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
