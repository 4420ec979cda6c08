package main

import (
	"fmt"
	"math/rand"
	"time"

	"overify/internal/core"
	"overify/internal/frontend"
	"overify/internal/ir"
	"overify/internal/lang"
	"overify/internal/libc"
	"overify/internal/pipeline"
	"overify/internal/solver"
	"overify/internal/symex"
	"overify/internal/verdicts"
)

// coldResult is what one cold job produced.
type coldResult struct {
	render string
	rep    *symex.Report
	c      *core.Compiled
}

// verifyOptions is the one place a cold job's engine configuration is
// written down: one worker, no wall-clock timeout, deterministic
// budgets only.
func verifyOptions(j coldJob, b budgets) core.VerifyOptions {
	vo := core.VerifyOptions{InputBytes: j.Bytes}
	vo.Engine.Workers = 1
	vo.Engine.MaxInstrs = b.MaxInstrs
	vo.Engine.MaxAssignments = b.MaxAssignments
	vo.Engine.Solver.MaxWork = b.MaxWork
	vo.Engine.Solver.Portfolio = j.Portfolio
	return vo
}

// decided applies the ledger's rule for a conclusive verdict. A run
// whose solver gave up on a query is undecided even when no budget
// flag is set: a failed query means a branch was assumed, not proven.
func decided(rep *symex.Report) bool {
	return !rep.Stats.TimedOut && rep.Stats.TruncatedPaths == 0 && rep.Stats.SolverStats.Failures == 0
}

// entryArgs builds umain's arguments the way Compiled.Verify does: an
// n-byte symbolic NUL-terminated buffer and its length.
func entryArgs(eng *symex.Engine, n int) []symex.SymVal {
	return []symex.SymVal{eng.SymbolicBuffer("input", n, true), eng.IntArg(ir.I32, uint64(n))}
}

func workUnits(st *symex.Stats) int64 { return st.Instrs + st.SolverStats.Assignments }

// runCold answers one job the way a cold CLI invocation does, through
// the public entry points.
func runCold(j coldJob, b budgets) (res coldResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	c, err := core.CompileSource(j.Prog.Name, j.Prog.Src, j.Level, core.DefaultLibc(j.Level))
	if err != nil {
		return res, err
	}
	rep, err := c.Verify("umain", verifyOptions(j, b))
	if err != nil {
		return res, err
	}
	return coldResult{render: verdicts.Render(rep), rep: rep, c: c}, nil
}

// coldCounters accumulates what the traced passes observed at the
// layer boundaries.
type coldCounters struct {
	libcCalls, lowerInstrs, sliced        int64
	optIn, optOut, passInvocations, skips int64
	analysisHits, analysisTotal           int64
	passWall                              map[string]time.Duration
	passChanged                           map[string]int64
	paths, forks, instrs, states, trunc   int64
	maxLive                               int64
	nodesBuilt, internHits                int64
	solver                                solver.Stats
}

// runColdTraced answers the same job through the same calls
// core.CompileWithConfig and Compiled.Verify make, each wrapped in a
// span. It must stay a transcription of those two functions: the
// traced run's whole claim is that it measures the untraced path.
func (w *coldWorkload) runColdTraced(j coldJob, tr *tracer, pass, job int) (res coldResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	acc := &w.acc
	root := tr.begin("job", pass, job, 0)
	defer func() { tr.end(root) }()

	lk := core.DefaultLibc(j.Level)
	cfg := pipeline.LevelConfig(j.Level)

	compile := tr.begin("core.compile", pass, job, root)
	s := tr.begin("lang.parse", pass, job, compile)
	progFile, err := lang.Parse(j.Prog.Src)
	tr.end(s)
	if err != nil {
		return res, err
	}
	s = tr.begin("libc.parse", pass, job, compile)
	libFile, err := libc.Parse(lk)
	tr.end(s)
	if err != nil {
		return res, err
	}
	acc.libcCalls++
	s = tr.begin("frontend.lower", pass, job, compile)
	mod, err := frontend.LowerFiles(j.Prog.Name, libFile, progFile)
	if err != nil {
		tr.end(s)
		return res, err
	}
	lowered := int64(mod.NumInstrs())
	tr.end(s, kv{"instrs_out", lowered})
	acc.lowerInstrs += lowered
	s = tr.begin("pipeline.optimize", pass, job, compile)
	pres, err := pipeline.Optimize(mod, cfg)
	if err != nil {
		tr.end(s)
		return res, err
	}
	tr.end(s, kv{"instrs_in", int64(pres.InstrsIn)}, kv{"instrs_out", int64(pres.InstrsOut)},
		kv{"pass_invocations", int64(pres.PassInvocations)})
	tr.end(compile)
	acc.optIn += int64(pres.InstrsIn)
	acc.optOut += int64(pres.InstrsOut)
	acc.passInvocations += int64(pres.PassInvocations)
	acc.skips += int64(pres.SkippedFuncRuns)
	a := pres.Analysis
	acc.analysisHits += a.DomHits + a.LoopHits
	acc.analysisTotal += a.DomHits + a.LoopHits + a.DomComputes + a.LoopComputes
	for _, pm := range pres.PassTimings {
		acc.passWall[pm.Name] += pm.Wall
		acc.passChanged[pm.Name] += int64(pm.Changed)
	}
	c := &core.Compiled{Name: j.Prog.Name, Mod: mod, Level: cfg.Level, Libc: lk, Result: pres}

	vo := verifyOptions(j, w.b)
	s = tr.begin("symex.explore", pass, job, root)
	eng := symex.NewEngine(mod, vo.Engine)
	rep, err := eng.Run("umain", entryArgs(eng, j.Bytes), nil)
	if err != nil {
		tr.end(s)
		return res, err
	}
	st := &rep.Stats
	tr.end(s, kv{"paths", st.TotalPaths()}, kv{"instrs", st.Instrs},
		kv{"queries", st.SolverStats.Queries}, kv{"assignments", st.SolverStats.Assignments})
	acc.paths += st.TotalPaths()
	acc.forks += st.Forks
	acc.instrs += st.Instrs
	acc.states += st.StatesExplored
	acc.trunc += st.TruncatedPaths
	if int64(st.MaxLiveStates) > acc.maxLive {
		acc.maxLive = int64(st.MaxLiveStates)
	}
	acc.nodesBuilt += eng.B.NodesBuilt()
	acc.internHits += eng.B.CacheHits()
	acc.solver.Add(st.SolverStats)

	s = tr.begin("verdicts.render", pass, job, root)
	render := verdicts.Render(rep)
	tr.end(s)
	return coldResult{render: render, rep: rep, c: c}, nil
}

// coldWorkload is a serial list of cold jobs: corpus_sweep, deep_paths
// and solver_hard differ only in the list and the budgets.
type coldWorkload struct {
	list []coldJob
	b    budgets
	seed int64

	refs  []coldResult // warm-up pass answers, indexed like list
	bad   []string     // per job: why it missed the known answer ("" = it did not)
	acc   coldCounters
	guard guardTimes
}

func newColdWorkload(jobs []coldJob, b budgets, seed int64) *coldWorkload {
	return &coldWorkload{list: shuffled(jobs, seed), b: b, seed: seed}
}

func (w *coldWorkload) jobs() int { return len(w.list) }

func (w *coldWorkload) teardown() {}

// setup runs the warm-up pass. There are no stores or servers to
// start: a cold job's only state is the process's own heap and lazily
// built tables, which one pass over the list warms.
func (w *coldWorkload) setup() error {
	w.refs = make([]coldResult, len(w.list))
	w.bad = make([]string, len(w.list))
	w.acc = coldCounters{passWall: map[string]time.Duration{}, passChanged: map[string]int64{}}
	for i, j := range w.list {
		res, err := runCold(j, w.b)
		if err != nil {
			return fmt.Errorf("%s: %w", j.id(), err)
		}
		w.refs[i] = res
	}
	return nil
}

// check is the known-answer oracle over the warm-up pass: bug set
// against the .expect file (corpus programs expect none), every
// witness replayed on the -O0 interpreter, seeded concrete inputs
// against every conclusive "clean", and VM output against interpreter
// output at the job's level.
func (w *coldWorkload) check() []string {
	rng := rand.New(rand.NewSource(w.seed))
	refs := map[string]*reference{}
	var failures []string
	for i, j := range w.list {
		fail := func(msg string) {
			if w.bad[i] == "" {
				w.bad[i] = msg
			}
			failures = append(failures, j.id()+": "+msg)
		}
		ref := refs[j.Prog.Name]
		if ref == nil {
			var err error
			if ref, err = newReference(j.Prog); err != nil {
				fail("reference compile: " + err.Error())
				continue
			}
			refs[j.Prog.Name] = ref
		}
		res := w.refs[i]
		for _, m := range checkBugs(j.Prog, res.rep.Bugs) {
			fail(m)
		}
		for _, b := range res.rep.Bugs {
			if m := ref.replayWitness(b); m != "" {
				fail(m)
			}
		}
		if len(res.rep.Bugs) == 0 && decided(res.rep) {
			if m := ref.sampleClean(rng, j.Bytes); m != "" {
				fail(m)
			}
		}
		if j.Prog.Expect == nil {
			if m := ref.vmMatchesReference(res.c.Mod, seededText(rng, j.Prog.Sample), &w.guard); m != "" {
				fail(m)
			}
		}
	}
	return failures
}

func (w *coldWorkload) pass(p int, tr *tracer) []sample {
	out := make([]sample, 0, len(w.list))
	for i, j := range w.list {
		var res coldResult
		var err error
		t0 := time.Now()
		if tr != nil {
			res, err = w.runColdTraced(j, tr, p, i+1)
		} else {
			res, err = runCold(j, w.b)
		}
		s := sample{Job: j.id(), MS: float64(time.Since(t0)) / 1e6}
		switch {
		case err != nil:
			s.Failed = err.Error()
		case res.render != w.refs[i].render:
			s.Failed = "render differs from the reference pass"
		default:
			s.Failed = w.bad[i]
		}
		if err == nil {
			s.Decided = decided(res.rep)
			s.Work = workUnits(&res.rep.Stats)
		}
		out = append(out, s)
	}
	return out
}

// layers rolls the traced passes up and runs the probes that have no
// place inside a timed job: token counts, the slicing stages, and the
// solver replay.
func (w *coldWorkload) layers(tr *tracer, tracedPasses int, out map[string]float64) {
	r := tr.rollups()
	a := &w.acc

	var tokens int64
	for _, j := range w.list {
		if toks, err := lang.Tokenize(j.Prog.Src); err == nil {
			tokens += int64(len(toks))
		}
	}
	tokens *= int64(tracedPasses)
	out["lang.parse_ms"] = wallMS(r, "lang.parse")
	out["lang.tokens"] = float64(tokens)
	out["lang.tokens_per_s"] = ratio(float64(tokens), wallMS(r, "lang.parse")/1e3)
	out["libc.parse_ms"] = wallMS(r, "libc.parse")
	out["libc.parse_calls"] = float64(a.libcCalls)
	out["frontend.lower_ms"] = wallMS(r, "frontend.lower")
	out["frontend.instrs_out"] = float64(a.lowerInstrs)
	out["pipeline.optimize_ms"] = wallMS(r, "pipeline.optimize")
	out["pipeline.pass_invocations"] = float64(a.passInvocations)
	out["pipeline.skipped_runs"] = float64(a.skips)
	out["pipeline.instrs_in"] = float64(a.optIn)
	out["pipeline.instrs_out"] = float64(a.optOut)
	out["passes.analysis_hit_ratio"] = ratio(float64(a.analysisHits), float64(a.analysisTotal))
	out["core.compile_ms"] = wallMS(r, "core.compile")
	out["core.compile_share_p50"] = median(tr.childShares("job", "core.compile"))

	explore := wallMS(r, "symex.explore")
	out["symex.explore_ms"] = explore
	out["symex.paths"] = float64(a.paths)
	out["symex.forks"] = float64(a.forks)
	out["symex.instrs"] = float64(a.instrs)
	out["symex.instrs_per_s"] = ratio(float64(a.instrs), explore/1e3)
	out["symex.states_explored"] = float64(a.states)
	out["symex.max_live_states"] = float64(a.maxLive)
	out["symex.truncated_paths"] = float64(a.trunc)
	out["expr.nodes_built"] = float64(a.nodesBuilt)
	out["expr.intern_hit_ratio"] = ratio(float64(a.internHits), float64(a.internHits+a.nodesBuilt))
	solverLayers(a.solver, out)

	w.sliceProbe(a)
	for name, d := range a.passWall {
		out["passes."+name+".wall_ms"] = float64(d) / 1e6
		out["passes."+name+".changed"] = float64(a.passChanged[name])
	}
	out["passes.relevance_ms"] = w.relevanceMS()
	out["passes.slice.instrs_removed"] = float64(a.sliced)

	rp := w.replaySolver()
	out["solver.replay_ms"] = rp.replay
	out["solver.replay_share"] = ratio(rp.replay, rp.explore)
	out["solver.search_ms"] = rp.search
	out["solver.search_share"] = ratio(rp.search, rp.explore)

	out["vm.compile_ms"] = float64(w.guard.vmCompile) / 1e6
	out["vm.run_ms"] = float64(w.guard.vmRun) / 1e6
	out["vm.instrs"] = float64(w.guard.vmInstrs)
	out["interp.run_ms"] = float64(w.guard.interpRun) / 1e6
}

// solverLayers writes the solver's counters; ratios carry their base:
// warm answers over warm answers plus searches run.
func solverLayers(s solver.Stats, out map[string]float64) {
	warm := s.PartitionHits + s.CacheHits + s.ModelReuseHits
	searches := s.TapeCompiles + s.TapeReuses
	out["solver.queries"] = float64(s.Queries)
	out["solver.partition_hits"] = float64(s.PartitionHits)
	out["solver.cache_hits"] = float64(s.CacheHits)
	out["solver.model_reuse_hits"] = float64(s.ModelReuseHits)
	out["solver.warm_answer_ratio"] = ratio(float64(warm), float64(warm+searches))
	out["solver.assignments"] = float64(s.Assignments)
	out["solver.nodes"] = float64(s.Nodes)
	out["solver.failures"] = float64(s.Failures)
	out["solver.tape_compiles"] = float64(s.TapeCompiles)
	out["solver.tape_reuses"] = float64(s.TapeReuses)
	out["solver.tape_slots"] = float64(s.TapeSlots)
	out["solver.portfolio_races"] = float64(s.PortfolioRaces)
	out["solver.portfolio_wins"] = float64(s.PortfolioWins)
	out["solver.max_group_vars"] = float64(s.MaxGroupVars)
}
