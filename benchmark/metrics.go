package main

import "overify/internal/passes"

// metricDef names one metric of the ledger. The tables below are the
// single definition the run, the compare gate, BENCHMARK.json (pinned
// to them by TestBenchmarkJSONMatchesTables) and README.md share.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the old value by which the metric may get
	// worse before -compare calls it a regression.
	Bound float64
	// SerialBound replaces Bound on the serial workloads, whose
	// counters repeat exactly; negative means "same as Bound".
	SerialBound float64
}

// endToEnd is what a user of the verifier sees, the same eight on
// every workload. failed_share is gated at 0 by -compare but is not
// listed in BENCHMARK.json, whose contract forbids a metric that reads
// 0: there it travels as the result line's "failed"/"attempted" pair.
//
// The three timings are bounded at the contract's ceiling of 0.25: ten
// runs of identical code on the sizing box spread by 4-16% even
// best-of-passes (README.md, "Steadiness"), and a bound has to clear
// the spread with room to spare. alloc_mb moves 1.7% from seed to seed on
// served_mix and not at all on the serial workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, -1},
	{"verdicts_per_s", "1/s", "higher", 0.25, -1},
	{"verdict_p50_ms", "ms", "lower", 0.25, -1},
	{"verdict_p95_ms", "ms", "lower", 0.25, -1},
	{"decided_share", "ratio", "higher", 0.01, 0},
	{"failed_share", "ratio", "lower", 0, -1},
	{"work_units", "count", "lower", 0.05, 0},
	{"alloc_mb", "MB", "lower", 0.06, 0.02},
}

// serialWorkloads run one job at a time on one goroutine, so their
// deterministic counters must not move at all between two runs of the
// same code.
var serialWorkloads = map[string]bool{
	"corpus_sweep": true, "deep_paths": true, "solver_hard": true,
}

// boundFor is the regression bound of metric m on the given workload.
func boundFor(m metricDef, workload string) float64 {
	if serialWorkloads[workload] && m.SerialBound >= 0 {
		return m.SerialBound
	}
	return m.Bound
}

// contractEndToEnd is endToEnd as BENCHMARK.json lists it.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Name != "failed_share" {
			out = append(out, m)
		}
	}
	return out
}

// perLayer lists the traced run's metrics, layer = package name. A
// workload that does not reach a layer reports 0 for it.
func perLayer() []metricDef {
	l := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	out := []metricDef{
		// Compile side: parse -> lower -> passes.
		l("lang.parse_ms", "ms", "lower"),
		l("lang.tokens", "count", "lower"),
		l("lang.tokens_per_s", "1/s", "higher"),
		l("libc.parse_ms", "ms", "lower"),
		l("libc.parse_calls", "count", "lower"),
		l("frontend.lower_ms", "ms", "lower"),
		l("frontend.instrs_out", "count", "lower"),
		l("pipeline.optimize_ms", "ms", "lower"),
		l("pipeline.pass_invocations", "count", "lower"),
		l("pipeline.skipped_runs", "count", "higher"),
		l("pipeline.instrs_in", "count", "lower"),
		l("pipeline.instrs_out", "count", "lower"),
		l("passes.analysis_hit_ratio", "ratio", "higher"),
	}
	for _, p := range passes.Names() { // sorted
		out = append(out,
			l("passes."+p+".wall_ms", "ms", "lower"),
			l("passes."+p+".changed", "count", "higher"))
	}
	out = append(out,
		l("passes.relevance_ms", "ms", "lower"),
		l("passes.slice.instrs_removed", "count", "higher"),
		l("core.compile_ms", "ms", "lower"),
		l("core.compile_share_p50", "ratio", "lower"), // median over jobs of compile time / job time

		// Exploration.
		l("symex.explore_ms", "ms", "lower"),
		l("symex.paths", "count", "lower"),
		l("symex.forks", "count", "lower"),
		l("symex.instrs", "count", "lower"),
		l("symex.instrs_per_s", "1/s", "higher"),
		l("symex.states_explored", "count", "lower"),
		l("symex.max_live_states", "count", "lower"),
		l("symex.truncated_paths", "count", "lower"),
		l("expr.nodes_built", "count", "lower"),
		l("expr.intern_hit_ratio", "ratio", "higher"),

		// Solver: front end (warm answers), then search.
		l("solver.queries", "count", "lower"),
		l("solver.partition_hits", "count", "higher"),
		l("solver.cache_hits", "count", "higher"),
		l("solver.model_reuse_hits", "count", "higher"),
		l("solver.warm_answer_ratio", "ratio", "higher"),
		l("solver.replay_ms", "ms", "lower"),
		l("solver.replay_share", "ratio", "lower"),
		l("solver.search_ms", "ms", "lower"),
		l("solver.search_share", "ratio", "lower"),
		l("solver.assignments", "count", "lower"),
		l("solver.nodes", "count", "lower"),
		l("solver.failures", "count", "lower"),
		l("solver.tape_compiles", "count", "lower"),
		l("solver.tape_reuses", "count", "higher"),
		l("solver.tape_slots", "count", "lower"),
		l("solver.portfolio_races", "count", "lower"),
		l("solver.portfolio_wins", "count", "higher"),
		l("solver.max_group_vars", "count", "lower"),

		// Served path.
		l("verdicts.key_ms", "ms", "lower"),
		l("verdicts.get_ms", "ms", "lower"),
		l("verdicts.put_ms", "ms", "lower"),
		l("verdicts.hit_ratio", "ratio", "higher"),
		l("verdicts.entry_bytes", "count", "lower"),
		l("daemon.roundtrip_overhead_ms", "ms", "lower"),
		l("daemon.frame_encode_ms", "ms", "lower"),
		l("daemon.frame_decode_ms", "ms", "lower"),
		l("daemon.request_bytes", "count", "lower"),
		l("daemon.reply_bytes", "count", "lower"),
		l("daemon.compile_cache_hit_ratio", "ratio", "higher"),
		l("daemon.compile_cache_evictions", "count", "lower"),
		l("daemon.verdict_hit_ratio", "ratio", "higher"),
		l("daemon.solver_cache_hit_ratio", "ratio", "higher"),
		l("daemon.builder_rotations", "count", "lower"),
		l("daemon.rejected", "count", "lower"),
		l("daemon.repeat_p50_ms", "ms", "lower"),
		l("daemon.engine_warm_p50_ms", "ms", "lower"),
		l("daemon.edit_p50_ms", "ms", "lower"),
		l("daemon.compile_p50_ms", "ms", "lower"),

		// Cluster path.
		l("symex.split_ms", "ms", "lower"),
		l("symex.encode_ms", "ms", "lower"),
		l("symex.decode_ms", "ms", "lower"),
		l("symex.state_bytes", "count", "lower"),
		l("symex.merge_ms", "ms", "lower"),
		l("dist.verify_ms", "ms", "lower"),
		l("dist.split_states", "count", "higher"),
		l("dist.shards_sent", "count", "higher"),
		l("dist.shard_bytes", "count", "lower"),
		l("dist.overhead_ratio", "ratio", "lower"),

		// Guards: t_run (Table 1 row 3) and the process itself.
		l("vm.compile_ms", "ms", "lower"),
		l("vm.run_ms", "ms", "lower"),
		l("vm.instrs", "count", "lower"),
		l("interp.run_ms", "ms", "lower"),
		l("proc.peak_rss_mb", "MB", "lower"),
		l("proc.gc_cycles", "count", "lower"),
		l("proc.gc_pause_ms", "ms", "lower"),
		l("proc.mallocs", "count", "lower"),
		l("trace.overhead_ratio", "ratio", "lower"),
	)
	return out
}

// workloadDef names one workload and records why it is in the set.
type workloadDef struct {
	Name string
	Why  string
	// PassesPer10s is the pass count that fills ten seconds on the
	// 2-core box this was sized on. Run length is always a count: the
	// -seconds flag scales this number, a clock never ends a run.
	PassesPer10s int
}

var workloads = []workloadDef{
	{"corpus_sweep", "Figure 4 as a cold CLI user pays it: every corpus and trap program at all five levels; the typical job is compile-bound, throughput is exploration-bound", 3},
	{"deep_paths", "Table 1's regime: path counts exponential in input size with trivial solver groups, so state fork/clone and the solver's warm front end dominate", 10},
	{"solver_hard", "a handful of paths and up to millions of assignments per job, some past the budget: backtracking search and the portfolio race dominate", 16},
	{"served_mix", "the overifyd path: two closed-loop clients against one daemon over a unix socket, mixing verdict-store hits, warm-engine runs, source edits and compiles", 20},
	{"cluster_split", "dist.Verify over two worker daemons, each cell cold then warm: split, state codec, JSON transport and merge, checked against the serial render", 20},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
