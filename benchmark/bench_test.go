package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func ids(jobs []coldJob) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.id()
	}
	return out
}

// Job lists are a pure function of the seed: the same seed gives the
// same order, another seed gives another order of the same cells.
func TestJobListsPureFunctionOfSeed(t *testing.T) {
	sweep, err := corpusSweepJobs(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != (57+7)*5 {
		t.Errorf("corpus_sweep has %d jobs, want every corpus and trap program at five levels = %d", len(sweep), (57+7)*5)
	}
	for name, jobs := range map[string][]coldJob{
		"corpus_sweep": sweep,
		"deep_paths":   cellsToJobs(deepPathsCells),
		"solver_hard":  cellsToJobs(solverHardCells),
		"cluster":      cellsToJobs(clusterCells),
	} {
		a, b, c := ids(shuffled(jobs, 7)), ids(shuffled(jobs, 7)), ids(shuffled(jobs, 8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different orders", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same order", name)
		}
		sort.Strings(a)
		sort.Strings(c)
		if !reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 run different cells", name)
		}
	}
}

func TestServedScheduleIsPureFunctionOfSeed(t *testing.T) {
	keys := servedKeys(false)
	slots := servedSlots(len(keys))
	if len(keys) != 90 || len(slots) != 300 {
		t.Fatalf("%d keys, %d slots; want 90 and 300", len(keys), len(slots))
	}
	share := map[string]int{}
	for _, s := range slots {
		share[s.class]++
	}
	want := map[string]int{classRepeat: 120, classEngineWarm: 90, classEdit: 60, classCompile: 30}
	if !reflect.DeepEqual(share, want) {
		t.Errorf("class mix %v, want %v (40/30/20/10)", share, want)
	}
	a := servedSchedule(keys, slots, 5, 3)
	if !reflect.DeepEqual(a, servedSchedule(keys, slots, 5, 3)) {
		t.Error("same seed and pass gave two schedules")
	}
	for _, other := range [][]servedRequest{servedSchedule(keys, slots, 6, 3), servedSchedule(keys, slots, 5, 4)} {
		if reflect.DeepEqual(a, other) {
			t.Error("a different seed or pass gave the same schedule")
		}
		seen := map[int]bool{}
		for _, r := range other {
			seen[r.slot] = true
		}
		if len(seen) != len(slots) {
			t.Errorf("schedule fills %d of %d slots", len(seen), len(slots))
		}
	}
	// Edits must never repeat across passes, or they would turn into
	// repeats; everything else must be sent unedited.
	edits := map[string]bool{}
	for p := 0; p < 3; p++ {
		for _, r := range servedSchedule(keys, slots, 5, p) {
			s := slots[r.slot]
			if s.class != classEdit {
				if r.source != keys[s.key].prog.Src {
					t.Fatalf("%s request carries edited source", s.class)
				}
				continue
			}
			if edits[r.source] || r.source == keys[s.key].prog.Src {
				t.Fatal("an edit repeated, or edited nothing")
			}
			edits[r.source] = true
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := recordedSpread(metricValue{Value: 5.5, Q1: 2.75, Q3: 8.25}); got != 1 {
		t.Errorf("recorded spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if median(nil) != 0 || percentile(nil, 95) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must read 0, not NaN")
	}
}

func TestBoundsPerWorkload(t *testing.T) {
	for _, m := range endToEnd {
		serial, conc := boundFor(m, "deep_paths"), boundFor(m, "served_mix")
		switch m.Name {
		case "work_units", "decided_share":
			if serial != 0 || conc <= 0 {
				t.Errorf("%s: bounds %v serial, %v concurrent; want 0 and > 0", m.Name, serial, conc)
			}
		case "alloc_mb":
			if serial >= conc {
				t.Errorf("alloc_mb: serial bound %v must be tighter than %v", serial, conc)
			}
		default:
			if serial != conc {
				t.Errorf("%s: serial bound %v differs from %v", m.Name, serial, conc)
			}
		}
	}
}

func TestCompareArithmetic(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower"}
	higher := metricDef{Name: "x_per_s", Better: "higher"}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if got := worseBy(lower, 100, 110); !near(got, 0.10) {
		t.Errorf("lower-is-better 100 -> 110: worse by %v, want 0.10", got)
	}
	if got := worseBy(higher, 100, 90); !near(got, 0.10) {
		t.Errorf("higher-is-better 100 -> 90: worse by %v, want 0.10", got)
	}
	if got := worseBy(higher, 100, 120); !near(got, -0.20) {
		t.Errorf("higher-is-better 100 -> 120: worse by %v, want -0.20", got)
	}
	if got := worseBy(lower, 0, 0.01); !math.IsInf(got, 1) {
		t.Errorf("failed_share leaving 0 must be infinitely worse, got %v", got)
	}
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.05, 0.01, 0.10, "ok"},
		{0.12, 0.01, 0.10, "REGRESSION"},
		{0.12, 0.20, 0.10, "unresolved"}, // the runs' own noise is wider than the bound
		{0.30, 0.20, 0.10, "REGRESSION"}, // ... but not wider than this difference
		{-0.30, 0.20, 0.10, "unresolved"},
		{0, 0, 0, "ok"},
		{0.001, 0, 0, "REGRESSION"}, // a counter with bound 0 moved
	} {
		if got := judge(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("judge(worse %v, spread %v, bound %v) = %s, want %s", c.worse, c.spread, c.bound, got, c.want)
		}
	}
}

func ledgerWith(workload string, values map[string]float64) *ledger {
	rep := &workloadReport{Name: workload, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		v := values[m.Name]
		rep.Metrics[m.Name] = metricValue{Value: v, Q1: v, Q3: v, Unit: m.Unit}
	}
	return &ledger{Schema: ledgerSchema, Workloads: []*workloadReport{rep}}
}

func TestCompareLedgers(t *testing.T) {
	base := map[string]float64{
		"setup_s": 0.05, "verdicts_per_s": 100, "verdict_p50_ms": 10, "verdict_p95_ms": 50,
		"decided_share": 1, "failed_share": 0, "work_units": 1000, "alloc_mb": 100,
	}
	verdicts := func(change map[string]float64) map[string]string {
		next := map[string]float64{}
		for k, v := range base {
			next[k] = v
		}
		for k, v := range change {
			next[k] = v
		}
		out := map[string]string{}
		for _, r := range compareLedgers(ledgerWith("deep_paths", base), ledgerWith("deep_paths", next)) {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	for metric, v := range verdicts(nil) {
		if v != "ok" {
			t.Errorf("identical ledgers: %s is %s", metric, v)
		}
	}
	got := verdicts(map[string]float64{
		"setup_s":        0.10, // twice as slow, but under the 0.2 s floor
		"work_units":     1001, // serial counter: bound 0
		"verdicts_per_s": 200,  // better
		"failed_share":   0.01,
		"alloc_mb":       101, // within 2%
	})
	want := map[string]string{
		"setup_s": "ok", "work_units": "REGRESSION", "verdicts_per_s": "ok", "failed_share": "REGRESSION",
		"alloc_mb": "ok", "verdict_p50_ms": "ok", "verdict_p95_ms": "ok", "decided_share": "ok",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts %v\nwant %v", got, want)
	}
	a, b := ledgerWith("deep_paths", base), ledgerWith("deep_paths", base)
	a.Env.Seconds, b.Env.Seconds = 10, 5
	if sameRunLength(a, b) == nil {
		t.Error("ledgers of different run lengths must not compare")
	}
}

// BENCHMARK.json is written by hand; it must list exactly what the
// tables in metrics.go define.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, metrics.go has %q (why must match and fit 200 characters)", i, got.Name, w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound) {
				t.Errorf("%s: bound in BENCHMARK.json differs from metrics.go's %v", m.Name, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, contractEndToEnd(), true)
	check("per_layer", spec.PerLayer, perLayer(), false)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

func TestExpectFiles(t *testing.T) {
	traps, err := trapPrograms()
	if err != nil {
		t.Fatal(err)
	}
	if len(traps) != 7 {
		t.Errorf("%d trap programs, want 7", len(traps))
	}
	for _, p := range traps {
		if p.Bytes <= 0 || len(p.Expect) == 0 {
			t.Errorf("%s: expects %d bytes and %d bugs; a trap program has at least one of each", p.Name, p.Bytes, len(p.Expect))
		}
	}
	for _, bad := range []string{"bug out-of-bounds access @ @umain\n", "bytes 3\nbug flux overflow @ @umain\n", "bytes 3\nwarn x\n"} {
		if _, _, err := parseExpect([]byte(bad)); err == nil {
			t.Errorf("parseExpect accepted %q", bad)
		}
	}
}

// The smoke scale runs all five workloads (one pass, trimmed lists),
// untraced and traced, in well under ten seconds with nothing failed.
func TestSmoke(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	for _, w := range workloads {
		cfg := runConfig{Workload: w.Name, Seed: 11, Seconds: 10, Smoke: true, WorkDir: dir}
		rep, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.Failed != 0 || len(rep.Failures) != 0 || rep.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, rep.Attempted, rep.Failed, rep.Failures)
		}
		line := resultLine(rep)
		if !line.Correct || len(line.Metrics) != len(contractEndToEnd()) {
			t.Errorf("%s: result line correct=%v with %d metrics", w.Name, line.Correct, len(line.Metrics))
		}
		for _, m := range contractEndToEnd() {
			if v := rep.Metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %v; an end-to-end metric is never 0", w.Name, m.Name, v)
			}
		}
		if rep.Metrics["failed_share"].Value != 0 {
			t.Errorf("%s: failed_share = %v", w.Name, rep.Metrics["failed_share"].Value)
		}

		cfg.Trace, cfg.TraceDir = true, filepath.Join(dir, "trace")
		rep, err = runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if rep.Failed != 0 || len(rep.Layers) != len(perLayer()) || rep.Metrics != nil {
			t.Errorf("%s traced: failed %d, %d layers, end-to-end metrics present: %v", w.Name, rep.Failed, len(rep.Layers), rep.Metrics != nil)
		}
		if len(resultLine(rep).Metrics) != len(perLayer()) {
			t.Errorf("%s traced: result line must carry every per-layer metric", w.Name)
		}
		layer := map[string]string{
			"corpus_sweep": "core.compile_ms", "deep_paths": "symex.explore_ms", "solver_hard": "solver.search_ms",
			"served_mix": "daemon.roundtrip_overhead_ms", "cluster_split": "dist.verify_ms",
		}[w.Name]
		if rep.Layers[layer] <= 0 || rep.Layers["trace.overhead_ratio"] <= 0 {
			t.Errorf("%s traced: %s = %v, trace.overhead_ratio = %v", w.Name, layer, rep.Layers[layer], rep.Layers["trace.overhead_ratio"])
		}
		data, err := os.ReadFile(rep.TraceFile)
		if err != nil || !strings.Contains(string(data), `"traceEvents"`) || !strings.Contains(string(data), `"det"`) {
			t.Errorf("%s: trace file %q unreadable or not Chrome trace JSON (%v)", w.Name, rep.TraceFile, err)
		}
	}
	// The budget is 10s on an idle box (it takes about 4s); the test
	// fails only at three times that, because go test ./... runs this
	// beside every other package on boxes that are not idle.
	d := time.Since(start)
	t.Logf("smoke run of five workloads, untraced and traced: %v", d)
	if d > 30*time.Second {
		t.Errorf("smoke run took %v, the budget is 10s", d)
	}
}

// A wrong answer must surface as a failed job: the oracle is only
// worth its cost if it can fail.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	traps, err := trapPrograms()
	if err != nil {
		t.Fatal(err)
	}
	var div program
	for _, p := range traps {
		if p.Name == "div-by-input" {
			div = p
		}
	}
	res, err := runCold(coldJob{Prog: div, Level: allLevels[0], Bytes: div.Bytes}, corpusSweepBudgets)
	if err != nil {
		t.Fatal(err)
	}
	if miss := checkBugs(div, res.rep.Bugs); len(miss) != 0 {
		t.Fatalf("div-by-input at -O0 misses its own expectations: %v", miss)
	}
	if miss := checkBugs(div, nil); len(miss) != 1 {
		t.Errorf("a clean verdict on a trap program gave %v, want one missed expectation", miss)
	}
	clean := div
	clean.Expect = nil
	if miss := checkBugs(clean, res.rep.Bugs); len(miss) != 1 {
		t.Errorf("a bug on a program expected clean gave %v, want one unexpected bug", miss)
	}
	ref, err := newReference(div)
	if err != nil {
		t.Fatal(err)
	}
	bug := res.rep.Bugs[0]
	if m := ref.replayWitness(bug); m != "" {
		t.Errorf("true witness rejected: %s", m)
	}
	bug.Input = []byte{7, 7, 7}
	if m := ref.replayWitness(bug); m == "" {
		t.Error("a witness that does not trap was accepted")
	}
}
