package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareRow is one workload x metric line of the gate.
type compareRow struct {
	Workload, Metric string
	Old, New         float64
	Worse            float64 // share of the old value by which the new one is worse (negative: better)
	Spread           float64 // the wider of the two recorded pass-to-pass spreads
	Bound            float64
	Verdict          string // "ok", "REGRESSION" or "unresolved"
}

// worseBy is how much worse new is than old, as a share of old, in the
// metric's own direction.
func worseBy(m metricDef, old, new float64) float64 {
	if old == 0 {
		if new == old {
			return 0
		}
		// From nothing to something: infinitely worse for a
		// lower-is-better metric (failed_share leaving 0), better
		// otherwise.
		if (m.Better == "lower") == (new > old) {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	d := (new - old) / math.Abs(old)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// recordedSpread is the interquartile distance of a metric's per-pass
// values as a share of its headline value, as the run recorded it.
func recordedSpread(v metricValue) float64 {
	if v.Value == 0 {
		return 0
	}
	return math.Abs((v.Q3 - v.Q1) / v.Value)
}

// judge applies the gate's rule to one row. A difference counts as a
// regression only when it exceeds both the metric's bound and the noise
// the runs themselves recorded; when that noise is wider than the bound
// the row cannot be called unchanged either, and is "unresolved".
func judge(worse, spread, bound float64) string {
	switch {
	case worse > bound && worse > spread:
		return "REGRESSION"
	case spread > bound:
		return "unresolved"
	}
	return "ok"
}

// setupFloorS is the floor under setup_s's bound: a workload that sets
// up in 50 ms is not regressed by 10 ms more.
const setupFloorS = 0.2

// compareLedgers lines the two ledgers up workload by workload and
// metric by metric.
func compareLedgers(old, new *ledger) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		ow, nw := old.workload(w.Name), new.workload(w.Name)
		if ow == nil || nw == nil {
			continue
		}
		for _, m := range endToEnd {
			ov, nv := ow.Metrics[m.Name], nw.Metrics[m.Name]
			row := compareRow{
				Workload: w.Name, Metric: m.Name, Old: ov.Value, New: nv.Value,
				Worse:  worseBy(m, ov.Value, nv.Value),
				Spread: math.Max(recordedSpread(ov), recordedSpread(nv)),
				Bound:  boundFor(m, w.Name),
			}
			row.Verdict = judge(row.Worse, row.Spread, row.Bound)
			if m.Name == "setup_s" && nv.Value-ov.Value < setupFloorS && row.Verdict == "REGRESSION" {
				row.Verdict = "ok"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// sameRunLength refuses to line up ledgers that did not run the same
// amount of the same work.
func sameRunLength(old, new *ledger) error {
	a, b := old.Env, new.Env
	if a.Seconds != b.Seconds || a.Scale != b.Scale {
		return fmt.Errorf("ledgers ran different lengths: -seconds %d -scale %s vs -seconds %d -scale %s",
			a.Seconds, a.Scale, b.Seconds, b.Scale)
	}
	return nil
}

// printCompare writes the table and reports whether any row regressed.
func printCompare(w io.Writer, rows []compareRow) (regressed bool) {
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "old", "new", "worse", "spread", "bound", "verdict")
	count := map[string]int{}
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %8.2f%% %7.2f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict)
		count[r.Verdict]++
	}
	keys := make([]string, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %d  ", k, count[k])
	}
	fmt.Fprintln(w)
	return count["REGRESSION"] > 0
}

func compareFiles(oldPath, newPath string) error {
	var old, new ledger
	if err := readJSON(oldPath, &old); err != nil {
		return err
	}
	if err := readJSON(newPath, &new); err != nil {
		return err
	}
	if err := sameRunLength(&old, &new); err != nil {
		return err
	}
	fmt.Printf("old: commit %s seed %d   new: commit %s seed %d\n",
		old.Env.Commit, old.Env.Seed, new.Env.Commit, new.Env.Seed)
	if printCompare(os.Stdout, compareLedgers(&old, &new)) {
		return fmt.Errorf("at least one end-to-end metric is worse by more than its bound")
	}
	return nil
}
