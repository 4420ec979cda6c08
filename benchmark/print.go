package main

import (
	"fmt"
	"io"
	"sort"
)

// printWorkload writes one workload's section: every end-to-end metric
// by name with its unit, sample count, pass quartiles and bound, the
// undecided cells by name, and (traced) the per-layer metrics that saw
// work.
func printWorkload(w io.Writer, rep *workloadReport) {
	fmt.Fprintf(w, "\n%s  passes=%d jobs/pass=%d samples=%d set-ups=%d  (check %.2fs, timed %.2fs)\n",
		rep.Name, rep.Passes, rep.Jobs, rep.Samples, rep.SetupRuns, rep.CheckS, rep.TimedS)
	if rep.Metrics != nil {
		fmt.Fprintf(w, "  %-16s %14s %-6s %8s %14s %14s %7s\n", "metric", "value", "unit", "samples", "pass q1", "pass q3", "bound")
		for _, m := range endToEnd {
			v := rep.Metrics[m.Name]
			fmt.Fprintf(w, "  %-16s %14.4f %-6s %8d %14.4f %14.4f %6.1f%%\n",
				m.Name, v.Value, v.Unit, v.Samples, v.Q1, v.Q3, 100*v.Bound)
		}
	}
	if rep.Layers != nil {
		fmt.Fprintf(w, "  per-layer (traced run; layers this workload does not reach are 0 and not shown)\n")
		for _, m := range perLayer() {
			if v := rep.Layers[m.Name]; v != 0 {
				fmt.Fprintf(w, "  %-32s %16.4f %s\n", m.Name, v, m.Unit)
			}
		}
		fmt.Fprintf(w, "  spans (self = wall minus child spans)\n  %-32s %8s %14s %14s\n", "span", "count", "wall ms", "self ms")
		names := make([]string, 0, len(rep.Spans))
		for n := range rep.Spans {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := rep.Spans[n]
			fmt.Fprintf(w, "  %-32s %8d %14.3f %14.3f\n", n, s.Count, s.WallMS, s.SelfMS)
		}
		if rep.TraceFile != "" {
			fmt.Fprintf(w, "  trace: %s\n", rep.TraceFile)
		}
	}
	if len(rep.Undecided) > 0 {
		fmt.Fprintf(w, "  undecided (%d):\n", len(rep.Undecided))
		for _, j := range rep.Undecided {
			fmt.Fprintf(w, "    %s\n", j)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

func printLedger(w io.Writer, l *ledger) {
	e := l.Env
	fmt.Fprintf(w, "\nledger: commit %s  %s  nproc=%d GOMAXPROCS=%d  seed=%d seconds=%d scale=%s\n",
		e.Commit, e.Go, e.NProc, e.GOMAXPROCS, e.Seed, e.Seconds, e.Scale)
	fmt.Fprintf(w, "%-16s", "metric")
	for _, rep := range l.Workloads {
		fmt.Fprintf(w, " %14s", rep.Name)
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-16s", m.Name)
		for _, rep := range l.Workloads {
			fmt.Fprintf(w, " %14.4f", rep.Metrics[m.Name].Value)
		}
		fmt.Fprintf(w, "  %s\n", m.Unit)
	}
	fmt.Fprintf(w, "%-16s", "samples")
	for _, rep := range l.Workloads {
		fmt.Fprintf(w, " %14d", rep.Samples)
	}
	fmt.Fprintln(w)
	if len(l.Traced) == 0 {
		return
	}
	fmt.Fprintf(w, "\nper-layer (traced run)\n%-32s", "metric")
	for _, rep := range l.Traced {
		fmt.Fprintf(w, " %14s", rep.Name)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(perLayer()))
	for _, m := range perLayer() {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		any := false
		for _, rep := range l.Traced {
			any = any || rep.Layers[n] != 0
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "%-32s", n)
		for _, rep := range l.Traced {
			fmt.Fprintf(w, " %14.3f", rep.Layers[n])
		}
		fmt.Fprintln(w)
	}
}
