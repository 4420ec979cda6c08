// Command benchmark is the repository's one performance ledger.
//
//	go run ./benchmark -seed S                  all five workloads, tracing off
//	go run ./benchmark -seed S -trace DIR       ... then again with spans on, for the per-layer numbers
//	go run ./benchmark -repeat 2                run the set twice and compare the two
//	go run ./benchmark -compare OLD.json NEW.json
//	go run ./benchmark -workload W -seed S -seconds N -trace 0|1
//
// The last form runs one workload in this process and ends its output
// with one JSON line; it is what the all-workloads form starts as a
// child process per workload, and what BENCHMARK.json names as the
// command. See README.md for every metric and workload by name.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

const ledgerSchema = "overify-ledger/1"

// environment is recorded in every result file: two ledgers are only
// comparable when these agree (commit aside).
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Scale      string `json:"scale"`
}

// ledger is the result file.
type ledger struct {
	Schema    string            `json:"schema"`
	Env       environment       `json:"env"`
	Workloads []*workloadReport `json:"workloads"`        // untraced: the end-to-end metrics
	Traced    []*workloadReport `json:"traced,omitempty"` // traced: the per-layer metrics
}

func (l *ledger) workload(name string) *workloadReport {
	for _, w := range l.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	// go run does not stamp the binary; ask git, which is absent or
	// fails outside a checkout.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func currentEnv(seed int64, seconds int, scale string) environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: pinProcs(), Go: runtime.Version(),
		Commit: commit(), Seed: seed, Seconds: seconds, Scale: scale,
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string
	scale    string
	out      string
	report   string
	workDir  string
	compare  bool
	repeat   int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process and end with one JSON result line")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: job order, request schedule, generated edits, oracle inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "run length the pass counts are scaled to (a count, never a clock)")
	flag.StringVar(&o.trace, "trace", "0", "0: tracing off; 1: traced run, trace files in the work dir; DIR: traced run, trace files in DIR")
	flag.StringVar(&o.scale, "scale", "full", "full, or smoke (one pass over trimmed lists)")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out", "ledger.json"), "where the all-workloads run writes its ledger")
	flag.StringVar(&o.report, "report", "", "with -workload: also write the full workload report here")
	flag.StringVar(&o.workDir, "workdir", filepath.Join("benchmark", ".work"), "scratch directory for sockets, verdict stores and traces")
	flag.BoolVar(&o.compare, "compare", false, "compare two ledgers: -compare OLD.json NEW.json")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times and compare consecutive ledgers")
	flag.Parse()

	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.scale != "full" && o.scale != "smoke" {
		return fmt.Errorf("unknown -scale %q", o.scale)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("usage: -compare OLD.json NEW.json")
		}
		return compareFiles(args[0], args[1])
	case o.workload != "":
		return runOne(o)
	}
	var prev *ledger
	for i := 0; i < o.repeat; i++ {
		out := o.out
		if o.repeat > 1 {
			out = fmt.Sprintf("%s.%d", o.out, i+1)
		}
		l, err := runAll(o, out)
		if err != nil {
			return err
		}
		if prev != nil {
			fmt.Printf("\ncompare run %d with run %d\n", i, i+1)
			if regressed := printCompare(os.Stdout, compareLedgers(prev, l)); regressed {
				return fmt.Errorf("run %d is worse than run %d beyond a bound", i+1, i)
			}
		}
		prev = l
	}
	return nil
}

// traceDir resolves the -trace flag: whether to trace and where the
// trace files go.
func (o options) traceDir() (on bool, dir string) {
	switch o.trace {
	case "", "0":
		return false, ""
	case "1":
		return true, filepath.Join(o.workDir, "trace")
	}
	return true, o.trace
}

// runOne is the contract form: one workload, in this process, one JSON
// object on the last line of standard output.
func runOne(o options) error {
	on, dir := o.traceDir()
	rep, err := runWorkload(runConfig{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Smoke: o.scale == "smoke",
		Trace: on, TraceDir: dir, WorkDir: o.workDir,
	})
	if err != nil {
		return err
	}
	printWorkload(os.Stderr, rep)
	if o.report != "" {
		if err := writeJSON(o.report, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine(rep))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// resultLine is the workload report cut down to the driver's contract:
// exactly the BENCHMARK.json end_to_end metrics untraced, exactly the
// per_layer metrics traced.
func resultLine(rep *workloadReport) result {
	r := result{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]resultValue{},
	}
	if rep.Layers != nil {
		for _, m := range perLayer() {
			r.Metrics[m.Name] = resultValue{rep.Layers[m.Name], m.Unit}
		}
		return r
	}
	for _, m := range contractEndToEnd() {
		r.Metrics[m.Name] = resultValue{rep.Metrics[m.Name].Value, m.Unit}
	}
	return r
}

// runAll runs every workload, each in its own child process so heap
// state and the resident high-water mark of one do not leak into the
// next, and writes the ledger.
func runAll(o options, out string) (*ledger, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	l := &ledger{Schema: ledgerSchema, Env: currentEnv(o.seed, o.seconds, o.scale)}
	child := func(name, trace string) (*workloadReport, error) {
		if err := os.MkdirAll(o.workDir, 0o755); err != nil {
			return nil, err
		}
		report := filepath.Join(o.workDir, name+".report.json")
		cmd := exec.Command(self,
			"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-scale", o.scale,
			"-trace", trace, "-workdir", o.workDir, "-report", report)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr // the child's own table; shown only if it fails
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w\n%s", name, err, stderr.String())
		}
		var rep workloadReport
		if err := readJSON(report, &rep); err != nil {
			return nil, err
		}
		printWorkload(os.Stdout, &rep)
		return &rep, os.Remove(report)
	}
	for _, w := range workloads {
		rep, err := child(w.Name, "0")
		if err != nil {
			return nil, err
		}
		l.Workloads = append(l.Workloads, rep)
	}
	if on, dir := o.traceDir(); on {
		for _, w := range workloads {
			rep, err := child(w.Name, dir)
			if err != nil {
				return nil, err
			}
			l.Traced = append(l.Traced, rep)
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	if err := writeJSON(out, l); err != nil {
		return nil, err
	}
	printLedger(os.Stdout, l)
	fmt.Printf("\nledger written to %s\n", out)
	failed := 0
	for _, w := range append(append([]*workloadReport(nil), l.Workloads...), l.Traced...) {
		failed += w.Failed
	}
	if failed > 0 {
		return l, fmt.Errorf("%d jobs failed; failed_share must be 0", failed)
	}
	return l, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
