// Command symbex symbolically verifies a MiniC program: it compiles at
// the chosen level and exhaustively explores all paths for a bounded
// symbolic input, reporting paths, solver statistics and any bugs found
// (each with a concrete reproducing input).
//
// Usage:
//
//	symbex [-O level] [-passes spec] [-n bytes] [-timeout d] [-j workers] file.c
//	symbex [-O level] [-n bytes] [-j workers] -prog tr
//	symbex -check div-by-zero,bounds -slice file.c
//	symbex -daemon /tmp/overifyd.sock file.c
//	symbex -cluster /tmp/w1.sock,/tmp/w2.sock -prog uniq
//
// -check verifies only the named check kinds; -slice additionally
// deletes, before exploration, everything no kept check (or native
// trap) can observe — see the README's slicing section.
//
// -passes overrides the level's pass pipeline with an explicit spec,
// e.g. "mem2reg,fixpoint:12(ifconvert,simplify,cse,simplifycfg,dce)";
// the level still supplies the cost model. -j sets the number of
// symbolic-execution workers.
//
// -daemon turns symbex into a thin client of a running overifyd: the
// request is shipped over the daemon's socket and served from its warm
// caches (compiled modules, solver cache, verdict store), which makes
// repeat verifies of unchanged content near-instant. -watch composes
// with it: each edit becomes one daemon request.
//
// -cluster turns symbex into a distributed-frontier coordinator: it
// explores a breadth-first prefix locally, serializes the pending
// frontier, ships one shard to each listed overifyd worker over the
// packet protocol, and merges the workers' reports into totals equal
// to a serial run's. -split sets the frontier width the prefix aims
// for; -normalized prints the schedule-invariant conformance render
// (counters + bug identities, witness bytes elided) instead of the
// human report, so a serial and a cluster run of the same program can
// be diffed byte-for-byte — the CI distributed-smoke job does exactly
// that.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the
// whole run (the memory profile samples allocations, for `go tool pprof
// -sample_index=alloc_space`); without them nothing is written.
//
// Exit status: 0 verified, 1 bugs found, 3 inconclusive (timed out,
// truncated, or a solver query undecided), and 2 when the run itself
// failed — a usage error, a compile error, a missing entry function, a
// refused dial — so a failure never reads as a verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"overify/internal/core"
	"overify/internal/daemon"
	"overify/internal/dist"
	"overify/internal/pipeline"
	"overify/internal/symex"
	"overify/internal/verdicts"
	"overify/internal/watch"
)

// jobTimeoutMS converts the -timeout flag to the job's millisecond
// field. The field's zero means "no budget", so a positive budget below
// one millisecond rounds up to 1 ms instead of truncating to none.
func jobTimeoutMS(d time.Duration) int64 {
	if d > 0 && d < time.Millisecond {
		return 1
	}
	return d.Milliseconds()
}

func main() {
	level := flag.String("O", "-OVERIFY", "optimization level")
	passSpec := flag.String("passes", "", "explicit pass pipeline, e.g. mem2reg,fixpoint(ifconvert,simplify,cse,simplifycfg,dce)")
	n := flag.Int("n", 4, "symbolic input bytes (the paper uses 2-10)")
	timeout := flag.Duration("timeout", 60*time.Second, "exploration budget")
	workers := flag.Int("j", 1, "exploration workers (-1 = one per CPU)")
	progName := flag.String("prog", "", "verify a bundled corpus program")
	entry := flag.String("entry", "umain", "entry function (signature: int f(unsigned char*, int))")
	checkSpec := flag.String("check", "", "verify only these check kinds (comma-separated, e.g. div-by-zero,bounds; default all)")
	sliceFlag := flag.Bool("slice", false, "verification-aware slicing: delete whatever the kept checks cannot observe before exploring")
	verdictDir := flag.String("verdict-cache", "", "content-addressed verdict store directory (e.g. .overify-cache); unchanged content skips exploration")
	daemonAddr := flag.String("daemon", "", "verify through a running overifyd at this unix socket instead of in-process")
	clusterAddrs := flag.String("cluster", "", "comma-separated overifyd unix sockets: coordinate a distributed-frontier verification across these workers")
	splitStates := flag.Int("split", 0, "with -cluster: frontier states the split prefix aims for before sharding (default 8 per worker)")
	normalized := flag.Bool("normalized", false, "print the normalized conformance render (schedule-invariant) instead of the human report")
	portfolio := flag.Int("portfolio", 0, "race this many solver configurations once a group stalls past 4096 assignments, first answer wins (0 = fixed order)")
	watchFlag := flag.Bool("watch", false, "poll the source file for changes and re-verify on each edit (file input only; implies -verdict-cache unless -daemon)")
	watchCount := flag.Int("watch-count", 0, "with -watch: exit after this many verifies, with the final verify's exit status (0 = watch forever)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()
	startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()
	if *n < 1 {
		fatal(fmt.Errorf("-n %d: want at least 1 symbolic input byte", *n))
	}

	job := core.Job{
		Level: *level, Entry: *entry,
		InputBytes: *n, TimeoutMS: jobTimeoutMS(*timeout),
		Workers: *workers,
		Slice:   *sliceFlag, Checks: *checkSpec,
		Portfolio:   *portfolio,
		SplitStates: *splitStates,
	}
	var file string
	switch {
	case *progName != "":
		job.Prog = *progName
	case flag.NArg() == 1:
		file = flag.Arg(0)
		data, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		job.Name, job.Source = file, string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: symbex [-O level] [-n bytes] file.c | -prog name")
		exit(2)
	}
	if *watchFlag && file == "" {
		fatal(fmt.Errorf("-watch needs a source file to poll; corpus programs do not change"))
	}
	if *watchCount != 0 && !*watchFlag {
		fatal(fmt.Errorf("-watch-count only makes sense with -watch"))
	}
	var err error
	if job.Passes, err = pipeline.LoadSpecArg(*passSpec); err != nil {
		fatal(err)
	}
	// Resolving up front rejects a bad flag before any daemon is dialed,
	// whichever shape runs the job. From here on the job carries its
	// source text: a daemon or worker need not bundle the same corpus.
	resolved, err := job.Resolve()
	if err != nil {
		fatal(err)
	}
	name, nbytes := resolved.Name, resolved.Verify.InputBytes
	job.Prog, job.Name, job.Source = "", name, resolved.Source

	if *clusterAddrs != "" {
		// Coordinator mode: split the frontier here, farm shards to the
		// listed workers, merge. One-shot — no watch loop.
		switch {
		case *daemonAddr != "":
			fatal(fmt.Errorf("-cluster and -daemon are mutually exclusive"))
		case *watchFlag:
			fatal(fmt.Errorf("-cluster does not compose with -watch"))
		}
		var clients []*daemon.Client
		for _, addr := range strings.Split(*clusterAddrs, ",") {
			client, err := daemon.Dial(strings.TrimSpace(addr))
			if err != nil {
				fatal(err)
			}
			defer client.Close()
			clients = append(clients, client)
		}
		res, err := dist.Verify(clients, job)
		if err != nil {
			fatal(err)
		}
		// Provenance goes to stderr so stdout stays diffable against a
		// serial -normalized run.
		fmt.Fprintf(os.Stderr, "cluster: %d workers, %d frontier states split, %d shards shipped\n",
			res.Cluster, res.SplitStates, res.ShardsSent)
		if *normalized {
			fmt.Print(dist.NormalizedRender(res.Report))
		} else {
			reportCluster(name, *level, nbytes, res)
		}
		if code := reportExitCode(res.Report); code != 0 {
			exit(code)
		}
		return
	}

	// failed reports one run's error: fatal for a one-shot run, a logged
	// failed iteration under -watch.
	failed := func(err error) int {
		if !*watchFlag {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "symbex:", err)
		return 2
	}
	// run verifies src once and returns the exit code its verdict calls for.
	var run func(src string) int
	if *daemonAddr != "" {
		if *normalized {
			fatal(fmt.Errorf("-normalized needs the full report; the daemon returns its canonical render (drop -daemon, or use -cluster)"))
		}
		// Thin-client mode: all caching lives daemon-side.
		client, err := daemon.Dial(*daemonAddr)
		if err != nil {
			fatal(err)
		}
		defer client.Close()
		run = func(src string) int {
			job.Source = src
			reply, err := client.Verify(&job)
			if err != nil {
				return failed(err)
			}
			reportDaemon(client.ServerName, reply, nbytes)
			return exitCode(reply.Verdict)
		}
	} else {
		var store *verdicts.Store
		if dir := *verdictDir; dir != "" || *watchFlag {
			store, err = verdicts.Open(dir)
			if err != nil {
				fatal(err)
			}
		}
		opts := resolved.Verify
		opts.Verdicts = store
		run = func(src string) int {
			resolved.Source = src
			c, err := resolved.Compile()
			if err != nil {
				return failed(err)
			}
			rep, err := c.Verify(resolved.Entry, opts)
			if err != nil {
				return failed(err)
			}
			if *normalized {
				fmt.Print(dist.NormalizedRender(rep))
			} else {
				report(name, c.Level, nbytes, c, rep, store)
			}
			return reportExitCode(rep)
		}
	}

	if !*watchFlag {
		if code := run(job.Source); code != 0 {
			exit(code)
		}
		return
	}

	// Watch mode: verify now, then re-verify on every change. Changes
	// are detected by (mtime, size) signature — mtime alone misses an
	// edit landing within the same timestamp granularity as the last
	// read — and content is read with a stat-read-stat stability check
	// so a save racing the poll never verifies torn source. With warm
	// caches attached (a verdict store, or a daemon), an edit that
	// touches nothing reachable from the entry re-verifies in cache-hit
	// time.
	where := "in-process"
	if *daemonAddr != "" {
		where = "daemon " + *daemonAddr
	}
	fmt.Printf("watching %s (poll %s, %s) — ctrl-c to stop\n", file, watchPoll, where)
	var last watch.Sig
	ran := 0
	for {
		sig, err := watch.StatSig(file)
		if err == nil && sig.Changed(last) {
			data, stableSig, err := watch.ReadStable(file)
			if err != nil {
				// Leave `last` untouched so the next poll retries.
				fmt.Fprintln(os.Stderr, "symbex:", err)
			} else {
				last = stableSig
				code := run(string(data))
				ran++
				fmt.Println()
				if *watchCount > 0 && ran >= *watchCount {
					if code != 0 {
						exit(code)
					}
					return
				}
			}
		}
		time.Sleep(watchPoll)
	}
}

// watchPoll is the -watch polling interval.
const watchPoll = 300 * time.Millisecond

// reportDaemon prints a daemon verify reply: the canonical render plus
// where the answer came from.
func reportDaemon(server string, r *daemon.VerifyReply, n int) {
	fmt.Printf("%s at %s, %d symbolic input bytes (via %s, generation %d)\n",
		r.Name, r.Level, n, server, r.Generation)
	fmt.Printf("  compile:        %.1fms", r.CompileMS)
	if r.CompileCacheHit {
		fmt.Printf("  (module cache hit)")
	}
	fmt.Println()
	fmt.Printf("  verify:         %.1fms", r.VerifyMS)
	switch {
	case r.VerdictCacheHit:
		fmt.Printf("  (verdict cache hit — exploration skipped)")
	case r.SolverQueries > 0:
		fmt.Printf("  (%d of %d solver queries answered without a fresh search)",
			r.SolverQueries-r.SolverSearches, r.SolverQueries)
	}
	fmt.Println()
	fmt.Print(indent(r.Render, "  "))
}

// reportCluster prints a merged distributed report: the coordinator
// has no single compile/verify wall-clock story to tell (each worker
// timed its own shard), so it reports the schedule-invariant totals
// plus the cluster shape.
func reportCluster(name, level string, n int, res *dist.Result) {
	s := res.Report.Stats
	fmt.Printf("%s at %s, %d symbolic input bytes (cluster of %d workers)\n", name, level, n, res.Cluster)
	fmt.Printf("  frontier:       %d states split, %d shards shipped\n", res.SplitStates, res.ShardsSent)
	fmt.Printf("  paths:          %d completed, %d errored, %d truncated\n", s.Paths, s.ErrorPaths, s.TruncatedPaths)
	fmt.Printf("  instructions:   %d\n", s.Instrs)
	fmt.Printf("  blocks:         %d covered (cluster union)\n", s.CoveredBlocks)
	fmt.Printf("  solver:         %d queries, %d sat, %d unsat", s.SolverStats.Queries, s.SolverStats.Sat, s.SolverStats.Unsat)
	if s.SolverStats.PortfolioRaces > 0 {
		fmt.Printf(", %d portfolio races (%d won by a non-default order)",
			s.SolverStats.PortfolioRaces, s.SolverStats.PortfolioWins)
	}
	fmt.Println()
	printBugs(res.Report)
}

// printBugs prints a report's verdict: clean, each bug with its
// reproducing input, and an inconclusive line saying why when some path
// or query was not decided.
func printBugs(rep *symex.Report) {
	v, why := rep.Verdict()
	switch {
	case v == symex.Verified:
		fmt.Printf("  bugs:           none — all %d paths verified\n", rep.Stats.Paths)
	case len(rep.Bugs) == 0:
		fmt.Printf("  bugs:           none found in %d paths\n", rep.Stats.Paths)
	default:
		fmt.Printf("  bugs:           %d\n", len(rep.Bugs))
	}
	for _, b := range rep.Bugs {
		fmt.Printf("    [%s] %s\n", b.Kind, b.Msg)
		if b.Input != nil {
			fmt.Printf("      reproducing input: %q\n", string(b.Input))
		}
	}
	if v == symex.Inconclusive {
		fmt.Printf("  inconclusive:   %s\n", strings.Join(why, ", "))
	}
}

// exitCode is the exit status a verdict, as symex.Verdict.String
// spells it, calls for: 0 verified, 1 bugs, 3 inconclusive. A verdict
// it does not know is inconclusive.
func exitCode(verdict string) int {
	switch verdict {
	case symex.Verified.String():
		return 0
	case symex.Bugs.String():
		return 1
	}
	return 3
}

// reportExitCode is the exit status rep's verdict calls for.
func reportExitCode(rep *symex.Report) int {
	v, _ := rep.Verdict()
	return exitCode(v.String())
}

func indent(s, pad string) string {
	var out []byte
	atStart := true
	for i := 0; i < len(s); i++ {
		if atStart && s[i] != '\n' {
			out = append(out, pad...)
		}
		out = append(out, s[i])
		atStart = s[i] == '\n'
	}
	return string(out)
}

func report(name string, lvl pipeline.Level, n int, c *core.Compiled, rep *symex.Report, store *verdicts.Store) {
	s := rep.Stats
	if s.VerdictCacheHits > 0 {
		fmt.Printf("%s at %s, %d symbolic input bytes\n", name, lvl, n)
		fmt.Printf("  compile:        %s  (%d pass invocations, %d skipped, %.0f%% analysis-cache hits)\n",
			c.Result.CompileTime, c.Result.PassInvocations, c.Result.SkippedFuncRuns,
			100*c.Result.Analysis.HitRate())
		fmt.Printf("  verdicts:       cache hit — exploration skipped (%d paths, %d queries reproduced from %s)\n",
			s.Paths, s.SolverStats.Queries, store.Dir())
	} else {
		fmt.Printf("%s at %s, %d symbolic input bytes, %d workers\n", name, lvl, n, s.Workers)
		fmt.Printf("  compile:        %s  (%d pass invocations, %d skipped, %.0f%% analysis-cache hits)\n",
			c.Result.CompileTime, c.Result.PassInvocations, c.Result.SkippedFuncRuns,
			100*c.Result.Analysis.HitRate())
		fmt.Printf("  verify:         %s", s.Elapsed)
		if s.TimedOut {
			fmt.Printf("  (TIMED OUT)")
		}
		fmt.Println()
		fmt.Printf("  paths:          %d completed, %d errored, %d truncated\n",
			s.Paths, s.ErrorPaths, s.TruncatedPaths)
		fmt.Printf("  instructions:   %d\n", s.Instrs)
		fmt.Printf("  forks:          %d (max %d live states)\n", s.Forks, s.MaxLiveStates)
		fmt.Printf("  states:         %d explored, %d blocks covered\n", s.StatesExplored, s.CoveredBlocks)
		fmt.Printf("  solver:         %d queries, %d cache hits, %d model reuses, %d failures\n",
			s.SolverStats.Queries, s.SolverStats.CacheHits,
			s.SolverStats.ModelReuseHits, s.SolverStats.Failures)
		switch {
		case store == nil:
		case verdicts.Cacheable(rep):
			fmt.Printf("  verdicts:       miss — outcome stored in %s (%d entries)\n", store.Dir(), store.Stats().Entries)
		default:
			fmt.Printf("  verdicts:       miss — inconclusive, not stored\n")
		}
	}
	printBugs(rep)
}

// fatal reports an error that stops the run and exits 2, the status of
// a run that failed.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symbex:", err)
	exit(2)
}

// stopProfiles finishes the profiles -cpuprofile and -memprofile asked
// for; every way out of the program calls it.
var stopProfiles = func() {}

// exit leaves with code after writing the profiles.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// startProfiles starts the CPU profile and arranges for stopProfiles to
// end it and to write the allocation profile; an empty name skips that
// profile.
func startProfiles(cpu, mem string) {
	if mem != "" {
		runtime.MemProfileRate = 64 << 10 // sample more often than the default 512 KB
	}
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	stopProfiles = func() {
		stopProfiles = func() {}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}
	}
}
