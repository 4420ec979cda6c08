// Command overifyc is the MiniC compiler driver: it compiles a source
// file (or a named corpus program) at a chosen optimization level and
// prints the resulting IR, pass statistics, or bytecode.
//
// Usage:
//
//	overifyc [-O level] [-libc kind] [-emit ir|stats|bytecode] file.c
//	overifyc [-O level] -prog wc            # compile a corpus program
//
// Levels: -O0 -O1 -O2 -O3 -OVERIFY (aliases: -OSYMBEX).
//
// The flags build a core.Job, as symbex's do, and Job.Resolve decides
// the module: program lookup, level, libc and pass pipeline. -libc
// overrides the libc the level would link.
package main

import (
	"flag"
	"fmt"
	"os"

	"overify/internal/core"
	"overify/internal/libc"
	"overify/internal/vm"
)

func main() {
	level := flag.String("O", "-O0", "optimization level: O0, O1, O2, O3, OVERIFY")
	libcKind := flag.String("libc", "", "libc variant: uclibc, verified (default: by level)")
	emit := flag.String("emit", "ir", "what to print: ir, stats, bytecode")
	progName := flag.String("prog", "", "compile a bundled corpus program instead of a file")
	flag.Parse()

	job := core.Job{Prog: *progName, Level: *level}
	if *progName == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: overifyc [-O level] [-emit ir|stats|bytecode] file.c | -prog name")
			os.Exit(2)
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		job.Name, job.Source = flag.Arg(0), string(data)
	}
	r, err := job.Resolve()
	if err != nil {
		fatal(err)
	}
	switch *libcKind {
	case "":
	case "uclibc":
		r.Libc = libc.Uclibc
	case "verified":
		r.Libc = libc.Verified
	default:
		fatal(fmt.Errorf("unknown libc %q", *libcKind))
	}

	c, err := r.Compile()
	if err != nil {
		fatal(err)
	}

	switch *emit {
	case "ir":
		fmt.Print(c.Mod.String())
	case "stats":
		fmt.Printf("level:       %s\n", c.Level)
		fmt.Printf("libc:        %s\n", c.Libc)
		fmt.Printf("compile:     %s\n", c.Result.CompileTime)
		fmt.Printf("passes run:  %d\n", c.Result.PassesRun)
		fmt.Printf("instrs:      %d -> %d\n", c.Result.InstrsIn, c.Result.InstrsOut)
		s := c.Result.Stats
		fmt.Printf("inlined:     %d call sites\n", s.FunctionsInlined)
		fmt.Printf("unswitched:  %d loops\n", s.LoopsUnswitched)
		fmt.Printf("unrolled:    %d loops (%d peels)\n", s.LoopsUnrolled, s.LoopsPeeled)
		fmt.Printf("ifconverted: %d branches\n", s.BranchesConverted)
		fmt.Printf("checks:      %d inserted\n", s.ChecksInserted)
	case "bytecode":
		p, err := vm.Compile(c.Mod)
		if err != nil {
			fatal(err)
		}
		fmt.Print(vm.Disasm(p))
	default:
		fatal(fmt.Errorf("unknown -emit %q", *emit))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "overifyc:", err)
	os.Exit(1)
}
