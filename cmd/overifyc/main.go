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
package main

import (
	"flag"
	"fmt"
	"os"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/libc"
	"overify/internal/pipeline"
	"overify/internal/vm"
)

func main() {
	level := flag.String("O", "-O0", "optimization level: O0, O1, O2, O3, OVERIFY")
	libcKind := flag.String("libc", "", "libc variant: uclibc, verified (default: by level)")
	emit := flag.String("emit", "ir", "what to print: ir, stats, bytecode")
	progName := flag.String("prog", "", "compile a bundled corpus program instead of a file")
	flag.Parse()

	lvl, err := pipeline.ParseLevel(*level)
	if err != nil {
		fatal(err)
	}

	var name, src string
	switch {
	case *progName != "":
		p, ok := coreutils.Get(*progName)
		if !ok {
			fatal(fmt.Errorf("unknown corpus program %q (have: %v)", *progName, coreutils.Names()))
		}
		name, src = p.Name, p.Src
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		name, src = flag.Arg(0), string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: overifyc [-O level] [-emit ir|stats|bytecode] file.c | -prog name")
		os.Exit(2)
	}

	lk := core.DefaultLibc(lvl)
	switch *libcKind {
	case "":
	case "uclibc":
		lk = libc.Uclibc
	case "verified":
		lk = libc.Verified
	default:
		fatal(fmt.Errorf("unknown libc %q", *libcKind))
	}

	c, err := core.CompileSource(name, src, lvl, lk)
	if err != nil {
		fatal(err)
	}

	switch *emit {
	case "ir":
		fmt.Print(c.Mod.String())
	case "stats":
		fmt.Printf("level:       %s\n", lvl)
		fmt.Printf("libc:        %s\n", lk)
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
