// Command minicvm compiles a MiniC program to bytecode and runs it
// concretely on the register VM — the "release binary" workflow.
//
// Usage:
//
//	minicvm [-O level] [-input text] file.c
//	minicvm [-O level] [-input text] -prog echo
//
// The flags build a core.Job, as symbex's do, and Job.Resolve decides
// the module; -prog's sample input is the default -input.
package main

import (
	"flag"
	"fmt"
	"os"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/libc"
	"overify/internal/vm"
)

func main() {
	level := flag.String("O", "-O3", "optimization level")
	input := flag.String("input", "", "program input (also determines len)")
	progName := flag.String("prog", "", "run a bundled corpus program")
	entry := flag.String("entry", "umain", "entry function")
	flag.Parse()

	job := core.Job{Prog: *progName, Level: *level, Entry: *entry}
	if *progName == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: minicvm [-O level] [-input text] file.c | -prog name")
			os.Exit(2)
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		job.Name, job.Source = flag.Arg(0), string(data)
	} else if p, ok := coreutils.Get(*progName); ok && *input == "" {
		*input = p.Sample
	}
	r, err := job.Resolve()
	if err != nil {
		fatal(err)
	}
	c, err := r.Compile()
	if err != nil {
		fatal(err)
	}
	prog, err := vm.Compile(c.Mod)
	if err != nil {
		fatal(err)
	}
	m := vm.NewMachine(prog)
	buf := vm.ByteObject("input", append([]byte(*input), 0))
	ret, err := m.Call(r.Entry, vm.PtrValue(buf, 0), vm.IntValue(32, uint64(len(*input))))
	if err != nil {
		fatal(err)
	}
	if out := libc.ReadOut(m.GlobalData); len(out) > 0 {
		fmt.Printf("output: %q\n", string(out))
	}
	fmt.Printf("exit: %d (%d vm instructions)\n", int32(ret.Bits), m.Stats.Instrs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minicvm:", err)
	os.Exit(1)
}
