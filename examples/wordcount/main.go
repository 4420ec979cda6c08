// Wordcount reproduces the paper's Table 1 narrative interactively: the
// same wc function compiled four ways, verified and timed, showing the
// verification/execution conflict the paper opens with.
package main

import (
	"fmt"
	"log"
	"time"

	"overify"
	"overify/internal/bench"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

func main() {
	const n = 8 // symbolic string length; the paper uses 10
	fmt.Printf("exhaustively verifying wc over all strings of up to %d bytes\n\n", n)
	fmt.Printf("%-10s %12s %12s %12s %10s %10s\n",
		"level", "compile", "verify", "run", "paths", "instrs")

	for _, level := range []pipeline.Level{
		pipeline.O0, pipeline.O2, pipeline.O3, pipeline.OVerify,
	} {
		c, err := overify.Compile("wc", bench.WcSource, level)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := bench.VerifyWc(c, n, symex.Options{Timeout: 120 * time.Second})
		if err != nil {
			log.Fatal(err)
		}
		runTime, _, err := bench.TimeConcreteRun(c, "wc", bench.WordText(20000), interp.IntVal(ir.I32, 0))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %12s %12s %12s %10d %10d\n",
			level, c.Result.CompileTime.Round(time.Microsecond),
			rep.Stats.Elapsed.Round(time.Microsecond),
			runTime.Round(time.Microsecond),
			rep.Stats.Paths, rep.Stats.Instrs)
	}
	fmt.Println("\nNote the conflict: -OVERIFY verifies orders of magnitude faster but")
	fmt.Println("runs slower than -O3 — branches are cheap for CPUs, expensive for verifiers.")
}
