// Package-level benchmarks: one testing.B benchmark per paper table or
// figure, so `go test -bench=. -benchmem` regenerates every experiment
// at laptop scale. The full-size runs (10 symbolic bytes, long
// timeouts) live behind cmd/overify-bench; these keep the iteration
// loop fast while preserving every measured shape.
package overify_test

import (
	"fmt"
	"testing"
	"time"

	"overify"
	"overify/internal/bench"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/pipeline"
	"overify/internal/symex"
	"overify/internal/vm"
)

// BenchmarkTable1Verify measures t_verify for wc per optimization level
// (Table 1, row 1) at 6 symbolic bytes.
func BenchmarkTable1Verify(b *testing.B) {
	for _, level := range []pipeline.Level{pipeline.O0, pipeline.O2, pipeline.O3, pipeline.OVerify} {
		b.Run(level.String(), func(b *testing.B) {
			c, err := bench.CompileAt("wc", bench.WcSource, level)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := bench.VerifyWc(c, 6, symex.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Stats.Paths), "paths")
				b.ReportMetric(float64(rep.Stats.Instrs), "sym-instrs")
			}
		})
	}
}

// BenchmarkTable1Compile measures t_compile per level (Table 1, row 2).
func BenchmarkTable1Compile(b *testing.B) {
	for _, level := range []pipeline.Level{pipeline.O0, pipeline.O2, pipeline.O3, pipeline.OVerify} {
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.CompileAt("wc", bench.WcSource, level); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Run measures t_run per level (Table 1, row 3): the
// concrete word-count over a generated text, showing the -OVERIFY
// execution penalty vs -O3.
func BenchmarkTable1Run(b *testing.B) {
	text := bench.WordText(20000)
	for _, level := range []pipeline.Level{pipeline.O0, pipeline.O2, pipeline.O3, pipeline.OVerify} {
		b.Run(level.String(), func(b *testing.B) {
			c, err := bench.CompileAt("wc", bench.WcSource, level)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.TimeConcreteRun(c, "wc", text, interp.IntVal(ir.I32, 0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Ablation measures the per-transformation ablation
// (Table 2) as one benchmark iteration per full table.
func BenchmarkTable2Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(bench.Table2Options{InputBytes: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable3PassStats measures the corpus compile sweep that
// produces Table 3.
func BenchmarkTable3PassStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Failures != 0 {
				b.Fatalf("%s: %d failures", r.Level, r.Failures)
			}
		}
	}
}

// BenchmarkFigure4Corpus measures compile+verify per (program, level)
// for a representative slice of the corpus (Figure 4's bars).
func BenchmarkFigure4Corpus(b *testing.B) {
	programs := []string{"echo", "tr", "wc", "grep-v", "cksum", "stat"}
	for _, name := range programs {
		p, ok := overify.CorpusProgram(name)
		if !ok {
			b.Fatalf("no program %s", name)
		}
		for _, level := range bench.Figure4Levels {
			b.Run(name+"/"+level.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c, err := overify.Compile(p.Name, p.Src, level)
					if err != nil {
						b.Fatal(err)
					}
					opts := overify.VerifyOptions{InputBytes: 4}
					opts.Engine.Timeout = 10 * time.Second
					rep, err := c.Verify("umain", opts)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(rep.Stats.TotalPaths()), "paths")
				}
			})
		}
	}
}

// BenchmarkParallelVerify measures t_verify at 1..N workers on the
// fork-heavy -O0 build of wc (the worker-scaling study's hot cell):
// per-level wall-clock at each worker count, verdicts independent of
// the count.
func BenchmarkParallelVerify(b *testing.B) {
	for _, level := range []pipeline.Level{pipeline.O0, pipeline.OVerify} {
		c, err := bench.CompileAt("wc", bench.WcSource, level)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", level, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, err := bench.VerifyWc(c, 6, symex.Options{Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(rep.Stats.Paths), "paths")
				}
			})
		}
	}
}

// BenchmarkSolver measures raw solver throughput on the wc-style
// byte-classification queries that dominate verification time.
func BenchmarkSolver(b *testing.B) {
	c, err := bench.CompileAt("wc", bench.WcSource, pipeline.O0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := bench.VerifyWc(c, 3, symex.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Stats.SolverStats.Queries), "queries")
	}
}

// BenchmarkVMvsInterp compares the two concrete execution substrates on
// the same compiled program (the "release binary" ablation).
func BenchmarkVMvsInterp(b *testing.B) {
	p, _ := overify.CorpusProgram("cksum")
	c, err := overify.CompileWithLibc(p.Name, p.Src, overify.O3, overify.Uclibc)
	if err != nil {
		b.Fatal(err)
	}
	input := make([]byte, 4000)
	for i := range input {
		input[i] = byte('a' + i%26)
	}
	b.Run("interp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Run("umain", input); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vm", func(b *testing.B) {
		prog, err := vm.Compile(c.Mod)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := vm.NewMachine(prog)
			buf := vm.ByteObject("input", append(append([]byte{}, input...), 0))
			if _, err := m.Call("umain", vm.PtrValue(buf, 0), vm.IntValue(32, uint64(len(input)))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompileCorpus measures whole-corpus compile throughput per
// level (the t_compile side of Figure 4).
func BenchmarkCompileCorpus(b *testing.B) {
	for _, level := range []pipeline.Level{pipeline.O0, pipeline.O3, pipeline.OVerify} {
		b.Run(level.String(), func(b *testing.B) {
			progs := overify.Corpus()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := progs[i%len(progs)]
				if _, err := overify.Compile(p.Name, p.Src, level); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
