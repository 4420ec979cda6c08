// Package overify is a from-scratch reproduction of
//
//	Wagner, Kuznetsov, Candea.
//	"-OVERIFY: Optimizing Programs for Fast Verification." HotOS 2013.
//
// It implements the whole stack the paper's prototype was built on:
// a small C dialect (MiniC) with a clang-style front end, a typed SSA
// IR, the optimization passes the levels compose (inlining, loop
// unswitching and unrolling, if-conversion, mem2reg, jump threading,
// constant folding, CSE, LICM, runtime-check insertion), a KLEE-style
// symbolic-execution engine with a constraint solver, a bytecode VM for
// timed concrete runs, two libc variants (uclibc-style and
// verification-friendly), and a Coreutils-like corpus.
//
// The headline API mirrors the paper's workflow:
//
//	c, err := overify.Compile("wc", src, overify.OVerify)
//	rep, err := c.Verify("umain", overify.VerifyOptions{InputBytes: 10})
//	fmt.Println(rep.Stats.Paths)   // 11 for the paper's wc at -OVERIFY
//
// The benchmark harness in cmd/overify-bench regenerates every table
// and figure of the paper; see EXPERIMENTS.md for the measured results.
package overify

import (
	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/libc"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// Level is a compiler optimization level (-O0 ... -OVERIFY).
type Level = pipeline.Level

// Optimization levels. OVerify is the paper's proposed switch.
const (
	O0      = pipeline.O0
	O1      = pipeline.O1
	O2      = pipeline.O2
	O3      = pipeline.O3
	OVerify = pipeline.OVerify
)

// LibcKind selects the linked C library variant.
type LibcKind = libc.Kind

// Libc variants: the uclibc-style baseline and the verification-
// oriented library -OVERIFY links (§3, "Library-level changes").
const (
	Uclibc   = libc.Uclibc
	Verified = libc.Verified
)

// Compiled is a compiled program; see Compile.
type Compiled = core.Compiled

// RunResult is the outcome of a concrete execution.
type RunResult = core.RunResult

// VerifyOptions configure symbolic verification (input size, limits).
type VerifyOptions = core.VerifyOptions

// Report is a symbolic-execution report: path/instruction/solver
// statistics plus any bugs found, each with a reproducing input.
type Report = symex.Report

// Program is one entry of the bundled Coreutils-like corpus.
type Program = coreutils.Program

// Compile parses MiniC source, links the level's default libc
// (Verified for OVerify, Uclibc otherwise), and optimizes.
func Compile(name, src string, level Level) (*Compiled, error) {
	return core.CompileSource(name, src, level, core.DefaultLibc(level))
}

// CompileWithLibc is Compile with an explicit libc choice.
func CompileWithLibc(name, src string, level Level, lk LibcKind) (*Compiled, error) {
	return core.CompileSource(name, src, level, lk)
}

// Corpus returns the bundled utility programs (the paper's Coreutils
// stand-in), sorted by name.
func Corpus() []Program { return coreutils.All() }

// CorpusProgram looks up one bundled program by name.
func CorpusProgram(name string) (Program, bool) { return coreutils.Get(name) }

// ParseLevel converts "-O0" ... "-OVERIFY"/"-OSYMBEX" spellings.
func ParseLevel(s string) (Level, error) { return pipeline.ParseLevel(s) }
