package main

import (
	"bufio"
	"bytes"
	"embed"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strconv"
	"strings"
	"time"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/libc"
	"overify/internal/pipeline"
	"overify/internal/symex"
	"overify/internal/vm"
)

// The known-answer set: every answer the benchmark checks a verdict
// against is written down by hand (programs/*.expect) or produced by
// the reference interpreter on the -O0 module — never by the engine,
// the passes or the VM under test.

//go:embed programs/*.mc programs/*.expect
var programFS embed.FS

// expectBug is one line of a .expect file: the bug kind's name and a
// prefix of the site ("@fn/block") it must be reported at.
type expectBug struct{ Kind, Site string }

// program is one verification subject: a corpus utility (expected
// clean) or a trap program with hand-written expectations.
type program struct {
	Name   string
	Src    string
	Sample string      // concrete input for the t_run guard (corpus only)
	Bytes  int         // symbolic bytes its .expect asks for (trap programs)
	Expect []expectBug // nil: no bug may be reported
}

func corpusProgram(name string) program {
	p, ok := coreutils.Get(name)
	if !ok {
		panic("benchmark: no corpus program " + name)
	}
	return program{Name: p.Name, Src: p.Src, Sample: p.Sample}
}

func corpusPrograms() []program {
	var out []program
	for _, p := range coreutils.All() {
		out = append(out, program{Name: p.Name, Src: p.Src, Sample: p.Sample})
	}
	return out
}

// trapPrograms loads programs/*.mc with their .expect files, sorted by
// name.
func trapPrograms() ([]program, error) {
	entries, err := programFS.ReadDir("programs")
	if err != nil {
		return nil, err
	}
	var out []program
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".mc") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".mc")
		src, err := programFS.ReadFile(path.Join("programs", e.Name()))
		if err != nil {
			return nil, err
		}
		exp, err := programFS.ReadFile(path.Join("programs", name+".expect"))
		if err != nil {
			return nil, fmt.Errorf("%s has no .expect file: %w", e.Name(), err)
		}
		p := program{Name: name, Src: string(src)}
		if p.Bytes, p.Expect, err = parseExpect(exp); err != nil {
			return nil, fmt.Errorf("%s.expect: %w", name, err)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// parseExpect reads "bytes N" and "bug <kind> @ <site>" lines; '#'
// starts a comment.
func parseExpect(data []byte) (nbytes int, bugs []expectBug, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "bytes "):
			if nbytes, err = strconv.Atoi(strings.TrimSpace(line[len("bytes "):])); err != nil || nbytes <= 0 {
				return 0, nil, fmt.Errorf("bad line %q", line)
			}
		case strings.HasPrefix(line, "bug "):
			kind, site, ok := strings.Cut(line[len("bug "):], " @ ")
			if !ok || !knownBugKind(strings.TrimSpace(kind)) {
				return 0, nil, fmt.Errorf("bad line %q", line)
			}
			bugs = append(bugs, expectBug{Kind: strings.TrimSpace(kind), Site: strings.TrimSpace(site)})
		default:
			return 0, nil, fmt.Errorf("bad line %q", line)
		}
	}
	if nbytes == 0 {
		return 0, nil, errors.New("no 'bytes N' line")
	}
	return nbytes, bugs, sc.Err()
}

func knownBugKind(name string) bool {
	for k := symex.BugDivByZero; k <= symex.BugPtrDomain; k++ {
		if k.String() == name {
			return true
		}
	}
	return false
}

// trapFor maps an engine bug kind onto the trap the reference
// interpreter raises for the same defect. Asserts and inserted checks
// are both OpCheck instructions to the interpreter.
var trapFor = map[symex.BugKind]interp.TrapKind{
	symex.BugDivByZero:    interp.TrapDivByZero,
	symex.BugNullDeref:    interp.TrapNullDeref,
	symex.BugOutOfBounds:  interp.TrapOutOfBounds,
	symex.BugCheckFailed:  interp.TrapCheckFailed,
	symex.BugAssertFailed: interp.TrapCheckFailed,
	symex.BugUnreachable:  interp.TrapUnreachable,
	symex.BugStoreConst:   interp.TrapStoreConst,
	symex.BugPtrDomain:    interp.TrapPtrDomain,
}

// checkBugs compares the reported bug set with the program's known
// answer: every report must match an expectation (kind and site
// prefix) and every expectation must be met.
func checkBugs(p program, bugs []symex.Bug) []string {
	var miss []string
	met := make([]bool, len(p.Expect))
	for _, b := range bugs {
		found := false
		for i, e := range p.Expect {
			if b.Kind.String() == e.Kind && strings.HasPrefix(b.Where, e.Site) {
				met[i], found = true, true
			}
		}
		if !found {
			miss = append(miss, fmt.Sprintf("unexpected bug [%s] at %s", b.Kind, b.Where))
		}
	}
	for i, e := range p.Expect {
		if !met[i] {
			miss = append(miss, fmt.Sprintf("expected bug [%s] at %s not reported", e.Kind, e.Site))
		}
	}
	return miss
}

// reference is the independent side of the oracle: the program's -O0
// module, run only through internal/interp.
type reference struct {
	c *core.Compiled
}

func newReference(p program) (*reference, error) {
	c, err := core.CompileSource(p.Name, p.Src, pipeline.O0, libc.Uclibc)
	if err != nil {
		return nil, err
	}
	return &reference{c: c}, nil
}

// run executes umain(input, len(input)) on the reference interpreter.
func (r *reference) run(input []byte) (*core.RunResult, error) {
	return r.c.Run("umain", input)
}

// replayWitness runs a reported bug's reproducing input and demands
// the trap the report names.
func (r *reference) replayWitness(b symex.Bug) string {
	_, err := r.run(b.Input)
	var trap *interp.Trap
	if !errors.As(err, &trap) {
		return fmt.Sprintf("witness %q for [%s] does not trap on the -O0 interpreter (err=%v)", b.Input, b.Kind, err)
	}
	if want := trapFor[b.Kind]; trap.Kind != want {
		return fmt.Sprintf("witness %q for [%s] traps with %q, want %q", b.Input, b.Kind, trap.Kind, want)
	}
	return ""
}

// cleanSamples is how many seeded concrete inputs are run against a
// program the engine judged clean.
const cleanSamples = 8

// sampleClean runs seeded inputs of exactly n bytes — the space an
// exhaustive n-byte exploration covered — and reports any that trap.
func (r *reference) sampleClean(rng *rand.Rand, n int) string {
	for i := 0; i < cleanSamples; i++ {
		in := make([]byte, n)
		rng.Read(in)
		if _, err := r.run(in); err != nil {
			return fmt.Sprintf("judged clean but input %q fails on the -O0 interpreter: %v", in, err)
		}
	}
	return ""
}

// guardTimes accumulates the t_run guard: what the same programs cost
// to run concretely (Table 1's third row), so a pass that buys t_verify
// with t_run shows up.
type guardTimes struct {
	vmCompile, vmRun, interpRun time.Duration
	vmInstrs                    int64
}

// seededText derives the concrete guard input from a program's sample:
// the sample with a few seeded printable bytes spliced in, so the seed
// reaches the program as input and nothing else.
func seededText(rng *rand.Rand, sample string) []byte {
	const alphabet = "abcxyzABC012 \t\n:/.-"
	in := []byte(sample)
	for i := 0; i < 4; i++ {
		c := alphabet[rng.Intn(len(alphabet))]
		pos := rng.Intn(len(in) + 1)
		in = append(in[:pos], append([]byte{c}, in[pos:]...)...)
	}
	return in
}

// vmMatchesReference compiles mod for the VM, runs it on input and
// compares exit code and output with the -O0 interpreter's.
func (r *reference) vmMatchesReference(mod *ir.Module, input []byte, g *guardTimes) string {
	t0 := time.Now()
	want, werr := r.run(input)
	g.interpRun += time.Since(t0)

	t0 = time.Now()
	prog, err := vm.Compile(mod)
	g.vmCompile += time.Since(t0)
	if err != nil {
		return fmt.Sprintf("vm compile: %v", err)
	}
	m := vm.NewMachine(prog)
	buf := vm.ByteObject("input", append(append([]byte{}, input...), 0))
	t0 = time.Now()
	ret, gerr := m.Call("umain", vm.PtrValue(buf, 0), vm.IntValue(32, uint64(len(input))))
	g.vmRun += time.Since(t0)
	g.vmInstrs += m.Stats.Instrs

	if (werr != nil) != (gerr != nil) {
		return fmt.Sprintf("on %q the interpreter says %v, the vm says %v", input, werr, gerr)
	}
	if werr != nil {
		return "" // both trap: nothing further to compare
	}
	if got := ir.SignExtend(32, ret.Bits); got != want.Exit {
		return fmt.Sprintf("on %q vm exit %d, interpreter exit %d", input, got, want.Exit)
	}
	if got := vmOutput(m); !bytes.Equal(got, want.Output) {
		return fmt.Sprintf("on %q vm output %q, interpreter output %q", input, got, want.Output)
	}
	return ""
}

// vmOutput reads the libc OUT sink of a VM run.
func vmOutput(m *vm.Machine) []byte {
	outn, ok1 := m.GlobalData("OUTN")
	out, ok2 := m.GlobalData("OUT")
	if !ok1 || !ok2 || len(outn) == 0 {
		return nil
	}
	n := int(ir.SignExtend(32, outn[0]))
	if n < 0 {
		n = 0
	}
	if n > len(out) {
		n = len(out)
	}
	res := make([]byte, n)
	for i := range res {
		res[i] = byte(out[i])
	}
	return res
}
