package core_test

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/ir"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// sliceCheckSubsets are the kept-check configurations the parity sweep
// exercises: everything, and two single-property modes.
var sliceCheckSubsets = []struct {
	name   string
	checks ir.CheckSet
}{
	{"all", ir.AllChecks},
	{"div-by-zero", ir.ChecksOf(ir.CheckDivByZero)},
	{"bounds", ir.ChecksOf(ir.CheckBounds)},
}

// blockPos strips the block component of position strings ("@fn/block"
// → "@fn"): slicing changes block structure (flattened branches merge
// differently under simplifycfg), so parity is pinned at function
// granularity while instruction-level content is pinned by Kind + Msg.
var blockPos = regexp.MustCompile(`(@[A-Za-z0-9_$]+)/[^ ]+`)

func normalizePos(s string) string {
	return blockPos.ReplaceAllString(s, "$1")
}

// bugSet renders a report's merged bugs as a sorted, position-normalized
// SET for byte-wise comparison. The engine already collapses to one
// report per exact defect message; normalizing away block names can
// merge two sites the baseline kept apart (slicing's simplifycfg moves
// both into one block), so the comparison must dedupe too.
func bugSet(rep *symex.Report) []string {
	uniq := map[string]bool{}
	for _, b := range rep.Bugs {
		uniq[fmt.Sprintf("[%s] %s", b.Kind, normalizePos(b.Msg))] = true
	}
	out := make([]string, 0, len(uniq))
	for k := range uniq {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// verifyAt compiles name/src at level (optionally sliced) and verifies
// it on n symbolic bytes with the given kept-check subset. Each
// exploration is budgeted so the sweeps stay minutes, not hours: a
// truncated run opts out of the parity comparison (the caller checks),
// it never fails it.
func verifyAt(t *testing.T, name, src string, level pipeline.Level, slice bool, checks ir.CheckSet, n int) *symex.Report {
	t.Helper()
	return verifyCapped(t, name, src, level, slice, checks, n, 150_000)
}

// verifyCapped is verifyAt under an explicit instruction cap.
func verifyCapped(t *testing.T, name, src string, level pipeline.Level, slice bool, checks ir.CheckSet, n int, maxInstrs int64) *symex.Report {
	t.Helper()
	cfg := pipeline.LevelConfig(level)
	cfg.Slice = slice
	cfg.SliceChecks = checks
	c, err := core.CompileWithConfig(name, src, cfg, core.DefaultLibc(level))
	if err != nil {
		t.Fatalf("%s at %s (slice=%v): compile: %v", name, level, slice, err)
	}
	opts := core.VerifyOptions{InputBytes: n}
	opts.Engine.Checks = checks
	opts.Engine.MaxInstrs = maxInstrs
	rep, err := c.Verify("umain", opts)
	if err != nil {
		t.Fatalf("%s at %s (slice=%v): verify: %v", name, level, slice, err)
	}
	return rep
}

// truncated reports whether rep's exploration hit a budget; parity
// claims only hold between two complete explorations.
func truncated(rep *symex.Report) bool {
	return rep.Stats.TruncatedPaths > 0 || rep.Stats.TimedOut
}

// TestSliceBugParityCorpus is the conformance suite for the slicer: on
// every corpus program, at every level, for every kept-check subset,
// the sliced program must report exactly the bugs the baseline reports
// (none — the corpus is believed correct) while exploring no more
// paths or instructions, and strictly fewer somewhere across the sweep.
func TestSliceBugParityCorpus(t *testing.T) {
	levels := allLevels
	subsets := sliceCheckSubsets
	if testing.Short() {
		levels = []pipeline.Level{pipeline.O0, pipeline.O2, pipeline.OVerify}
		subsets = subsets[:2]
	}
	strictlyFewerPaths := 0
	strictlyFewerInstrs := 0
	for _, p := range corpus(t) {
		for _, level := range levels {
			for _, sub := range subsets {
				base := verifyAt(t, p.Name, p.Src, level, false, sub.checks, 2)
				sliced := verifyAt(t, p.Name, p.Src, level, true, sub.checks, 2)
				tag := fmt.Sprintf("%s at %s checks=%s", p.Name, level, sub.name)
				if truncated(base) || truncated(sliced) {
					continue
				}
				bb, sb := bugSet(base), bugSet(sliced)
				if strings.Join(bb, "\n") != strings.Join(sb, "\n") {
					t.Errorf("%s: bug sets differ\nbaseline: %v\nsliced:   %v", tag, bb, sb)
				}
				if sliced.Stats.Paths > base.Stats.Paths {
					t.Errorf("%s: sliced explored more paths (%d > %d)", tag, sliced.Stats.Paths, base.Stats.Paths)
				}
				if sliced.Stats.Paths < base.Stats.Paths {
					strictlyFewerPaths++
				}
				if sliced.Stats.Instrs < base.Stats.Instrs {
					strictlyFewerInstrs++
				}
			}
		}
	}
	if strictlyFewerPaths == 0 {
		t.Error("slicing never reduced the path count anywhere in the sweep")
	}
	if strictlyFewerInstrs == 0 {
		t.Error("slicing never reduced the instruction count anywhere in the sweep")
	}
}

// TestSliceSettlesCksum is the slicer's headline, counted rather than
// timed: cksum's bit loop explodes at -O0 until the slice removes the
// CRC arithmetic no check depends on, and at -OVERIFY — where
// if-conversion has already ended the explosion — the slice still
// executes strictly fewer instructions.
func TestSliceSettlesCksum(t *testing.T) {
	p, ok := coreutils.Get("cksum")
	if !ok {
		t.Fatal("cksum not in corpus")
	}
	// corpus_sweep's instruction cap, at its n.
	base := verifyCapped(t, p.Name, p.Src, pipeline.O0, false, ir.AllChecks, 3, 100_000)
	sliced := verifyCapped(t, p.Name, p.Src, pipeline.O0, true, ir.AllChecks, 3, 100_000)
	if !truncated(base) {
		t.Errorf("-O0 baseline settled inside the cap (%d paths, %d instrs): the cell no longer shows what slicing buys",
			base.Stats.Paths, base.Stats.Instrs)
	}
	if truncated(sliced) || sliced.Stats.Paths != 4 || sliced.Stats.Instrs > 1000 {
		t.Errorf("-O0 sliced: truncated=%v paths=%d instrs=%d, want a complete run of 4 paths in a few hundred instructions",
			truncated(sliced), sliced.Stats.Paths, sliced.Stats.Instrs)
	}
	if bb, sb := bugSet(base), bugSet(sliced); strings.Join(bb, "\n") != strings.Join(sb, "\n") {
		t.Errorf("-O0 bug sets differ\nbaseline: %v\nsliced:   %v", bb, sb)
	}
	base = verifyAt(t, p.Name, p.Src, pipeline.OVerify, false, ir.AllChecks, 4)
	sliced = verifyAt(t, p.Name, p.Src, pipeline.OVerify, true, ir.AllChecks, 4)
	if truncated(base) || truncated(sliced) || sliced.Stats.Instrs >= base.Stats.Instrs {
		t.Errorf("-OVERIFY: sliced executed %d instructions, baseline %d — want strictly fewer, both complete",
			sliced.Stats.Instrs, base.Stats.Instrs)
	}
}

// buggyPrograms are hand-written programs whose baselines report bugs;
// parity on these pins that slicing never loses (or invents) a bug,
// including when the trap sits behind irrelevant-looking data flow.
var buggyPrograms = []struct{ name, src string }{
	{"div-feeding-sliced-sink", `
int umain(unsigned char *input, int len) {
	unsigned int crc = 0;
	int i = 0;
	int q = 0;
	while (input[i] != 0) {
		crc = crc ^ ((unsigned int)(int)input[i] << 8);
		q = 100 / ((int)input[i] - 65);
		i = i + 1;
	}
	return (int)crc + q;
}
`},
	{"bounds-by-input", `
int umain(unsigned char *input, int len) {
	int tab[4];
	tab[0] = 1; tab[1] = 2; tab[2] = 3; tab[3] = 4;
	return tab[(int)input[0] & 7];
}
`},
	{"trap-inside-loop", `
int umain(unsigned char *input, int len) {
	int acc = 0;
	int i = 0;
	while (i < 2) {
		acc = acc + 10 / ((int)input[i] - 65);
		i = i + 1;
	}
	return 0;
}
`},
	{"cross-function-global-div", `
int g;
void setup(unsigned char *input) { g = (int)input[0] - 65; }
int umain(unsigned char *input, int len) {
	setup(input);
	return 7 / g;
}
`},
	{"escaping-pointer-div", `
void put(int *p, int v) { *p = v; }
int umain(unsigned char *input, int len) {
	int cell = 0;
	put(&cell, (int)input[0] - 65);
	return 100 / cell;
}
`},
}

// TestSliceBugParityBuggy: same sweep over programs that do fail; the
// baseline must find at least one bug and the slice exactly the same
// set on the kept checks.
func TestSliceBugParityBuggy(t *testing.T) {
	for _, p := range buggyPrograms {
		for _, level := range allLevels {
			for _, sub := range sliceCheckSubsets {
				base := verifyAt(t, p.name, p.src, level, false, sub.checks, 2)
				sliced := verifyAt(t, p.name, p.src, level, true, sub.checks, 2)
				tag := fmt.Sprintf("%s at %s checks=%s", p.name, level, sub.name)
				// The bug must be visible in the unoptimized baseline;
				// higher levels may legally lose a trap whose result is
				// dead (dce deletes it) — parity is still required there.
				if sub.checks == ir.AllChecks && level == pipeline.O0 && len(base.Bugs) == 0 {
					t.Errorf("%s: baseline found no bugs — the program is supposed to fail", tag)
				}
				bb, sb := bugSet(base), bugSet(sliced)
				if strings.Join(bb, "\n") != strings.Join(sb, "\n") {
					t.Errorf("%s: bug sets differ\nbaseline: %v\nsliced:   %v", tag, bb, sb)
				}
			}
		}
	}
}

// genProgram derives a small MiniC program from fuzz bytes: a fixed
// frame around a data-chosen mix of irrelevant accumulation, input
// branching, fixed-bound loops, and genuinely trapping arithmetic and
// indexing. The generator only produces well-formed programs, so every
// fuzz input exercises the parity property rather than the parser.
func genProgram(data []byte) string {
	var sb strings.Builder
	sb.WriteString("int umain(unsigned char *input, int len) {\n")
	sb.WriteString("\tint a = (int)input[0];\n\tint b = (int)input[1];\n")
	sb.WriteString("\tunsigned int acc = 0;\n")
	sb.WriteString("\tint arr[4];\n\tarr[0] = 1; arr[1] = 2; arr[2] = 3; arr[3] = 4;\n")
	nstmt := 0
	for i := 1; i < len(data) && nstmt < 6; i += 2 {
		k := int(data[i-1])
		arg := int(data[i])
		switch k % 6 {
		case 0:
			fmt.Fprintf(&sb, "\tacc = acc ^ ((unsigned int)a << %d);\n", arg%8)
		case 1:
			fmt.Fprintf(&sb, "\tif (a > %d) { a = a - 1; } else { b = b + 1; }\n", arg%128)
		case 2:
			fmt.Fprintf(&sb, "\tacc = acc + (unsigned int)(100 / (a - %d));\n", arg%128)
		case 3:
			fmt.Fprintf(&sb, "\tb = b + arr[a & %d];\n", []int{3, 7}[arg%2])
		case 4:
			fmt.Fprintf(&sb, "\t{ int k%d = 0; while (k%d < %d) { acc = acc * 3 + (unsigned int)b; k%d = k%d + 1; } }\n",
				nstmt, nstmt, 2+arg%4, nstmt, nstmt)
		case 5:
			fmt.Fprintf(&sb, "\tb = b / ((a & %d) + %d);\n", 3+4*(arg%2), arg%2)
		}
		nstmt++
	}
	sb.WriteString("\treturn (int)acc + b;\n}\n")
	return sb.String()
}

// FuzzSliceEquivalence is the differential fuzzer: any generated
// program must report the same normalized bug set sliced and unsliced,
// at whatever level the input selects.
func FuzzSliceEquivalence(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 2, 0, 66, 4, 1})
	f.Add([]byte{3, 1, 2, 65, 5, 1})
	f.Add([]byte{4, 3, 3, 0, 2, 66, 0, 7})
	f.Add([]byte{5, 0, 5, 1, 1, 10, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		level := allLevels[int(data[0])%len(allLevels)]
		src := genProgram(data[1:])
		cmp := func(slice bool) *symex.Report {
			cfg := pipeline.LevelConfig(level)
			cfg.Slice = slice
			cfg.SliceChecks = ir.AllChecks
			c, err := core.CompileWithConfig("fuzz", src, cfg, core.DefaultLibc(level))
			if err != nil {
				t.Fatalf("compile (slice=%v) of\n%s: %v", slice, src, err)
			}
			opts := core.VerifyOptions{InputBytes: 2}
			opts.Engine.MaxInstrs = 400_000
			rep, err := c.Verify("umain", opts)
			if err != nil {
				t.Fatalf("verify (slice=%v) of\n%s: %v", slice, src, err)
			}
			return rep
		}
		base := cmp(false)
		sliced := cmp(true)
		if base.Stats.TruncatedPaths > 0 || sliced.Stats.TruncatedPaths > 0 ||
			base.Stats.TimedOut || sliced.Stats.TimedOut {
			return // a truncated exploration has no parity claim
		}
		bb, sb := bugSet(base), bugSet(sliced)
		if strings.Join(bb, "\n") != strings.Join(sb, "\n") {
			t.Errorf("bug sets differ at %s for\n%s\nbaseline: %v\nsliced:   %v", level, src, bb, sb)
		}
	})
}
