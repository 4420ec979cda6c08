package symex_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/expr"
	"overify/internal/frontend"
	"overify/internal/ir"
	"overify/internal/pipeline"
	"overify/internal/solver"
	"overify/internal/symex"
)

// newVerifyEngine builds an engine + entry args exactly the way
// core.Verify does, so codec tests exercise the production shape.
func newVerifyEngine(c *core.Compiled, n int, opts symex.Options) (*symex.Engine, []symex.SymVal) {
	eng := symex.NewEngine(c.Mod, opts)
	buf := eng.SymbolicBuffer("input", n, true)
	length := eng.IntArg(ir.I32, uint64(n))
	return eng, []symex.SymVal{buf, length}
}

// distSim runs the split → encode → decode-in-other-process → explore →
// merge pipeline against nWorkers freshly compiled module instances
// (separate compiles stand in for separate processes: distinct module
// pointers, distinct builders). It returns the merged report and the
// covered-block union size.
func distSim(t testing.TB, p coreutils.Program, level pipeline.Level, n, want, nWorkers int) (*symex.Report, int) {
	cA, err := core.CompileProgram(p, level)
	if err != nil {
		t.Fatalf("%s at %s: %v", p.Name, level, err)
	}
	engA, args := newVerifyEngine(cA, n, symex.Options{})
	states, err := engA.Split("umain", args, nil, want)
	if err != nil {
		t.Fatalf("split: %v", err)
	}

	// Deterministic round-robin sharding, like the coordinator.
	shards := make([][]*symex.State, nWorkers)
	for j, st := range states {
		shards[j%nWorkers] = append(shards[j%nWorkers], st)
	}

	covered := make(map[string]bool)
	reports := []*symex.Report{engA.PartialReport()}
	for _, sh := range shards {
		data, err := engA.EncodeStates(sh)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		cW, err := core.CompileProgram(p, level)
		if err != nil {
			t.Fatalf("worker compile: %v", err)
		}
		engW := symex.NewEngine(cW.Mod, symex.Options{})
		dec, err := engW.DecodeStates(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(dec) != len(sh) {
			t.Fatalf("decoded %d states, sent %d", len(dec), len(sh))
		}
		reports = append(reports, engW.RunStates(dec))
		for _, name := range engW.CoveredBlockNames() {
			covered[name] = true
		}
	}
	for _, name := range engA.CoveredBlockNames() {
		covered[name] = true
	}
	merged := symex.MergeReports(reports...)
	merged.Stats.CoveredBlocks = len(covered)
	return merged, len(covered)
}

// assertEquivalent compares every schedule-invariant verdict field: the
// counters, the covered-block set size, and the bug identities.
// Concrete bug inputs may differ (any model reproduces; model-reuse
// history is schedule-dependent), matching the parallel-determinism
// suite's contract.
func assertEquivalent(t *testing.T, label string, serial, dist *symex.Report) {
	t.Helper()
	s, d := serial.Stats, dist.Stats
	type row struct {
		name string
		a, b int64
	}
	for _, r := range []row{
		{"paths", s.Paths, d.Paths},
		{"errorPaths", s.ErrorPaths, d.ErrorPaths},
		{"truncated", s.TruncatedPaths, d.TruncatedPaths},
		{"instrs", s.Instrs, d.Instrs},
		{"checksSkipped", s.ChecksSkipped, d.ChecksSkipped},
		{"covered", int64(s.CoveredBlocks), int64(d.CoveredBlocks)},
		{"queries", s.SolverStats.Queries, d.SolverStats.Queries},
		{"sat", s.SolverStats.Sat, d.SolverStats.Sat},
		{"unsat", s.SolverStats.Unsat, d.SolverStats.Unsat},
	} {
		if r.a != r.b {
			t.Errorf("%s: %s: serial %d != distributed %d", label, r.name, r.a, r.b)
		}
	}
	sk, dk := bugKeys(serial), bugKeys(dist)
	if fmt.Sprint(sk) != fmt.Sprint(dk) {
		t.Errorf("%s: bug sets differ:\nserial      %v\ndistributed %v", label, sk, dk)
	}
}

func serialBaseline(t testing.TB, p coreutils.Program, level pipeline.Level, n int) *symex.Report {
	c, err := core.CompileProgram(p, level)
	if err != nil {
		t.Fatalf("%s at %s: %v", p.Name, level, err)
	}
	eng, args := newVerifyEngine(c, n, symex.Options{})
	rep, err := eng.Run("umain", args, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep.Stats.CoveredBlocks = len(eng.CoveredBlockNames())
	return rep
}

// TestStateCodecRoundTripExploration is the codec's contract:
// Decode(Encode(s)) explores identically. A serial baseline is compared
// against split → ship to 2 simulated worker processes → merge, across
// structurally diverse corpus programs.
func TestStateCodecRoundTripExploration(t *testing.T) {
	progs := []string{"echo", "wc", "tr", "rev", "uniq"}
	if testing.Short() {
		progs = progs[:3]
	}
	for _, name := range progs {
		p, ok := coreutils.Get(name)
		if !ok {
			t.Fatalf("no corpus program %q", name)
		}
		for _, level := range []pipeline.Level{pipeline.O0, pipeline.OVerify} {
			label := fmt.Sprintf("%s@%s", name, level)
			serial := serialBaseline(t, p, level, 3)
			dist, _ := distSim(t, p, level, 3, 8, 2)
			assertEquivalent(t, label, serial, dist)
		}
	}
}

// TestStateCodecSingleWalk extends the PR 4 walk-counter guard to the
// codec: encoding a batch expands each distinct reachable DAG node
// exactly once — batch-wide, cheaper than once per state — and never
// falls back to a var-set DAG walk.
func TestStateCodecSingleWalk(t *testing.T) {
	// Pick the first corpus program whose O0 exploration still has >= 2
	// pending states after a 4-state split (unsliced O0 keeps all the
	// branching around).
	var states []*symex.State
	var eng *symex.Engine
	for _, name := range []string{"wc", "tr", "grep-v", "uniq", "cksum"} {
		p, ok := coreutils.Get(name)
		if !ok {
			continue
		}
		c, err := core.CompileProgram(p, pipeline.O0)
		if err != nil {
			t.Fatal(err)
		}
		e, args := newVerifyEngine(c, 3, symex.Options{})
		s, err := e.Split("umain", args, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(s) >= 2 {
			eng, states = e, s
			break
		}
	}
	if eng == nil {
		t.Fatal("no corpus program yielded >= 2 split states")
	}

	distinct := countReachableNodes(eng, states)
	vw0 := expr.VarSetWalks()
	cv0 := symex.CodecExprVisits()
	if _, err := eng.EncodeStates(states); err != nil {
		t.Fatal(err)
	}
	if d := symex.CodecExprVisits() - cv0; d != int64(distinct) {
		t.Errorf("encoder expanded %d nodes, batch has %d distinct reachable nodes", d, distinct)
	}
	if d := expr.VarSetWalks() - vw0; d != 0 {
		t.Errorf("encoding performed %d var-set DAG walks, want 0", d)
	}
}

// countReachableNodes replicates the encoder's reachability (PC, frame
// registers, global objects, cells) with an independent walker.
func countReachableNodes(eng *symex.Engine, states []*symex.State) int {
	seenE := make(map[*expr.Expr]bool)
	var walkE func(x *expr.Expr)
	walkE = func(x *expr.Expr) {
		if seenE[x] {
			return
		}
		seenE[x] = true
		for _, a := range x.Args {
			walkE(a)
		}
	}
	for _, st := range states {
		seenO := make(map[*symex.MemObject]bool)
		var walkO func(o *symex.MemObject)
		walkV := func(v symex.SymVal) {
			if v.E != nil {
				walkE(v.E)
			}
			if v.Obj != nil && v.Obj != symex.NullObj {
				walkO(v.Obj)
			}
		}
		walkO = func(o *symex.MemObject) {
			if seenO[o] {
				return
			}
			seenO[o] = true
			for i := int64(0); i < o.Count; i++ {
				walkV(st.Cell(o, i))
			}
		}
		for _, c := range st.Part.AppendConstraints(nil) {
			walkE(c)
		}
		for _, o := range symex.Globals(eng) {
			walkO(o)
		}
		for _, f := range st.Frames {
			for _, v := range f.Regs {
				walkV(v)
			}
		}
	}
	return len(seenE)
}

// TestStateCodecCorruptedFrames: truncations and flips must produce
// errors (or at worst a clean decode of a coincidentally valid frame),
// never a panic, and truncations must always be rejected.
func TestStateCodecCorruptedFrames(t *testing.T) {
	p, _ := coreutils.Get("tr")
	c, err := core.CompileProgram(p, pipeline.OVerify)
	if err != nil {
		t.Fatal(err)
	}
	eng, args := newVerifyEngine(c, 3, symex.Options{})
	states, err := eng.Split("umain", args, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	data, err := eng.EncodeStates(states)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *symex.Engine {
		c2, err := core.CompileProgram(p, pipeline.OVerify)
		if err != nil {
			t.Fatal(err)
		}
		return symex.NewEngine(c2.Mod, symex.Options{})
	}

	// Sanity: the pristine frame decodes.
	if _, err := fresh().DecodeStates(data); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	// Every truncation must be rejected.
	for _, k := range []int{0, 1, 3, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := fresh().DecodeStates(data[:k]); err == nil {
			t.Errorf("truncation to %d bytes accepted", k)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := fresh().DecodeStates(append(append([]byte(nil), data...), 0xff)); err == nil {
		t.Errorf("trailing garbage accepted")
	}
	// Bit flips across the frame must never panic (DecodeStates converts
	// builder panics to errors; a flip that still decodes cleanly is fine).
	for pos := 0; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x41
		_, _ = fresh().DecodeStates(mut) // must not panic
	}
}

// TestStateCodecCountBeyondCells is the corrupted frame bit flips at a
// stride do not find: an object header is two varints, the Count every
// load and store is bounds-checked against and the number of cells that
// follow, and a frame whose Count is the larger used to decode cleanly
// and then index past the cells in a worker goroutine — which takes the
// whole process, a worker daemon, down.
func TestStateCodecCountBeyondCells(t *testing.T) {
	mod, err := frontend.Lower("t", `
int umain(unsigned char *input, int len) {
	if (input[0] == 'a') { return (int)input[len + 5]; }
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	eng := symex.NewEngine(mod, symex.Options{})
	states, err := eng.Split("umain", eng.InputArgs(3), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := eng.EncodeStates(states)
	if err != nil {
		t.Fatal(err)
	}
	// Each state's input object header: name, element type i8, Count 4,
	// writable, 4 cells. Count becomes 100.
	bad := bytes.ReplaceAll(blob, []byte("\x05input\x00\x08\x04\x00\x04"), []byte("\x05input\x00\x08\x64\x00\x04"))
	if bytes.Equal(bad, blob) {
		t.Fatalf("no input object header in the frame")
	}
	_, err = symex.NewEngine(mod, symex.Options{}).DecodeStates(bad)
	if err == nil || !strings.Contains(err.Error(), "symex: codec:") {
		t.Errorf("frame with Count 100 over 4 cells: err = %v, want a symex: codec: error", err)
	}
}

// TestStateCodecPointerWithoutOffset: a pointer value on the wire is an
// object reference and an offset node reference, index+1. An offset
// reference of 0 names no node; such a frame used to decode into a
// pointer with a nil offset, which passed every check until the worker
// exploring the state built its first GEP, load or store on it — a nil
// dereference in a goroutine with nothing to recover it.
func TestStateCodecPointerWithoutOffset(t *testing.T) {
	mod, err := frontend.Lower("t", `
int umain(unsigned char *input, int len) {
	if (input[0] == 'a') { return (int)input[1]; }
	return (int)input[2];
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(pipeline.O1)); err != nil { // the pointer stays in its register
		t.Fatal(err)
	}
	eng := symex.NewEngine(mod, symex.Options{})
	states, err := eng.Split("umain", eng.InputArgs(3), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := eng.EncodeStates(states)
	if err != nil {
		t.Fatal(err)
	}
	// umain's registers lead with param 0, the input pointer: key tag 0,
	// index 0, then the value — tag svPtr (2), object ref, offset ref —
	// and param 1, the length: key 0, index 1, tag svInt (1).
	param0 := regexp.MustCompile("\x00\x00\x02([\x01-\x7f])[\x01-\x7f](\x00\x01\x01)")
	bad := param0.ReplaceAll(blob, []byte("\x00\x00\x02${1}\x00${2}"))
	if n := len(param0.FindAll(blob, -1)); n != len(states) {
		t.Fatalf("found the input pointer register %d times in a frame of %d states", n, len(states))
	}
	_, err = symex.NewEngine(mod, symex.Options{}).DecodeStates(bad)
	if err == nil || !strings.Contains(err.Error(), "symex: codec: pointer without offset") {
		t.Errorf("frame with a pointer without offset: err = %v, want symex: codec: pointer without offset", err)
	}
}

// TestStateCodecSharedObjectRefused: a writable object is one table
// entry per state that holds it, so a frame in which two states reach
// one writable entry would hand both the same cells to write. Encoding
// one state twice makes such a frame; the decoder refuses it instead of
// decoding two states that write each other's memory.
func TestStateCodecSharedObjectRefused(t *testing.T) {
	p, _ := coreutils.Get("wc")
	c, err := core.CompileProgram(p, pipeline.O0)
	if err != nil {
		t.Fatal(err)
	}
	eng, args := newVerifyEngine(c, 3, symex.Options{})
	states, err := eng.Split("umain", args, nil, 2)
	if err != nil || len(states) == 0 {
		t.Fatalf("split: %d states, %v", len(states), err)
	}
	blob, err := eng.EncodeStates([]*symex.State{states[0], states[0]})
	if err != nil {
		t.Fatal(err)
	}
	_, err = symex.NewEngine(c.Mod, symex.Options{}).DecodeStates(blob)
	if err == nil || !strings.Contains(err.Error(), "held by two states") {
		t.Errorf("a frame with one state twice: err = %v, want a held-by-two-states error", err)
	}
}

// FuzzStateCodecRoundTrip is the differential fuzzer: for a fuzzed
// (program, input size, split size) the split+ship+merge pipeline must
// match the serial baseline's invariant counters and bug identities,
// and fuzz-mutated frames must never panic the decoder.
func FuzzStateCodecRoundTrip(f *testing.F) {
	progs := []string{"echo", "wc", "tr", "rev", "seq"}
	f.Add(uint8(0), uint8(3), uint8(4), []byte{})
	f.Add(uint8(1), uint8(2), uint8(8), []byte{0x00, 0x41})
	f.Add(uint8(2), uint8(3), uint8(1), []byte{0xff})
	f.Add(uint8(3), uint8(4), uint8(16), []byte{0x10, 0x20, 0x30})
	f.Fuzz(func(t *testing.T, pi, n, want uint8, corrupt []byte) {
		p, ok := coreutils.Get(progs[int(pi)%len(progs)])
		if !ok {
			t.Skip()
		}
		nb := 2 + int(n)%3     // 2..4 symbolic bytes
		ws := 1 + int(want)%12 // split size 1..12
		serial := serialBaseline(t, p, pipeline.OVerify, nb)
		dist, _ := distSim(t, p, pipeline.OVerify, nb, ws, 2)
		assertEquivalent(t, fmt.Sprintf("%s n=%d want=%d", p.Name, nb, ws), serial, dist)

		// Corruption leg: mutate a real frame with the fuzz bytes.
		c, err := core.CompileProgram(p, pipeline.OVerify)
		if err != nil {
			t.Fatal(err)
		}
		eng, args := newVerifyEngine(c, nb, symex.Options{})
		states, err := eng.Split("umain", args, nil, ws)
		if err != nil {
			t.Fatal(err)
		}
		data, err := eng.EncodeStates(states)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), data...)
		for i, b := range corrupt {
			if len(mut) == 0 {
				break
			}
			mut[(i*131+int(b))%len(mut)] ^= b
		}
		c2, err := core.CompileProgram(p, pipeline.OVerify)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := symex.NewEngine(c2.Mod, symex.Options{}).DecodeStates(mut) // must not panic
		if err == nil {
			if err := checkDecodedPointers(decoded); err != nil {
				t.Fatalf("a frame that decodes: %v", err)
			}
		}
	})
}

// checkDecodedPointers holds decoded states to what exploring them
// assumes of every pointer, in a register or in a cell: a 64-bit offset,
// and an object that is null, read-only, or one the state's own table
// numbers, with every cell its Count promises.
func checkDecodedPointers(states []*symex.State) error {
	for _, st := range states {
		table := symex.TableCells(st)
		seen := make(map[*symex.MemObject]bool)
		var walkO func(o *symex.MemObject) error
		walkV := func(v symex.SymVal) error {
			if v.Obj == nil {
				return nil
			}
			if v.E == nil || v.E.Bits != 64 {
				return fmt.Errorf("pointer into %s with offset %v", v.Obj.Name, v.E)
			}
			if v.Obj == symex.NullObj {
				return nil
			}
			return walkO(v.Obj)
		}
		walkO = func(o *symex.MemObject) error {
			if seen[o] {
				return nil
			}
			seen[o] = true
			if !o.ReadOnly {
				if n := symex.Number(o); n < 0 || n >= len(table) || int64(len(table[n])) != o.Count {
					return fmt.Errorf("state %d: %s[%d] is not in its object table", st.ID, o.Name, o.Count)
				}
			}
			for i := int64(0); i < o.Count; i++ {
				if err := walkV(st.Cell(o, i)); err != nil {
					return err
				}
			}
			return nil
		}
		for _, cells := range table {
			for _, v := range cells {
				if err := walkV(v); err != nil {
					return err
				}
			}
		}
		for _, f := range st.Frames {
			for _, v := range f.Regs {
				if err := walkV(v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// TestSplitExhaustsSmallPrograms: when the requested shard count
// exceeds the whole exploration, Split finishes the program itself and
// the merge still matches (the degenerate cluster).
func TestSplitExhaustsSmallPrograms(t *testing.T) {
	p, _ := coreutils.Get("echo")
	serial := serialBaseline(t, p, pipeline.OVerify, 2)
	dist, _ := distSim(t, p, pipeline.OVerify, 2, 1<<20, 2)
	assertEquivalent(t, "echo exhaust", serial, dist)
}

// TestMergeBugsDeterministicOrder pins that MergeReports' bug list is
// sorted and deduplicated regardless of input order.
func TestMergeBugsDeterministicOrder(t *testing.T) {
	a := &symex.Report{Bugs: []symex.Bug{{Kind: 1, Msg: "b", Where: "w2"}, {Kind: 0, Msg: "a", Where: "w1", Input: []byte{9}}}}
	b := &symex.Report{Bugs: []symex.Bug{{Kind: 0, Msg: "a", Where: "w1", Input: []byte{3}}}}
	m1 := symex.MergeReports(a, b)
	m2 := symex.MergeReports(b, a)
	if len(m1.Bugs) != 2 || len(m2.Bugs) != 2 {
		t.Fatalf("merged bug counts: %d, %d (want 2)", len(m1.Bugs), len(m2.Bugs))
	}
	for i := range m1.Bugs {
		x, y := m1.Bugs[i], m2.Bugs[i]
		if x.Kind != y.Kind || x.Msg != y.Msg || x.Where != y.Where || !bytes.Equal(x.Input, y.Input) {
			t.Fatalf("merge order-dependent: %+v vs %+v", m1.Bugs, m2.Bugs)
		}
	}
	if !sort.SliceIsSorted(m1.Bugs, func(i, j int) bool {
		return m1.Bugs[i].Kind < m1.Bugs[j].Kind
	}) {
		t.Fatalf("merged bugs unsorted: %+v", m1.Bugs)
	}
}

// TestStateCodecGoldenV2 pins the wire format: "OVSX" version 2 frames
// are what worker daemons of other builds decode, so a change to the
// state representation must not move a byte. Version 2 is version 1
// without each frame's predecessor block, which nothing read: every
// frame is one byte shorter, and each batch below holds six one-frame
// states. The version 1 pins (4743, 5304 and 3600 bytes) were measured
// at a38fe6b, the od-x@-OVERIFY one re-cut when -OVERIFY stopped
// running loop restructuring.
func TestStateCodecGoldenV2(t *testing.T) {
	for _, g := range []struct {
		prog   string
		level  pipeline.Level
		size   int
		sha256 string
	}{
		{"wc", pipeline.O0, 4737, "5524ef50678948f972583aa8aace0cf7f7325e1c8562b1db2b9cfe8e88e4b402"},
		{"od-x", pipeline.O0, 5298, "caa3822fc986e69e6bd9a174a8df8917bbcf2673d54e53f0b1894db15f457386"},
		{"od-x", pipeline.OVerify, 3594, "864912bd3576f057f08f8cb85e4dcedf6f9f1329ad2dc211c36c0eba9495666b"},
	} {
		label := fmt.Sprintf("%s@%s", g.prog, g.level)
		p, _ := coreutils.Get(g.prog)
		compile := func() *core.Compiled {
			c, err := core.CompileProgram(p, g.level)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return c
		}
		eng, args := newVerifyEngine(compile(), 3, symex.Options{})
		states, err := eng.Split("umain", args, nil, 6)
		if err != nil {
			t.Fatalf("%s: split: %v", label, err)
		}
		blob, err := eng.EncodeStates(states)
		if err != nil {
			t.Fatalf("%s: encode: %v", label, err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(blob)); len(blob) != g.size || sum != g.sha256 {
			t.Errorf("%s: frame is %d bytes, sha256 %s; pinned %d bytes, %s", label, len(blob), sum, g.size, g.sha256)
		}
		fresh := symex.NewEngine(compile().Mod, symex.Options{})
		decoded, err := fresh.DecodeStates(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", label, err)
		}
		again, err := fresh.EncodeStates(decoded)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", label, err)
		}
		if !bytes.Equal(again, blob) {
			t.Errorf("%s: Encode(Decode(frame)) differs from frame (%d vs %d bytes)", label, len(again), len(blob))
		}
	}
}

// TestStateCodecShipsThePartitionHistory: a state's path condition is
// its partition's history, and that is what the wire carries, so each
// decoded state's history lists, constraint for constraint, what the
// encoder read from the sender's. A state whose partition is the
// unsatisfiable one, which has no history, is refused rather than
// shipped as the empty condition, which every input satisfies.
func TestStateCodecShipsThePartitionHistory(t *testing.T) {
	p, _ := coreutils.Get("wc")
	compile := func() *core.Compiled {
		c, err := core.CompileProgram(p, pipeline.O0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	eng, args := newVerifyEngine(compile(), 3, symex.Options{})
	states, err := eng.Split("umain", args, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := eng.EncodeStates(states)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := symex.NewEngine(compile().Mod, symex.Options{}).DecodeStates(blob)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for i, st := range states {
		sent, got := st.Part.AppendConstraints(nil), decoded[i].Part.AppendConstraints(nil)
		if fmt.Sprint(got) != fmt.Sprint(sent) {
			t.Errorf("state %d: decoded condition %v, sent %v", st.ID, got, sent)
		}
		longest = max(longest, len(sent))
	}
	if longest == 0 {
		t.Fatal("no split state has a path condition")
	}

	states[0].Part = solver.PartitionOf([]*expr.Expr{eng.B.Bool(false)})
	if _, err := eng.EncodeStates(states[:1]); err == nil || !strings.Contains(err.Error(), "unsatisfiable path condition") {
		t.Errorf("a state with the unsat partition: err = %v, want an unsatisfiable-path-condition error", err)
	}
}

// TestStateCodecFrameIndexRefused: a frame resumes at an instruction its
// block executes, past the phis (only a jump into the block evaluates
// them) and before the block's end. A frame index one past the end, or
// one at a phi, used to decode cleanly and then panic the worker that
// explored the state — index out of range in step, or "cannot execute
// phi" — which takes a worker daemon down with it.
func TestStateCodecFrameIndexRefused(t *testing.T) {
	p, _ := coreutils.Get("wc")
	compile := func() *core.Compiled {
		c, err := core.CompileProgram(p, pipeline.OVerify)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name string
		move func(f *symex.Frame) bool
	}{
		{"past the end", func(f *symex.Frame) bool {
			f.Idx = len(f.Block.Instrs)
			return true
		}},
		{"at a phi", func(f *symex.Frame) bool {
			for _, b := range f.Fn.Blocks {
				if len(b.Phis()) > 0 {
					f.Block, f.Idx = b, 0
					return true
				}
			}
			return false
		}},
	} {
		eng, args := newVerifyEngine(compile(), 3, symex.Options{})
		states, err := eng.Split("umain", args, nil, 2)
		if err != nil || len(states) == 0 {
			t.Fatalf("split: %d states, %v", len(states), err)
		}
		st := states[0]
		if !tc.move(st.Frames[len(st.Frames)-1]) {
			t.Fatalf("%s: no block with phis in the top frame's function", tc.name)
		}
		blob, err := eng.EncodeStates(states[:1])
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		_, err = symex.NewEngine(compile().Mod, symex.Options{}).DecodeStates(blob)
		if err == nil || !strings.Contains(err.Error(), "symex: codec:") {
			t.Errorf("frame index %s: err = %v, want a symex: codec: error", tc.name, err)
		}
	}
}

// TestStateCodecRefusesV1: a version 1 frame, which still carries each
// frame's predecessor block, is refused with the codec's version error
// rather than misread as version 2.
func TestStateCodecRefusesV1(t *testing.T) {
	p, _ := coreutils.Get("wc")
	c, err := core.CompileProgram(p, pipeline.O0)
	if err != nil {
		t.Fatal(err)
	}
	eng, args := newVerifyEngine(c, 3, symex.Options{})
	states, err := eng.Split("umain", args, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := eng.EncodeStates(states)
	if err != nil {
		t.Fatal(err)
	}
	blob[len("OVSX")] = 1
	_, err = symex.NewEngine(c.Mod, symex.Options{}).DecodeStates(blob)
	if err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Errorf("decoding a version 1 frame: %v, want the codec's version error", err)
	}
}
