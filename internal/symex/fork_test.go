package symex

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"overify/internal/coreutils"
	"overify/internal/expr"
	"overify/internal/frontend"
	"overify/internal/ir"
	"overify/internal/lang"
	"overify/internal/libc"
	"overify/internal/pipeline"
)

// lowerAt compiles src (no libc) at level.
func lowerAt(tb testing.TB, src string, level pipeline.Level) *ir.Module {
	tb.Helper()
	mod, err := frontend.Lower("t", src)
	if err != nil {
		tb.Fatalf("lower: %v", err)
	}
	if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(level)); err != nil {
		tb.Fatalf("optimize: %v", err)
	}
	return mod
}

// testWorker is a worker outside any pool, the way Split builds one.
func testWorker(e *Engine) *worker {
	return e.newWorker(0, nil)
}

// objRef is a memory object as one state holds it: equal across states
// only for a read-only object, which every state shares whole.
type objRef struct {
	*MemObject
	st *State
}

// reachable lists st's memory objects in a fixed order (globals by
// name, then registers frame by frame, pointer cells depth-first), so
// the lists of a state and of its fork line up index by index.
func reachable(e *Engine, st *State) []objRef {
	var out []objRef
	var visit func(o *MemObject)
	visit = func(o *MemObject) {
		if o == nil || o == nullObj || slices.IndexFunc(out, func(r objRef) bool { return r.MemObject == o }) >= 0 {
			return
		}
		r := objRef{MemObject: o}
		if !o.ReadOnly {
			r.st = st
		}
		out = append(out, r)
		for i := int64(0); i < o.Count; i++ {
			visit(st.Cell(o, i).Obj)
		}
	}
	for _, n := range e.byName {
		visit(e.globals[n])
	}
	for _, f := range st.Frames {
		for _, r := range f.Regs {
			visit(r.Obj)
		}
	}
	return out
}

// val is a SymVal with its object named by position in the owning
// state's reachable list: -1 for none (an integer), -2 for an object the
// state cannot reach, and -3 for null.
type val struct {
	e   *expr.Expr
	obj int
}

// image is everything a state can observe of its own registers and
// memory, comparable across states with ==.
func image(e *Engine, st *State) (regs [][]val, cells [][]val) {
	objs := reachable(e, st)
	conv := func(v SymVal) val {
		out := val{e: v.E, obj: -1}
		switch {
		case v.Obj == nullObj:
			out.obj = -3
		case v.Obj != nil:
			if out.obj = slices.IndexFunc(objs, func(r objRef) bool { return r.MemObject == v.Obj }); out.obj < 0 {
				out.obj = -2
			}
		}
		return out
	}
	for _, f := range st.Frames {
		var fr []val
		for _, r := range f.Regs {
			fr = append(fr, conv(r))
		}
		regs = append(regs, fr)
	}
	for _, o := range objs {
		var oc []val
		for i := int64(0); i < o.Count; i++ {
			oc = append(oc, conv(st.Cell(o.MemObject, i)))
		}
		cells = append(cells, oc)
	}
	return regs, cells
}

// global returns the descriptor of the module global called name.
func (e *Engine) global(name string) *MemObject { return e.globals[e.globalNum[e.Mod.Global(name)]] }

const forkSrc = `
const char TAB[4] = {7, 8, 9, 10};
int G[40];
int umain(unsigned char *input, int len) {
	int s = 1;
	int a[40];
	int *p = a;
	G[0] = 5;
	a[17] = 3;
	if (input[0] == 'x') { s = 2; }
	return s + a[17] + *p + G[0] + (int)TAB[input[1] & 3];
}`

// forkIsolation forks parent and drives writes through both sides of
// every reachable object: at the page boundaries, through the symbolic
// offset k, and — for pointer-holding objects — of a pointer. After
// each write the writer must see exactly that write and the other side
// nothing. It returns the (written-to) fork and the object kinds seen.
func forkIsolation(w *worker, parent *State, k *expr.Expr) (*State, map[string]bool, error) {
	B := w.B
	kinds := make(map[string]bool)
	regsBefore, cellsBefore := image(w.e, parent)
	child := w.fork(parent)
	po, co := reachable(w.e, parent), reachable(w.e, child)
	if len(po) != len(co) {
		return nil, nil, fmt.Errorf("fork reaches %d objects, parent %d", len(co), len(po))
	}
	for i := range po {
		if po[i].Name != co[i].Name || po[i].Count != co[i].Count || !ir.SameType(po[i].Elem, co[i].Elem) {
			return nil, nil, fmt.Errorf("object %d: parent %s[%d], fork %s[%d]", i, po[i].Name, po[i].Count, co[i].Name, co[i].Count)
		}
		if shared := po[i] == co[i]; shared != po[i].ReadOnly {
			return nil, nil, fmt.Errorf("%s: header shared=%v, read-only=%v", po[i].Name, shared, po[i].ReadOnly)
		}
	}
	// image names pointers by position in the state's own object list, so
	// equal images also say every pointer the fork holds — in a register
	// or in a cell — names the fork's own object, never the parent's.
	expect := make(map[*State][][]val)
	for _, st := range []*State{parent, child} {
		for i := range cellsBefore {
			expect[st] = append(expect[st], slices.Clone(cellsBefore[i]))
		}
	}
	check := func(what string) error {
		for _, st := range []*State{parent, child} {
			regs, cells := image(w.e, st)
			if !reflect.DeepEqual(regs, regsBefore) {
				return fmt.Errorf("after %s: registers of state %d changed", what, st.ID)
			}
			for i := range cells {
				for c := range cells[i] {
					if cells[i][c] != expect[st][i][c] {
						return fmt.Errorf("after %s: state %d sees %s[%d] = %+v, want %+v", what, st.ID, po[i].Name, c, cells[i][c], expect[st][i][c])
					}
				}
			}
		}
		return nil
	}
	if err := check("fork"); err != nil {
		return nil, nil, err
	}

	for i := range po {
		o := po[i]
		_, ptrs := o.Elem.(ir.PtrType)
		switch {
		case o.ReadOnly:
			kinds["readonly"] = true
			continue
		case ptrs:
			kinds["pointers"] = true
		case strings.HasPrefix(o.Name, "@"):
			kinds["global"] = true
		case o.Name == "input":
			kinds["input"] = true
		case o.Count == 1:
			kinds["scalar"] = true
		case o.Count > 2*pageCells:
			kinds["array"] = true
		}
		for side, st := range []*State{parent, child} {
			objs := reachable(w.e, st)
			for _, c := range []int64{0, pageCells - 1, pageCells, o.Count - 1} {
				if c >= o.Count {
					continue
				}
				var v SymVal
				want, n := val{obj: -1}, uint64(1000*side)+uint64(c)
				if ptrs { // a pointer to the side's own object i, at a telling offset
					v = SymVal{E: B.Const(64, n), Obj: objs[i].MemObject}
					want.obj, want.e = i, v.E
				} else {
					v.E = B.Const(o.Elem.(ir.IntType).Bits, n)
					want.e = v.E
				}
				if res, _ := w.storeCell(st, objs[i].MemObject, B.Const(64, uint64(c)), v); res != execOK {
					return nil, nil, fmt.Errorf("store %s[%d]: result %v", o.Name, c, res)
				}
				expect[st][i][c] = want
				if err := check(fmt.Sprintf("state %d storing %s[%d]", st.ID, o.Name, c)); err != nil {
					return nil, nil, err
				}
			}
			if ptrs {
				continue // symbolic offsets into pointer-holding objects are a reported bug
			}
			v := B.Const(o.Elem.(ir.IntType).Bits, uint64(77+side))
			if res, _ := w.storeCell(st, objs[i].MemObject, k, SymVal{E: v}); res != execOK {
				return nil, nil, fmt.Errorf("store %s[k]: result %v", o.Name, res)
			}
			for c := range expect[st][i] {
				hit := B.Cmp(ir.OpEq, k, B.Const(64, uint64(c)))
				expect[st][i][c].e = B.Select(hit, v, expect[st][i][c].e)
			}
			if err := check(fmt.Sprintf("state %d storing %s[k]", st.ID, o.Name)); err != nil {
				return nil, nil, err
			}
		}
	}
	return child, kinds, nil
}

// TestForkIsolation: a fork shares cells with its parent until one of
// them writes, and no write — through either side, on a page boundary,
// through a symbolic offset, of a pointer — is ever visible to the
// other; nor does a fork's pointer, in a register or in a cell, name a
// parent's object. Checked on a state mid-path, on forks of forks
// (whose pages are by then part owned, part shared), on states that
// crossed the wire, and with the two sides of a fork on two goroutines,
// as two workers hold them under -j 4: what they share is only read.
func TestForkIsolation(t *testing.T) {
	mod := lowerAt(t, forkSrc, pipeline.O0)
	eng := NewEngine(mod, Options{Workers: 2}) // the concurrent builder
	states, err := eng.Split("umain", eng.InputArgs(3), nil, 2)
	if err != nil || len(states) != 2 {
		t.Fatalf("split: %d states, %v", len(states), err)
	}
	w := testWorker(eng)
	k := eng.SymbolicInt("k", ir.I64).E // an offset no path condition mentions
	generations := func(w *worker, st *State, k *expr.Expr) (*State, error) {
		first := st
		for gen := 0; gen < 3; gen++ {
			next, kinds, err := forkIsolation(w, st, k)
			if err != nil {
				return nil, fmt.Errorf("generation %d: %w", gen, err)
			}
			for _, kind := range []string{"scalar", "array", "pointers", "global", "input", "readonly"} {
				if !kinds[kind] {
					return nil, fmt.Errorf("the test program has no %s object", kind)
				}
			}
			st = next
		}
		_, _, err := forkIsolation(w, first, k) // the first parent again, three generations on
		return st, err
	}
	deep, err := generations(w, states[0], k)
	if err != nil {
		t.Fatal(err)
	}

	blob, err := eng.EncodeStates([]*State{states[1], deep})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(mod, Options{})
	decoded, err := eng2.DecodeStates(blob)
	if err != nil {
		t.Fatal(err)
	}
	w2, k2 := testWorker(eng2), eng2.SymbolicInt("k", ir.I64).E
	for _, st := range decoded {
		if _, err := generations(w2, st, k2); err != nil {
			t.Fatalf("decoded state %d: %v", st.ID, err)
		}
	}

	var wg sync.WaitGroup
	for _, st := range []*State{states[1], w.fork(states[1])} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := generations(testWorker(eng), st, k); err != nil {
				t.Errorf("state %d on its own goroutine: %v", st.ID, err)
			}
		}()
	}
	wg.Wait()
}

const calleeForkSrc = `
int pick(unsigned char *in, int *out) {
	int t[2];
	t[0] = 7;
	if (in[0] == 'x') { out[0] = 11; return t[0] + 1; }
	out[0] = 22;
	return t[0] + 2;
}
int umain(unsigned char *input, int len) {
	int a[2];
	a[0] = 0;
	int r = pick(input, a);
	if (input[1] == 'y') { return r + a[0]; }
	return r - a[0];
}`

// TestForkIsolationAcrossFrames: a fork inside a callee copies every
// frame, so the two sides hold distinct caller frames with equal
// contents. Each side then returns into its own frame on its own
// goroutine, as two workers would: each must see only its own return
// value and its own write through the pointer it was passed. Both sides
// then run to the end of every path, handing their frames back for
// reuse.
func TestForkIsolationAcrossFrames(t *testing.T) {
	mod := lowerAt(t, calleeForkSrc, pipeline.O0)
	eng := NewEngine(mod, Options{Workers: 2}) // the concurrent builder
	st, err := eng.initialState("umain", eng.InputArgs(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, forked := testWorker(eng).step(st)
	if len(forked) != 2 || forked[0].top().Fn.Name != "pick" || len(forked[0].Frames) != 2 || len(forked[1].Frames) != 2 {
		t.Fatalf("want two states forked in pick, called from umain, got %d", len(forked))
	}
	a, b := forked[0].Frames[0], forked[1].Frames[0]
	if a == b || forked[0].top() == forked[1].top() {
		t.Fatalf("the two sides of the fork hold a frame in common")
	}
	if a.Fn != b.Fn || a.Block != b.Block || a.Idx != b.Idx || a.base != b.base || !slices.Equal(a.Regs, b.Regs) {
		t.Fatalf("the two sides' umain frames differ before either returned:\n%+v\n%+v", *a, *b)
	}
	umain := mod.Func("umain")
	var call, arr *ir.Instr
	for _, b := range umain.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && call == nil {
				call = in
			}
			if in.Op == ir.OpAlloca && in.Count == 2 {
				arr = in
			}
		}
	}
	// forked[1] took the branch (input[0] == 'x'), forked[0] did not.
	want := map[*State][2]uint64{forked[1]: {8, 11}, forked[0]: {9, 22}}
	var wg sync.WaitGroup
	for side := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := testWorker(eng)
			_, next := w.step(side) // returns into umain, then forks on input[1]
			if len(next) != 2 {
				t.Errorf("state %d: %d states after the return, want 2", side.ID, len(next))
				return
			}
			for _, s := range next {
				f := s.top()
				ret, cell := f.reg(call).E, s.Cell(f.reg(arr).Obj, 0).E
				if f.Fn != umain || ret != eng.B.Const(32, want[side][0]) || cell != eng.B.Const(32, want[side][1]) {
					t.Errorf("state %d in %s: pick returned %v, a[0] = %v; want %d, %d", s.ID, f.Fn.Name, ret, cell, want[side][0], want[side][1])
				}
			}
			for len(next) > 0 {
				s := next[len(next)-1]
				_, more := w.step(s)
				if next = append(next[:len(next)-1], more...); len(more) == 0 {
					w.drop(s)
				}
			}
		}()
	}
	wg.Wait()
}

// TestObjectTableBounded: testdata/lifetimes.c calls a function with an
// array local 1,000 times between two forks of umain. Every return gives
// the local's number back, so the table is the same size at the second
// fork as at the first, and a fork there followed by a store costs what
// it cost at the first.
//
// The cost is read from TotalAlloc, which counts every goroutine of the
// process. A garbage collection that ends inside a window wakes
// goroutines of the runtime's own — the unique package's map cleanup,
// the background scavenger — and what they allocate lands in the window
// (a memory profile taken across 100 windows shows both). Collections
// come every few windows, so the cost is the least of several windows,
// one that no collection reached.
func TestObjectTableBounded(t *testing.T) {
	src, err := os.ReadFile("testdata/lifetimes.c")
	if err != nil {
		t.Fatal(err)
	}
	mod := lowerAt(t, string(src), pipeline.O0)
	eng := NewEngine(mod, Options{})
	st, err := eng.initialState("umain", eng.InputArgs(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(eng)
	input := st.top().Regs[0].Obj
	v := SymVal{E: eng.B.Const(8, 'z')}
	forkCost := func(st *State) uint64 {
		const runs, windows = 200, 5
		least := uint64(math.MaxUint64)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				st.clone(0, w).setCell(input, 0, v)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	var sizes []int32
	var costs []uint64
	for len(sizes) < 2 {
		_, forked := w.step(st)
		if len(forked) != 2 {
			t.Fatalf("umain did not fork")
		}
		st = forked[1]
		sizes, costs = append(sizes, st.nobj), append(costs, forkCost(st))
	}
	t.Logf("object table at the first fork: %d numbers, fork + store %d B; after 1,000 calls: %d, %d B", sizes[0], costs[0], sizes[1], costs[1])
	if sizes[1] != sizes[0] || costs[1] > costs[0]+32 {
		t.Errorf("after 1,000 calls the table holds %d numbers (%d before) and a fork + store costs %d B (%d before)", sizes[1], sizes[0], costs[1], costs[0])
	}
}

// TestForkCopiesOnePage: a fork followed by one putch-shaped store into
// a 128-cell global pays for the table chunk, the page list and the one
// page written, not for the object (4 KB of cells before pages existed)
// nor for a header per reachable object (984 B before the object table;
// 840 B with it).
func TestForkCopiesOnePage(t *testing.T) {
	mod := lowerAt(t, `unsigned char OUT[128]; int f(void) { OUT[3] = 'x'; return 0; }`, pipeline.O0)
	eng := NewEngine(mod, Options{})
	st, err := eng.initialState("f", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(eng)
	out, off, v := eng.global("OUT"), eng.B.Const(64, 3), SymVal{E: eng.B.Const(8, 'x')}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c := w.fork(st)
		w.storeCell(c, out, off, v)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("fork + one store into OUT[128]: %d B", per)
	if per >= 900 {
		t.Errorf("fork + one store allocates %d B, want < 900", per)
	}
	if got := st.Cell(out, 3); got.E == v.E {
		t.Errorf("a fork's store reached the parent")
	}
}

// TestStateLayout pins the widths a fork copies per value and per
// object: a SymVal is two words (every register, cell and phi batch is
// made of them), and a writable object's per-state header — an entry of
// the table chunk the first write after a fork copies — is its page list
// and two flags.
func TestStateLayout(t *testing.T) {
	if got := unsafe.Sizeof(SymVal{}); got != 16 {
		t.Errorf("SymVal is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(object{}); got > 32 {
		t.Errorf("object header is %d bytes, want at most 32", got)
	}
}

// TestReadOnlyTableBuiltOnce: a symbolic-offset load of a read-only
// object reuses one constant table however many states and workers
// load from it (every state shares the object), builds the same Read
// node the fresh table did, and leaves writable objects — whose cells
// can change under the table — on the table-per-load path.
func TestReadOnlyTableBuiltOnce(t *testing.T) {
	mod := lowerAt(t, forkSrc, pipeline.O0)
	eng := NewEngine(mod, Options{Workers: 2})
	st, err := eng.initialState("umain", eng.InputArgs(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	k := eng.SymbolicInt("k", ir.I64).E
	tab, g := eng.global("TAB"), eng.global("G")
	forks := []*State{testWorker(eng).fork(st), testWorker(eng).fork(st)}
	loaded := make([]SymVal, len(forks))
	var wg sync.WaitGroup
	for i, c := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loaded[i], _ = testWorker(eng).loadCell(c, tab, k)
		}()
	}
	wg.Wait()
	want := eng.B.Read([]uint64{7, 8, 9, 10}, 8, k)
	if loaded[0].E != want || loaded[1].E != want {
		t.Errorf("loads of TAB[k] built %v and %v, want %v", loaded[0].E, loaded[1].E, want)
	}
	first := tab.table.Load()
	if first == nil {
		t.Fatalf("no table memoized on the read-only object")
	}
	if again, _ := testWorker(eng).loadCell(st, tab, k); again.E != want || tab.table.Load() != first {
		t.Errorf("a later load rebuilt the table or built a different node")
	}
	if v, res := testWorker(eng).loadCell(st, g, k); res != execOK || v.E.Kind != expr.KRead || g.table.Load() != nil {
		t.Errorf("load of writable G[k]: %v, result %v, memoized table %v", v.E, res, g.table.Load())
	}
}

// TestFrameLayout: registers are numbered params first, then value-
// producing instructions in (block, index) order — the order the state
// codec writes them in — whatever the SSA ids are; void instructions
// get none; an alloca's object name is the one bug messages have always
// printed; and reading a register nothing assigned is still a panic.
func TestFrameLayout(t *testing.T) {
	const src = `
int h(int a) { int t[3]; t[1] = a; return t[1] * 2; }
int g(int a, int b) { int x = h(a) + b; if (x > 3) { x = x * 2; } return x; }`
	for _, level := range []pipeline.Level{pipeline.O0, pipeline.O3} {
		mod := lowerAt(t, src, level)
		eng := NewEngine(mod, Options{})
		for _, fn := range mod.Funcs {
			lay, next := eng.layouts[fn], len(fn.Params)
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					if ir.SameType(in.Typ, ir.Void) {
						if in.ID < len(lay.slot) && lay.slot[in.ID] != 0 {
							t.Errorf("%s at %s: void %s has register %d", fn.Name, level, in.Op, lay.slot[in.ID]-1)
						}
						continue
					}
					if got := lay.index(in); got != next {
						t.Errorf("%s at %s: %s in register %d, want %d", fn.Name, level, in.Ref(), got, next)
					}
					want := ""
					if in.Op == ir.OpAlloca {
						want = fmt.Sprintf("%s.%s", fn.Name, in.Ref())
					}
					if lay.allocas[next] != want {
						t.Errorf("%s at %s: register %d named %q, want %q", fn.Name, level, next, lay.allocas[next], want)
					}
					next++
				}
			}
			if f := eng.newFrame(fn, nil); len(f.Regs) != next {
				t.Errorf("%s at %s: frame has %d registers, want %d", fn.Name, level, len(f.Regs), next)
			}
		}
	}

	mod := lowerAt(t, src, pipeline.O0)
	eng := NewEngine(mod, Options{})
	st, err := eng.initialState("g", []SymVal{eng.IntArg(ir.I32, 1), eng.IntArg(ir.I32, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, f := testWorker(eng), st.top()
	if got := w.ev(st, f, f.Fn.Params[1]); got.E != eng.B.Const(32, 2) {
		t.Errorf("param 1 reads %v", got)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "use of undefined value") {
			t.Errorf("reading an unassigned register: %s", msg)
		}
	}()
	w.ev(st, f, f.Block.Instrs[0])
}

// compileAt links a corpus program against the baseline libc the way
// core.CompileProgram does at -O0 (core imports this package), and
// optimizes it at level.
func compileAt(tb testing.TB, name string, level pipeline.Level) *ir.Module {
	tb.Helper()
	p, ok := coreutils.Get(name)
	if !ok {
		tb.Fatalf("no corpus program %q", name)
	}
	prog, err := lang.Parse(p.Src)
	if err != nil {
		tb.Fatal(err)
	}
	lib, err := libc.Parse(libc.Uclibc)
	if err != nil {
		tb.Fatal(err)
	}
	mod, err := frontend.LowerFiles(name, lib, prog)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(level)); err != nil {
		tb.Fatal(err)
	}
	return mod
}

// BenchmarkFork is what one branch costs the state representation:
// fork a mid-path state, then write one register and one cell of the
// fork, as the two instructions after a branch typically do. The state
// is the last of a small split's frontier, or — for tac — the last one
// forking inside strlen_, where umain's frame below is shared. The
// fork's top frame is a fresh one: nothing here ends a path and hands
// its frames back.
func BenchmarkFork(b *testing.B) {
	for _, bc := range []struct {
		prog  string
		level pipeline.Level
		in    string // the function the forking state must be in, if not any
	}{
		{"wc", pipeline.O0, ""}, {"od-x", pipeline.O0, ""}, {"wc", pipeline.O3, ""}, {"tac", pipeline.O0, "strlen_"},
	} {
		name := bc.prog + bc.level.String()
		if bc.in != "" {
			name += "-in-" + bc.in
		}
		b.Run(name, func(b *testing.B) {
			mod := compileAt(b, bc.prog, bc.level)
			var st *State
			var eng *Engine
			for want := 6; st == nil && want <= 64; want *= 2 {
				eng = NewEngine(mod, Options{})
				states, err := eng.Split("umain", eng.InputArgs(4), nil, want)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range states {
					if bc.in == "" || s.top().Fn.Name == bc.in {
						st = s
					}
				}
			}
			if st == nil {
				b.Fatalf("no state forks in %q", bc.in)
			}
			w := testWorker(eng)
			// The last value-producing instruction of the current block,
			// and the biggest writable global (libc's OUT).
			var reg *ir.Instr
			for _, in := range st.top().Block.Instrs {
				if !ir.SameType(in.Typ, ir.Void) {
					reg = in
				}
			}
			var target *MemObject
			for _, g := range eng.globals {
				if !g.ReadOnly && (target == nil || g.Count > target.Count) {
					target = g
				}
			}
			if reg == nil || target == nil {
				b.Fatalf("no register or global to write")
			}
			v := SymVal{E: eng.B.Const(target.Elem.(ir.IntType).Bits, 1)}
			b.ReportAllocs()
			for b.Loop() {
				c := w.fork(st)
				*c.top().reg(reg) = v
				c.setCell(target, 0, v)
			}
		})
	}
}
