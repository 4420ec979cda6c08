package ir_test

import (
	"fmt"
	"slices"
	"testing"

	"overify/internal/coreutils"
	"overify/internal/frontend"
	"overify/internal/ir"
	"overify/internal/lang"
	"overify/internal/libc"
	"overify/internal/passes"
	"overify/internal/pipeline"
)

// The references below are the map-building CFG queries the number-
// indexed tables replaced, kept verbatim on the IR's public surface.

func refPreds(f *ir.Function) map[*ir.Block][]*ir.Block {
	preds := make(map[*ir.Block][]*ir.Block, len(f.Blocks))
	for _, b := range f.Blocks {
		preds[b] = nil
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

func refRPO(f *ir.Function) []*ir.Block {
	seen := make(map[*ir.Block]bool, len(f.Blocks))
	var post []*ir.Block
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			visit(s)
		}
		post = append(post, b)
	}
	if e := f.Entry(); e != nil {
		visit(e)
	}
	slices.Reverse(post)
	return post
}

type refDomTree struct {
	entry *ir.Block
	idom  map[*ir.Block]*ir.Block
	order map[*ir.Block]int
	rpo   []*ir.Block
	preds map[*ir.Block][]*ir.Block
}

func refDom(f *ir.Function) *refDomTree {
	dt := &refDomTree{
		entry: f.Entry(),
		idom:  make(map[*ir.Block]*ir.Block),
		order: make(map[*ir.Block]int),
		rpo:   refRPO(f),
		preds: refPreds(f),
	}
	for i, b := range dt.rpo {
		dt.order[b] = i
	}
	if dt.entry == nil {
		return dt
	}
	dt.idom[dt.entry] = dt.entry
	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for dt.order[a] > dt.order[b] {
				a = dt.idom[a]
			}
			for dt.order[b] > dt.order[a] {
				b = dt.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range dt.rpo {
			if b == dt.entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range dt.preds[b] {
				if dt.idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && dt.idom[b] != newIdom {
				dt.idom[b] = newIdom
				changed = true
			}
		}
	}
	return dt
}

func (dt *refDomTree) reachable(b *ir.Block) bool {
	_, ok := dt.order[b]
	return ok
}

func (dt *refDomTree) dominates(a, b *ir.Block) bool {
	if !dt.reachable(a) || !dt.reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := dt.idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

func (dt *refDomTree) children() map[*ir.Block][]*ir.Block {
	ch := make(map[*ir.Block][]*ir.Block)
	for _, b := range dt.rpo {
		if b == dt.entry {
			continue
		}
		if id := dt.idom[b]; id != nil {
			ch[id] = append(ch[id], b)
		}
	}
	return ch
}

func (dt *refDomTree) frontiers() map[*ir.Block][]*ir.Block {
	df := make(map[*ir.Block][]*ir.Block)
	for _, b := range dt.rpo {
		if len(dt.preds[b]) < 2 {
			continue
		}
		for _, p := range dt.preds[b] {
			if !dt.reachable(p) {
				continue
			}
			for runner := p; runner != dt.idom[b]; {
				if !slices.Contains(df[runner], b) {
					df[runner] = append(df[runner], b)
				}
				next := dt.idom[runner]
				if next == nil || next == runner {
					break
				}
				runner = next
			}
		}
	}
	return df
}

// checkCFGTables compares every table query on f with the references.
func checkCFGTables(f *ir.Function) error {
	if f.IsDeclaration() {
		return nil
	}
	names := func(bs []*ir.Block) []string {
		out := make([]string, len(bs))
		for i, b := range bs {
			out[i] = b.Name
		}
		return out
	}
	same := func(what string, got, want []*ir.Block) error {
		if !slices.Equal(got, want) {
			return fmt.Errorf("@%s %s = %v, reference %v", f.Name, what, names(got), names(want))
		}
		return nil
	}
	ref := refDom(f)
	preds := f.Preds()
	dt := ir.ComputeDom(f)
	if err := same("RPO", dt.RPO(), ref.rpo); err != nil {
		return err
	}
	if err := same("ReversePostorder", ir.ReversePostorder(f), ref.rpo); err != nil {
		return err
	}
	children, refChildren := dt.ChildrenInto(ir.BlockTable{}), ref.children()
	df, refDF := dt.DominanceFrontiersInto(ir.BlockTable{}), ref.frontiers()
	for _, b := range f.Blocks {
		if err := same("preds of "+b.Name, preds.Of(b), ref.preds[b]); err != nil {
			return err
		}
		if got, want := dt.Idom(b), ref.idom[b]; got != want {
			return fmt.Errorf("@%s idom of %s = %v, reference %v", f.Name, b.Name, got, want)
		}
		if got, want := dt.Reachable(b), ref.reachable(b); got != want {
			return fmt.Errorf("@%s reachable %s = %v, reference %v", f.Name, b.Name, got, want)
		}
		for _, a := range f.Blocks {
			if got, want := dt.Dominates(a, b), ref.dominates(a, b); got != want {
				return fmt.Errorf("@%s %s dominates %s = %v, reference %v", f.Name, a.Name, b.Name, got, want)
			}
		}
		if err := same("dom children of "+b.Name, children.Of(b), refChildren[b]); err != nil {
			return err
		}
		if err := same("frontier of "+b.Name, df.Of(b), refDF[b]); err != nil {
			return err
		}
	}
	// Loops come out ordered by depth, then by the header's RPO index,
	// each listing its blocks in RPO.
	loops := ir.FindLoops(f, dt)
	for i, l := range loops {
		if i > 0 {
			p := loops[i-1]
			if p.Depth > l.Depth || p.Depth == l.Depth && ref.order[p.Header] >= ref.order[l.Header] {
				return fmt.Errorf("@%s loops %s and %s out of order", f.Name, p.Header.Name, l.Header.Name)
			}
		}
		in := l.BlocksInRPO(dt)
		want := slices.Clone(in)
		slices.SortFunc(want, func(a, b *ir.Block) int { return ref.order[a] - ref.order[b] })
		if err := same("loop "+l.Header.Name, in, want); err != nil {
			return err
		}
	}
	return nil
}

// TestCFGTablesMatchMaps: after every top-level pass of the -O0+slice
// and -OVERIFY pipelines over the corpus, every predecessor, dominator,
// RPO, loop-order and frontier query answers what the map-building
// references answer, block for block. Then one refilled PredTable
// answers what a fresh Preds does for every function the pipelines
// left, in ascending and in descending block count.
func TestCFGTablesMatchMaps(t *testing.T) {
	o0slice := pipeline.LevelConfig(pipeline.O0)
	o0slice.Slice = true
	cfgs := map[string]pipeline.Config{
		"-O0+slice": o0slice,
		"-OVERIFY":  pipeline.LevelConfig(pipeline.OVerify),
	}
	progs := coreutils.All()
	if testing.Short() {
		progs = progs[:8]
	}
	var funcs []*ir.Function // every compiled function, for the refill check
	for cname, cfg := range cfgs {
		seq, err := pipeline.Passes(cfg).Build()
		if err != nil {
			t.Fatal(err)
		}
		lk := libc.Uclibc
		if cfg.Level == pipeline.OVerify {
			lk = libc.Verified
		}
		libFile, err := libc.Parse(lk)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			progFile, err := lang.Parse(p.Src)
			if err != nil {
				t.Fatal(err)
			}
			m, err := frontend.LowerFiles(p.Name, libFile, progFile)
			if err != nil {
				t.Fatal(err)
			}
			check := func(after string) error {
				for _, f := range m.Funcs {
					if err := checkCFGTables(f); err != nil {
						return fmt.Errorf("%s %s after %s: %w", p.Name, cname, after, err)
					}
				}
				return nil
			}
			if err := check("lowering"); err != nil {
				t.Fatal(err)
			}
			cx := &passes.Context{Cost: cfg.Cost, SliceChecks: cfg.SliceChecks}
			cx.EnableAnalysisCache()
			mgr := &passes.Manager{AfterPass: func(ps passes.Pass) error { return check(ps.Name()) }}
			if _, err := mgr.Run(m, seq, cx); err != nil {
				t.Fatal(err)
			}
			cx.Release()
			for _, f := range m.Funcs {
				if !f.IsDeclaration() {
					funcs = append(funcs, f)
				}
			}
		}
	}
	checkRefills(t, funcs)
}

// checkRefills refills one PredTable with every function's predecessors
// in ascending and then in descending block count, so a refill follows
// both a smaller and a larger function, and compares each to a fresh
// Preds: stale entries of a larger function must never show.
func checkRefills(t *testing.T, funcs []*ir.Function) {
	t.Helper()
	slices.SortStableFunc(funcs, func(a, b *ir.Function) int { return len(a.Blocks) - len(b.Blocks) })
	descending := slices.Clone(funcs)
	slices.Reverse(descending)
	var buf ir.PredTable
	for pass, order := range [][]*ir.Function{funcs, descending} {
		for _, f := range order {
			buf = f.PredsInto(buf)
			fresh := f.Preds()
			for _, b := range f.Blocks {
				if got, want := buf.Of(b), fresh.Of(b); !slices.Equal(got, want) {
					t.Fatalf("refill %d: @%s (%d blocks) preds of %s = %d blocks, fresh %d",
						pass, f.Name, len(f.Blocks), b.Name, len(got), len(want))
				}
			}
		}
	}
}

// TestTablesMissLaterBlocks: a block created after a table was built
// reads as absent, as it did from the maps.
func TestTablesMissLaterBlocks(t *testing.T) {
	f := chain(4)
	preds, dt := f.Preds(), ir.ComputeDom(f)
	late := f.NewBlock("late")
	ir.NewBuilder(f, late).Br(f.Blocks[1])
	if ps := preds.Of(late); ps != nil {
		t.Errorf("preds of a later block = %v, want nil", ps)
	}
	if dt.Idom(late) != nil || dt.Reachable(late) || dt.Dominates(f.Entry(), late) {
		t.Error("a later block must read as unreachable")
	}
	if got := len(preds.Of(f.Blocks[1])); got != 1 {
		t.Errorf("the table saw the later edge: %d preds, want 1", got)
	}
}

// chain builds a function of n blocks: a straight line of diamonds, so
// every query has joins and frontiers to walk.
func chain(n int) *ir.Function {
	f := ir.NewFunction("chain", ir.FuncType{Ret: ir.I32, Params: []ir.Type{ir.I32}}, "x")
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock("b")
	}
	for i, b := range blocks {
		bd := ir.NewBuilder(f, b)
		switch {
		case i == n-1:
			bd.Ret(f.Params[0])
		case i%3 == 0 && i+2 < n:
			c := bd.Cmp(ir.OpSGt, f.Params[0], ir.ConstInt(ir.I32, uint64(i)))
			bd.CondBr(c, blocks[i+1], blocks[i+2])
		default:
			bd.Br(blocks[i+1])
		}
	}
	return f
}

// TestCFGQueriesAllocConstant: building the predecessor table and the
// dominator tree costs the same number of allocations on a 4-block and
// on a 400-block function, and refilling a warm table costs none.
func TestCFGQueriesAllocConstant(t *testing.T) {
	small, large := chain(4), chain(400)
	var warm ir.PredTable
	queries := []struct {
		name string
		run  func(f *ir.Function)
		max  float64
	}{
		{"Preds", func(f *ir.Function) { f.Preds() }, 8},
		{"ComputeDom", func(f *ir.Function) { ir.ComputeDom(f) }, 8},
		// The large function runs first, so the small one refills a
		// table grown past its need.
		{"PredsInto (warm)", func(f *ir.Function) { warm = f.PredsInto(warm) }, 0},
	}
	for _, q := range queries {
		l := testing.AllocsPerRun(20, func() { q.run(large) })
		s := testing.AllocsPerRun(20, func() { q.run(small) })
		if s != l || s > q.max {
			t.Errorf("%s: %v allocs on 4 blocks, %v on 400; want at most %v on both", q.name, s, l, q.max)
		}
	}
}
