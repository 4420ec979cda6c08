package solver

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"overify/internal/expr"
	"overify/internal/ir"
)

// kernelState is one propagation state a comparison slot is stepped
// from: the variable's domain, and for each operand slot either a finite
// forward set or top (a variable's enumeration, or a narrow slot's full
// range).
type kernelState struct {
	dom  domain
	sets map[int32][]uint64 // slot → forward set; absent: top
	dem  []uint64           // the comparison's demand
}

// apply starts a run over tp in the state: the domain listed, every
// forward set as given, the comparison's demand narrowed.
func (ks *kernelState) apply(p *propagator, tp *tape, s int32) {
	p.arena.settle()
	p.bind(tp)
	domains := []domain{ks.dom}
	p.start(domains)
	p.enumerate()
	for slot := range tp.ops {
		p.fwd[slot] = vset{top: true}
	}
	for slot, vals := range ks.sets {
		p.fwd[slot] = vset{}
		for _, v := range vals {
			p.fwd[slot].add(v, &p.arena)
		}
		p.at[slot].fwd = p.tick()
	}
	p.dem[s] = vset{}
	for _, v := range ks.dem {
		p.dem[s].add(v, &p.arena)
	}
	p.changed, p.unsat = false, false
}

// kernelOutcome is what one step left: the forward set, or the target's
// demand and the domain, with the run's flags.
type kernelOutcome struct {
	set            vset
	dom            domain
	changed, unsat bool
}

func outcomeOf(p *propagator, set *vset) kernelOutcome {
	return kernelOutcome{set: vset{top: set.top, vals: slices.Clone(set.vals)}, dom: p.domains[0], changed: p.changed, unsat: p.unsat}
}

func (a kernelOutcome) equal(b kernelOutcome) bool {
	return a.set.top == b.set.top && slices.Equal(a.set.vals, b.set.vals) && a.dom == b.dom && a.changed == b.changed && a.unsat == b.unsat
}

// TestComparisonKernelsMatchProduct holds the comparison kernels to the
// generic product steps they replace, called directly: for every
// comparison operator at 1, 8, 32 and 64 bits, over operands that are a
// variable (its enumeration, up to all 256 values, or a finite forward
// set of it) and wider slots holding edge values — 0, 1, the signed
// extremes around the sign bit, all-ones and, from 32 bits, values of
// 256 and more — in both operand positions, forwardCmp must build the
// set forwardProduct builds, in the same order, and demandCmp must leave
// the target's demand set (values and order) and the variable's domain
// that demandProduct leaves, under a demand of {0}, {1} and {0, 1}.
func TestComparisonKernelsMatchProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	var p propagator
	cases, forwards, demands := 0, 0, 0
	for _, w := range []int{1, 8, 32, 64} {
		vb := min(w, 8)
		x := &expr.Var{Name: "x", Bits: vb, Idx: 0}
		xn := &expr.Expr{Kind: expr.KVar, Bits: vb, V: x}
		// Two non-variable slots at width w whose forward sets the cases
		// set: what they compute does not matter to a step.
		u := lit(expr.KBin, ir.OpAdd, w, litWiden(xn, w), litConst(w, 3))
		v := lit(expr.KBin, ir.OpXor, w, litWiden(xn, w), litConst(w, 5))
		pairs := [][2]*expr.Expr{{u, v}, {v, u}}
		if w == vb {
			pairs = append(pairs, [2]*expr.Expr{xn, u}, [2]*expr.Expr{u, xn})
		}
		sign := uint64(1) << uint(w-1)
		pool := []uint64{0, 1, 2, sign - 1, sign, sign + 1, ir.Mask(w, ^uint64(0)) - 1, ir.Mask(w, ^uint64(0))}
		if w >= 32 {
			pool = append(pool, 127, 128, 255, 256, 257, 0x5a5a5a5a)
		}
		for i := range pool {
			pool[i] = ir.Mask(w, pool[i])
		}
		// values draws a deduplicated list of up to n values, from the
		// pool and at random.
		values := func(n int) []uint64 {
			var out []uint64
			for len(out) < n {
				c := pool[rng.Intn(len(pool))]
				if rng.Intn(3) == 0 {
					c = ir.Mask(w, rng.Uint64()>>uint(rng.Intn(64)))
				}
				if !slices.Contains(out, c) {
					out = append(out, c)
				}
				if w < 8 && len(out) == 1<<uint(w) {
					break
				}
			}
			return out
		}
		for _, op := range allCmpOps {
			for _, pair := range pairs {
				tp := (&tapeScratch{}).compile(xn.VarSet(), []*expr.Expr{lit(expr.KCmp, op, 1, pair[0], pair[1])})
				s := tp.roots[0]
				cmp := &tp.ops[s]
				for trial := 0; trial < 24; trial++ {
					var ks kernelState
					// The domain: a random subset, sometimes every value.
					full := fullDomain(vb)
					ks.dom = full
					if trial%4 != 0 {
						for i := range ks.dom {
							ks.dom[i] &= rng.Uint64() | rng.Uint64()>>uint(rng.Intn(8))
						}
						ks.dom[0] |= 1 << uint(rng.Intn(1<<uint(min(vb, 6))))
					}
					ks.sets = map[int32][]uint64{}
					for _, a := range []int32{cmp.a0, cmp.a1} {
						switch {
						case tp.ops[a].kind == expr.KVar:
							// Top — the enumeration — or a few of the domain's values.
							if trial%3 == 1 {
								vals := ks.dom.appendValues(nil)
								rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
								ks.sets[a] = vals[:min(len(vals), 1+rng.Intn(vsetCap))]
							}
						case w <= 8 && trial%5 == 2:
							// Top: a narrow slot's full range.
						default:
							ks.sets[a] = values(1 + rng.Intn(vsetCap))
						}
					}
					cases++

					// Forward, gated as forward gates it.
					ks.dem = []uint64{0, 1}
					ks.apply(&p, tp, s)
					// Then again after each finite operand set loses a value
					// and is stamped, as a forward step shrinking it would:
					// the summaries the first step took are stale.
					for _, shrink := range []int32{-1, cmp.a0, cmp.a1} {
						if f := &p.fwd[max(shrink, 0)]; shrink >= 0 {
							if f.top || len(f.vals) < 2 {
								continue
							}
							f.vals = f.vals[:len(f.vals)-1]
							p.at[shrink].fwd = p.tick()
						}
						ia, ib := p.opIter(cmp.a0), p.opIter(cmp.a1)
						if ia == nil || ib == nil || len(ia)*len(ib) > vsetPairCap {
							continue
						}
						var got, want vset
						p.forwardCmp(&got, s, ia, ib)
						p.forwardProduct(&want, s, ia, ib, one)
						if got.top != want.top || !slices.Equal(got.vals, want.vals) {
							t.Fatalf("%v i%d %v trial %d shrunk %d: forward kernel %v, product %v (operands %v, %v)",
								op, w, pair, trial, shrink, got, want, ia, ib)
						}
						forwards++
					}

					// Demand, of either operand, under each demand.
					for _, dem := range [][]uint64{{0}, {1}, {0, 1}} {
						ks.dem = dem
						for which := 0; which < 2; which++ {
							target, other := p.operandAt(s, which), p.operandAt(s, 1-which)
							ks.apply(&p, tp, s)
							tvals, ovals := p.iterable(target), p.iterable(other)
							if tvals == nil || ovals == nil || len(tvals)*len(ovals) > vsetPairCap {
								continue
							}
							p.demandCmp(s, which, tvals, ovals)
							got := outcomeOf(&p, &p.dem[target])
							ks.apply(&p, tp, s)
							tvals, ovals = p.iterable(target), p.iterable(other)
							others := [3][]uint64{one, one, one}
							others[1-which] = ovals
							p.demandProduct(s, which, tvals, others)
							want := outcomeOf(&p, &p.dem[target])
							if !got.equal(want) {
								t.Fatalf("%v i%d trial %d: demand %v of operand %d: kernel %+v, product %+v (target %v, other %v)",
									op, w, trial, dem, which, got, want, tvals, ovals)
							}
							demands++
						}
					}
				}
			}
		}
	}
	t.Logf("%d states: %d forward steps and %d demand steps compared", cases, forwards, demands)
	if forwards == 0 || demands == 0 {
		t.Error("no step compared")
	}
}

// TestSummaryOfDomain holds a variable's summary, taken from its domain's
// bitmap (fillDomain), to the summary of its values listed (fill), at
// every variable width, over empty, one-value, one-half and random
// domains.
func TestSummaryOfDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for b := int32(1); b <= maxValueBits; b++ {
		full := fullDomain(int(b))
		doms := []domain{{}, full, {1}, keyMask(0, signBit(b)-1, 0, b), keyMask(signBit(b), ^uint64(0), 0, b)}
		for i := 0; i < 200; i++ {
			d := domain{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
			for w := range d {
				d[w] &= full[w] & (rng.Uint64() | rng.Uint64())
			}
			doms = append(doms, d, domain{1 << uint(rng.Intn(1<<uint(min(b, 6))))})
		}
		for _, d := range doms {
			var got, want cmpSummary
			got.fillDomain(&d, b)
			want.fill(d.appendValues(nil), signBit(b))
			if got != want {
				t.Fatalf("i%d domain %x: from the bitmap %+v, from the values %+v", b, d, got, want)
			}
		}
	}
}

// CapturedCellQueries is set by the external test package: the query
// stream of one corpus cell — a program at a level over n symbolic
// bytes, explored serially under solver_hard's budgets.
var CapturedCellQueries func(tb testing.TB, prog, level string, n int) [][]*expr.Expr

// TestSnapshotsPinned pins the propagation fixpoints the solver stores
// on the groups of two cells whose propagation is mostly comparisons:
// every group of every captured query, decided in turn on one solver, so
// runs from scratch and runs resumed from a prefix's snapshot both
// count. The digest is over the stored snapshot bytes, in the order the
// groups are decided, and it was taken with the generic product steps
// alone: the comparison kernels must build the same sets in the same
// order. A change to what the cells compile to, not to the solver, moves
// it; then the digest is re-taken at the parent and here, and must agree.
func TestSnapshotsPinned(t *testing.T) {
	if CapturedCellQueries == nil {
		t.Skip("no captured stream (external test package not linked)")
	}
	if testing.Short() {
		t.Skip("captures two heavy cells")
	}
	for _, c := range []struct {
		prog, level string
		n           int
		groups      int
		snaps       int
		digest      uint64
	}{
		{"sort", "-O3", 5, 456, 456, 0x217b79d48a5b8d55},
		{"basename", "-OVERIFY", 4, 104, 74, 0x253a2b66684c18fb},
	} {
		t.Run(fmt.Sprintf("%s%s-n%d", c.prog, c.level, c.n), func(t *testing.T) {
			s := New(Options{MaxWork: 500_000})
			h := fnv.New64a()
			groups, snaps := 0, 0
			for _, q := range CapturedCellQueries(t, c.prog, c.level, c.n) {
				for _, g := range PartitionOf(q).Groups() {
					e, err := s.solveGroup(g)
					if err != nil {
						continue
					}
					groups++
					if e.prop != nil {
						snaps++
						h.Write(e.prop)
					}
				}
			}
			t.Logf("%d groups decided, %d snapshots, digest %#x", groups, snaps, h.Sum64())
			if groups != c.groups || snaps != c.snaps || h.Sum64() != c.digest {
				t.Errorf("%d groups decided, %d snapshots, digest %#x; pinned %d, %d, %#x",
					groups, snaps, h.Sum64(), c.groups, c.snaps, c.digest)
			}
		})
	}
}
