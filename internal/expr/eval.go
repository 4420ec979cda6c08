package expr

import "overify/internal/ir"

// Binding is one variable's value in a Model.
type Binding struct {
	Var *Var
	Val uint64
}

// Model is an assignment of values to variables: a flat binding list,
// each variable at most once, in no particular order. A variable it does
// not bind reads as zero. The solver's models bind a handful of input
// bytes, so a lookup is a short scan and a model is one allocation.
type Model []Binding

// Value returns v's value under the model (zero when unbound).
func (m Model) Value(v *Var) uint64 {
	for _, b := range m {
		if b.Var == v {
			return b.Val
		}
	}
	return 0
}

// Eval evaluates e under a complete assignment of its variables, using
// the shared ir scalar semantics. Missing variables evaluate to zero.
// One-shot convenience over Evaluator (which amortizes the memo across
// calls).
func Eval(e *Expr, m Model) uint64 {
	ev := NewEvaluator()
	ev.Bind(m)
	return ev.Eval(e)
}

// Evaluator evaluates expressions under complete assignments (missing
// variables read as zero, matching Eval) without per-call allocation:
// the memo map is reused across calls and invalidated in O(1) by a
// generation stamp when the assignment is rebound. The solver's
// model-reuse probe evaluates the constraints a branch added under each
// recent model through one of these.
type Evaluator struct {
	asn  Model
	memo map[*Expr]stampedVal
	gen  uint32
}

type stampedVal struct {
	gen uint32
	val uint64
}

// NewEvaluator returns an evaluator with no assignment bound. The memo
// starts empty and grows with use: every solver holds one, and most
// evaluate a few small constraints or none.
func NewEvaluator() *Evaluator {
	return &Evaluator{memo: make(map[*Expr]stampedVal), gen: 1}
}

// Bind sets the assignment for subsequent Eval calls and invalidates
// all memoized results.
func (ev *Evaluator) Bind(m Model) {
	ev.asn = m
	ev.gen++
}

// Reset unbinds the assignment and empties the memo, keeping its
// storage, so an evaluator kept for reuse holds no expression alive.
func (ev *Evaluator) Reset() {
	ev.asn = nil
	clear(ev.memo)
}

// Eval evaluates e under the bound assignment; semantics match the
// package-level Eval exactly.
func (ev *Evaluator) Eval(e *Expr) uint64 {
	if s, ok := ev.memo[e]; ok && s.gen == ev.gen {
		return s.val
	}
	var r uint64
	switch e.Kind {
	case KConst:
		r = e.Val
	case KVar:
		r = ir.Mask(e.Bits, ev.asn.Value(e.V))
	case KBin:
		a := ev.Eval(e.Args[0])
		b := ev.Eval(e.Args[1])
		// Division by zero evaluates to 0 here; the engine checks the
		// denominator before ever building the expression.
		res, ok := ir.EvalBin(e.Op, e.Bits, a, b)
		if !ok {
			res = 0
		}
		r = res
	case KCmp:
		a := ev.Eval(e.Args[0])
		b := ev.Eval(e.Args[1])
		if ir.EvalCmp(e.Op, e.Args[0].Bits, a, b) {
			r = 1
		}
	case KSelect:
		if ev.Eval(e.Args[0]) != 0 {
			r = ev.Eval(e.Args[1])
		} else {
			r = ev.Eval(e.Args[2])
		}
	case KCast:
		r = ir.EvalCast(e.Op, e.Args[0].Bits, e.Bits, ev.Eval(e.Args[0]))
	case KRead:
		idx := ev.Eval(e.Args[0])
		if idx < uint64(len(e.Table)) {
			r = e.Table[idx]
		}
	}
	r = ir.Mask(e.Bits, r)
	ev.memo[e] = stampedVal{gen: ev.gen, val: r}
	return r
}

// PartialResult is a three-valued evaluation outcome.
type PartialResult struct {
	Known bool
	Val   uint64
}

// PartialEvaluator evaluates expressions under a partial assignment —
// variables present in Asn are fixed, others unknown, and known
// short-circuits (x*0, and-with-false, or-with-true, select with a
// known condition) are applied. Results are memoized, so Asn must not
// change while the evaluator is in use.
type PartialEvaluator struct {
	Asn  map[*Var]uint64
	memo map[*Expr]PartialResult
	// Work counts node visits since construction; callers use it to
	// enforce time budgets.
	Work int64
}

// NewPartialEvaluator returns an evaluator over the given assignment.
func NewPartialEvaluator(asn map[*Var]uint64) *PartialEvaluator {
	return &PartialEvaluator{Asn: asn, memo: make(map[*Expr]PartialResult, 256)}
}

// Eval evaluates e under the partial assignment.
func (pe *PartialEvaluator) Eval(e *Expr) PartialResult {
	if res, ok := pe.memo[e]; ok {
		return res
	}
	pe.Work++
	res := pe.eval(e)
	if res.Known {
		res.Val = ir.Mask(e.Bits, res.Val)
	}
	pe.memo[e] = res
	return res
}

func (pe *PartialEvaluator) eval(e *Expr) PartialResult {
	unknown := PartialResult{}
	switch e.Kind {
	case KConst:
		return PartialResult{Known: true, Val: e.Val}
	case KVar:
		if v, ok := pe.Asn[e.V]; ok {
			return PartialResult{Known: true, Val: ir.Mask(e.Bits, v)}
		}
		return unknown
	case KBin:
		a := pe.Eval(e.Args[0])
		b := pe.Eval(e.Args[1])
		if a.Known && b.Known {
			r, ok := ir.EvalBin(e.Op, e.Bits, a.Val, b.Val)
			if !ok {
				r = 0
			}
			return PartialResult{Known: true, Val: r}
		}
		switch e.Op {
		case ir.OpAnd:
			if (a.Known && a.Val == 0) || (b.Known && b.Val == 0) {
				return PartialResult{Known: true, Val: 0}
			}
		case ir.OpOr:
			ones := ir.Mask(e.Bits, ^uint64(0))
			if (a.Known && a.Val == ones) || (b.Known && b.Val == ones) {
				return PartialResult{Known: true, Val: ones}
			}
		case ir.OpMul:
			if (a.Known && a.Val == 0) || (b.Known && b.Val == 0) {
				return PartialResult{Known: true, Val: 0}
			}
		}
		return unknown
	case KCmp:
		a := pe.Eval(e.Args[0])
		b := pe.Eval(e.Args[1])
		if a.Known && b.Known {
			if ir.EvalCmp(e.Op, e.Args[0].Bits, a.Val, b.Val) {
				return PartialResult{Known: true, Val: 1}
			}
			return PartialResult{Known: true, Val: 0}
		}
		return unknown
	case KSelect:
		c := pe.Eval(e.Args[0])
		if c.Known {
			if c.Val != 0 {
				return pe.Eval(e.Args[1])
			}
			return pe.Eval(e.Args[2])
		}
		t := pe.Eval(e.Args[1])
		f := pe.Eval(e.Args[2])
		if t.Known && f.Known && t.Val == f.Val {
			return t
		}
		return unknown
	case KCast:
		a := pe.Eval(e.Args[0])
		if a.Known {
			return PartialResult{Known: true, Val: ir.EvalCast(e.Op, e.Args[0].Bits, e.Bits, a.Val)}
		}
		return unknown
	case KRead:
		a := pe.Eval(e.Args[0])
		if a.Known {
			if a.Val < uint64(len(e.Table)) {
				return PartialResult{Known: true, Val: e.Table[a.Val]}
			}
			return PartialResult{Known: true, Val: 0}
		}
		return unknown
	}
	return unknown
}
