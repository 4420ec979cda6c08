package solver

import (
	"errors"
	"testing"
	"time"

	"overify/internal/expr"
	"overify/internal/ir"
)

// hardGroup builds (x & y) == 255 over full 8-bit domains: the pair
// cross product (256x256) overflows the value-set pair cap so
// propagation widens to top, unary filtering can't fire with two
// unassigned variables, and the ascending value order must reject 254
// wrong x values (each paying a 256-probe forward check) before
// reaching x=255. Descending order finds x=255, y=255 almost
// immediately — the portfolio's canonical win.
func hardGroup(b *expr.Builder) []*expr.Expr {
	x := b.Var(&expr.Var{Name: "x", Bits: 8, Idx: 0})
	y := b.Var(&expr.Var{Name: "y", Bits: 8, Idx: 1})
	return []*expr.Expr{b.Cmp(ir.OpEq, b.Bin(ir.OpAnd, x, y), b.Const(8, 255))}
}

// TestPortfolioBeatsFixedOrder is the counter-based acceptance check:
// on the hard group the racing solver answers in strictly fewer
// assignments than the fixed-order solver, with at least one win
// credited to a non-default configuration. Both counts are pure
// functions of the group — no wall clock involved.
func TestPortfolioBeatsFixedOrder(t *testing.T) {
	fixedB := expr.NewBuilder()
	fixed := New(Options{})
	sat, model, err := fixed.Sat(hardGroup(fixedB))
	if err != nil || !sat {
		t.Fatalf("fixed: sat=%v err=%v", sat, err)
	}
	if len(model) != 2 {
		t.Fatalf("fixed model: %v", model)
	}

	portB := expr.NewBuilder()
	port := New(Options{Portfolio: 4})
	port.stall = 1024
	psat, pmodel, err := port.Sat(hardGroup(portB))
	if err != nil || !psat {
		t.Fatalf("portfolio: sat=%v err=%v", psat, err)
	}
	for _, b := range pmodel {
		if b.Val != 255 {
			t.Fatalf("portfolio model: %v (want all-255)", pmodel)
		}
	}

	if port.Stats.PortfolioRaces != 1 {
		t.Fatalf("PortfolioRaces = %d, want 1", port.Stats.PortfolioRaces)
	}
	if port.Stats.PortfolioWins < 1 {
		t.Fatalf("PortfolioWins = %d, want >= 1", port.Stats.PortfolioWins)
	}
	if port.Stats.Assignments >= fixed.Stats.Assignments {
		t.Fatalf("portfolio assignments %d not under fixed-order %d",
			port.Stats.Assignments, fixed.Stats.Assignments)
	}
	t.Logf("fixed=%d assignments, portfolio=%d (races=%d wins=%d)",
		fixed.Stats.Assignments, port.Stats.Assignments,
		port.Stats.PortfolioRaces, port.Stats.PortfolioWins)
}

// TestPortfolioDeterministic pins the race's machine-independence: two
// independent solvers produce identical stats and models on the same
// group.
func TestPortfolioDeterministic(t *testing.T) {
	run := func() (Stats, map[string]uint64) {
		b := expr.NewBuilder()
		s := New(Options{Portfolio: 4})
		s.stall = 512
		sat, model, err := s.Sat(hardGroup(b))
		if err != nil || !sat {
			t.Fatalf("sat=%v err=%v", sat, err)
		}
		byName := make(map[string]uint64, len(model))
		for _, b := range model {
			byName[b.Var.Name] = b.Val
		}
		return s.Stats, byName
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	for k, v := range m1 {
		if m2[k] != v {
			t.Fatalf("models differ: %v vs %v", m1, m2)
		}
	}
}

// TestPortfolioOffMatchesDefault pins that Portfolio <= 1 keeps the
// historical fixed-order behavior bit-for-bit: same verdicts, same
// assignment counts, no race counters.
func TestPortfolioOffMatchesDefault(t *testing.T) {
	for _, k := range []int{0, 1} {
		b := expr.NewBuilder()
		s := New(Options{Portfolio: k})
		sat, _, err := s.Sat(hardGroup(b))
		if err != nil || !sat {
			t.Fatalf("Portfolio=%d: sat=%v err=%v", k, sat, err)
		}
		ref := New(Options{})
		rb := expr.NewBuilder()
		rsat, _, rerr := ref.Sat(hardGroup(rb))
		if rerr != nil || !rsat {
			t.Fatalf("ref: sat=%v err=%v", rsat, rerr)
		}
		if s.Stats != ref.Stats {
			t.Fatalf("Portfolio=%d stats drifted from default:\n%+v\n%+v", k, s.Stats, ref.Stats)
		}
		if s.Stats.PortfolioRaces != 0 || s.Stats.PortfolioWins != 0 {
			t.Fatalf("Portfolio=%d: race counters moved: %+v", k, s.Stats)
		}
	}
}

// TestPortfolioUnsatGroup checks a race on an unsatisfiable hard group
// terminates with the correct verdict: (x & y) == 255 && x == 0.
func TestPortfolioUnsatGroup(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var(&expr.Var{Name: "x", Bits: 8, Idx: 0})
	y := b.Var(&expr.Var{Name: "y", Bits: 8, Idx: 1})
	cs := []*expr.Expr{
		b.Cmp(ir.OpEq, b.Bin(ir.OpAnd, x, y), b.Const(8, 255)),
		b.Cmp(ir.OpEq, b.Bin(ir.OpOr, x, y), b.Const(8, 254)),
	}
	s := New(Options{Portfolio: 4})
	s.stall = 256
	sat, _, err := s.Sat(cs)
	if err != nil {
		t.Fatalf("err=%v", err)
	}
	if sat {
		t.Fatalf("sat=true for contradictory group")
	}
}

// TestPortfolioDeadlineIsNotAStall: an attempt that ended on the
// wall-clock deadline must end the query, not start a race. With the
// deadline already past, the stall probe is the one attempt made — it
// compiles the one tape and tries nothing — and PortfolioRaces, a pure
// function of the group, does not learn what time it is.
func TestPortfolioDeadlineIsNotAStall(t *testing.T) {
	s := New(Options{Portfolio: 4})
	s.stall = 1024
	s.SetDeadline(time.Now().Add(-time.Second))
	sat, _, err := s.Sat(hardGroup(expr.NewBuilder()))
	if !errors.Is(err, ErrBudget) || sat {
		t.Fatalf("past the deadline: sat=%v err=%v, want ErrBudget", sat, err)
	}
	want := Stats{Queries: 1, Failures: 1, TapeCompiles: 1, TapeSlots: s.Stats.TapeSlots, MaxGroupVars: 2}
	if s.Stats != want {
		t.Fatalf("stats %+v, want %+v (no race, no assignment, no node)", s.Stats, want)
	}
}
