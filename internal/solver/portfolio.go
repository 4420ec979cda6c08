package solver

import "overify/internal/expr"

// The solver portfolio: when a group survives value-set propagation and
// stalls the default fixed-order search past portfolioStall
// assignments, K diverse configurations race on the same compiled tape
// and the first answer wins. A configuration differs from the default
// only in *order* — which value a variable tries first, which of
// several smallest-domain variables is branched on — never in what the
// search can conclude, so any configuration's answer is the group's
// answer.
//
// The race is deterministic: instead of wall-clock goroutine racing,
// configurations take turns under a doubling assignment budget
// (stall<<1, stall<<2, ... capped at MaxWork), in a fixed rotation.
// "First answer wins" means the first configuration to decide within
// its budget slice. Every assignment tried by every loser accrues to
// Stats.Assignments, so the win is measurable as a counter drop that is
// a pure function of the group — the same on every machine — which is
// what keeps verdict stores and MaxAssignments budgets
// machine-independent with the portfolio enabled.

// searchConfig is one portfolio member: a value-enumeration order and a
// min-domain tie-break. The zero value is the default configuration
// (ascending values, first minimum), byte-identical to the fixed-order
// solver.
type searchConfig struct {
	order   uint8 // 0 ascending, 1 descending, >=2 affine permutation
	tieLast bool  // branch on the last smallest-domain variable, not the first
}

// value maps enumeration step k to the candidate value under this
// configuration. n is the domain size, always a power of two, so an
// affine map with an odd multiplier is a bijection on [0, n).
func (c searchConfig) value(k, n uint64) uint64 {
	switch c.order {
	case 0:
		return k
	case 1:
		return n - 1 - k
	default:
		m := uint64(c.order)*2 + 1 // odd, coprime with n
		return (k*m + uint64(c.order)*7) & (n - 1)
	}
}

// portfolioConfig enumerates the race members. Index 0 is always the
// default configuration, so a race can never conclude something the
// fixed-order solver could not; the rest vary the value order
// (descending, then scattered affine permutations) and the tie-break.
func portfolioConfig(i int) searchConfig {
	switch i {
	case 0:
		return searchConfig{}
	case 1:
		return searchConfig{order: 1}
	case 2:
		return searchConfig{tieLast: true}
	case 3:
		return searchConfig{order: 1, tieLast: true}
	default:
		return searchConfig{order: uint8(i), tieLast: i%2 == 0}
	}
}

// searchPortfolio runs the stall probe and then the budget-doubling
// rotation over the K configured members. domains has already been
// propagated; each attempt gets a private copy (filtering mutates it),
// and the attempt that finds a model leaves its filtered domains in
// domains, as a lone searchTape would. Only running out of assignments
// (or nodes) is a stall: an attempt the wall-clock deadline ended
// (errDeadline) ends the query there — no race is counted for it and no
// further attempt rebuilds the tape state just to read the same clock.
func (s *Solver) searchPortfolio(t *tape, domains []domain) (bool, expr.Model, error) {
	stall := s.stall
	if stall > s.opts.MaxWork {
		stall = s.opts.MaxWork
	}
	attempt := func(cfg searchConfig, budget int64) (bool, expr.Model, error) {
		d := make([]domain, len(domains))
		copy(d, domains)
		sat, model, err := s.searchTape(t, d, cfg, budget)
		if sat {
			copy(domains, d)
		}
		return sat, model, err
	}

	sat, model, err := attempt(searchConfig{}, stall)
	if err != ErrBudget {
		return sat, model, err
	}
	s.Stats.PortfolioRaces++

	for budget := stall; ; {
		budget *= 2
		if budget > s.opts.MaxWork || budget <= 0 {
			budget = s.opts.MaxWork
		}
		for ci := 0; ci < s.opts.Portfolio; ci++ {
			sat, model, err := attempt(portfolioConfig(ci), budget)
			if err == ErrBudget {
				continue
			}
			if err != nil {
				return false, nil, err
			}
			if ci != 0 {
				s.Stats.PortfolioWins++
			}
			return sat, model, nil
		}
		if budget >= s.opts.MaxWork {
			return false, nil, ErrBudget
		}
	}
}
