package symex

import (
	"sync"
	"testing"

	"overify/internal/ir"
)

// fuzzBlocks builds a small CFG pool (b0 -> b1 -> b2 -> b0, b3 isolated)
// so covnew's successor scoring sees real edges.
func fuzzBlocks() []*ir.Block {
	blocks := make([]*ir.Block, 4)
	for i := range blocks {
		blocks[i] = &ir.Block{Name: string(rune('a' + i))}
	}
	for i := 0; i < 3; i++ {
		blocks[i].Instrs = []*ir.Instr{{Op: ir.OpBr, Succs: []*ir.Block{blocks[(i+1)%3]}}}
	}
	return blocks
}

// FuzzStrategyOps drives every strategy through an arbitrary
// Insert/Select/Steal/Evict sequence — with a goroutine hammering the
// coverage map and NotifyCovered the whole time, as exec does — and
// checks the conservation law behind the conformance suite: no state is
// ever lost, duplicated or fabricated, and the covnew heaps keep their
// invariant. Run under -race this also proves NotifyCovered's lock-free
// contract against the frontier-locked mutators.
func FuzzStrategyOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 4, 4, 0, 0, 2, 3, 4, 2, 2, 2, 1, 1, 3, 3})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 0, 0, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const shards = 3
		blocks := fuzzBlocks()
		for _, kind := range Strategies() {
			cov := newCoverage()
			strat := newStrategy(kind, shards, cov)

			// The exec-side writer: covers blocks and notifies, racing
			// the (mutex-serialized, as in the real frontier) mutators.
			var mu sync.Mutex
			done := make(chan struct{})
			stop := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					b := blocks[i%len(blocks)]
					cov.cover(b)
					strat.NotifyCovered(b)
				}
			}()

			nextID := int64(0)
			pending := map[int64]bool{}
			removed := map[int64]bool{}
			takeOut := func(st *State, how string) {
				if st == nil {
					return
				}
				if removed[st.ID] {
					t.Fatalf("%s: %s returned state %d twice", kind, how, st.ID)
				}
				if !pending[st.ID] {
					t.Fatalf("%s: %s fabricated state %d", kind, how, st.ID)
				}
				delete(pending, st.ID)
				removed[st.ID] = true
			}
			for _, op := range ops {
				shard := int(op>>4) % shards
				mu.Lock()
				switch op % 4 {
				case 0: // insert 1..3 states
					n := int(op>>2)%3 + 1
					states := make([]*State, n)
					for i := range states {
						nextID++
						states[i] = mkState(nextID, blocks[int(nextID)%len(blocks)])
						states[i].Forks = int(op) % 5
						pending[nextID] = true
					}
					strat.Insert(shard, states)
				case 1:
					takeOut(strat.Select(shard), "Select")
				case 2:
					takeOut(strat.Steal(shard), "Steal")
				case 3:
					takeOut(strat.Evict(), "Evict")
				}
				mu.Unlock()
			}
			close(stop)
			<-done

			// Drain and settle the books: pending + removed must exactly
			// cover everything ever inserted.
			mu.Lock()
			for s := 0; s < shards; s++ {
				for st := strat.Select(s); st != nil; st = strat.Select(s) {
					takeOut(st, "drain")
				}
				if strat.Len(s) != 0 {
					t.Fatalf("%s: shard %d still reports %d states after drain", kind, s, strat.Len(s))
				}
			}
			mu.Unlock()
			if len(pending) != 0 {
				t.Fatalf("%s: %d states lost (never returned)", kind, len(pending))
			}
			if int64(len(removed)) != nextID {
				t.Fatalf("%s: inserted %d states, got back %d", kind, nextID, len(removed))
			}
		}
	})
}

// FuzzCovnewHeapInvariant replays op sequences against covnew alone and
// validates the per-shard heap invariant after every mutation, with
// coverage growing mid-sequence exactly as NotifyCovered delivers it.
func FuzzCovnewHeapInvariant(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 5, 0, 2, 9, 0, 1})
	f.Add([]byte{7, 3, 128, 9, 200, 1, 0, 0, 64, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const shards = 2
		blocks := fuzzBlocks()
		cov := newCoverage()
		strat := newStrategy(CovNew, shards, cov).(*covnewStrategy)
		nextID := int64(0)
		for _, op := range ops {
			shard := int(op>>4) % shards
			switch op % 5 {
			case 0, 1:
				nextID++
				strat.Insert(shard, []*State{mkState(nextID, blocks[int(op)%len(blocks)])})
			case 2:
				strat.Select(shard)
			case 3:
				strat.Steal(shard)
			default:
				b := blocks[int(op>>2)%len(blocks)]
				cov.cover(b)
				strat.NotifyCovered(b)
			}
			checkCovHeaps(t, strat)
		}
	})
}

// FuzzCoverageMap checks the map's arithmetic under concurrent covers:
// distinct blocks covered == count, covered() agrees with the ops.
func FuzzCoverageMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{9, 9, 9, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		pool := make([]*ir.Block, 8)
		for i := range pool {
			pool[i] = &ir.Block{Name: string(rune('A' + i))}
		}
		cov := newCoverage()
		// Two goroutines race the same op stream; cover must stay
		// idempotent and the count must match the distinct set.
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, op := range ops {
					cov.cover(pool[int(op)%len(pool)])
				}
			}()
		}
		wg.Wait()
		distinct := map[*ir.Block]bool{}
		for _, op := range ops {
			distinct[pool[int(op)%len(pool)]] = true
		}
		if cov.count() != int64(len(distinct)) {
			t.Fatalf("count = %d, want %d distinct", cov.count(), len(distinct))
		}
		for _, b := range pool {
			if cov.covered(b) != distinct[b] {
				t.Fatalf("covered(%s) = %v, want %v", b.Name, cov.covered(b), distinct[b])
			}
		}
	})
}
