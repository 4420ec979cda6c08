package symex

import "testing"

func never() bool { return false }

// TestFrontierStealing: a worker with an empty shard must steal the
// shallowest state from the longest other shard.
func TestFrontierStealing(t *testing.T) {
	f := newFrontier(2, 0)
	a, b, c := &State{ID: 1}, &State{ID: 2}, &State{ID: 3}
	f.put(0, []*State{a, b, c})

	// Worker 1 owns nothing: it steals the oldest state of shard 0.
	got := f.take(1, never)
	if got != a {
		t.Errorf("steal took ID %d, want the shallowest (ID 1)", got.ID)
	}
	// Worker 0 pops its own shard from the back.
	got = f.take(0, never)
	if got != c {
		t.Errorf("own pop took ID %d, want the deepest (ID 3)", got.ID)
	}
}

// TestFrontierTermination: take returns nil once all shards are empty
// and no worker holds a state — and only then.
func TestFrontierTermination(t *testing.T) {
	f := newFrontier(2, 0)
	f.put(0, []*State{{ID: 1}})

	st := f.take(0, never)
	if st == nil {
		t.Fatal("no state")
	}
	// Worker 0 still holds the state: a second taker must block, so run
	// it in a goroutine and release from here.
	done := make(chan *State)
	go func() { done <- f.take(1, never) }()
	f.release()
	if got := <-done; got != nil {
		t.Errorf("take after final release returned state ID %d, want nil", got.ID)
	}
	// Subsequent takes return nil immediately.
	if got := f.take(0, never); got != nil {
		t.Error("take after done returned a state")
	}
}

// TestFrontierMaxStates: overflowing the cap drops the shallowest
// states and reports the count to the caller.
func TestFrontierMaxStates(t *testing.T) {
	f := newFrontier(1, 2)
	if n := f.put(0, []*State{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}); n != 2 {
		t.Errorf("dropped %d states, want 2", n)
	}
	// The two survivors are the deepest.
	if got := f.take(0, never); got.ID != 4 {
		t.Errorf("took ID %d, want 4", got.ID)
	}
	if got := f.take(0, never); got.ID != 3 {
		t.Errorf("took ID %d, want 3", got.ID)
	}
}

// TestFrontierDrain: drain empties every shard and wakes blocked
// takers.
func TestFrontierDrain(t *testing.T) {
	f := newFrontier(2, 0)
	f.put(0, []*State{{ID: 1}, {ID: 2}})
	if st := f.take(0, never); st == nil {
		t.Fatal("no state")
	}
	if n := f.drain(); n != 1 {
		t.Errorf("drain returned %d, want 1", n)
	}
	f.release()
	if st := f.take(1, never); st != nil {
		t.Error("take after drain returned a state")
	}
}

// TestFrontierStopped: a stop request observed in take unblocks the
// caller with nil.
func TestFrontierStopped(t *testing.T) {
	f := newFrontier(1, 0)
	f.put(0, []*State{{ID: 1}})
	if st := f.take(0, func() bool { return true }); st != nil {
		t.Error("take ignored the stop request")
	}
}

// TestStrategyEvict: eviction removes exactly one state, the oldest of
// the fullest shard.
func TestStrategyEvict(t *testing.T) {
	f := newFrontier(2, 0)
	f.shards[0] = []*State{{ID: 1}}
	f.shards[1] = []*State{{ID: 2}, {ID: 3}, {ID: 4}}
	if ev := f.evict(); ev == nil || ev.ID != 2 {
		t.Fatalf("evicted %v, want ID 2 (the oldest of the fullest shard)", ev)
	}
	if len(f.shards[0]) != 1 || len(f.shards[1]) != 2 {
		t.Errorf("shards hold %d and %d states after one eviction, want 1 and 2", len(f.shards[0]), len(f.shards[1]))
	}
	f.shards[0], f.shards[1] = nil, nil
	if ev := f.evict(); ev != nil {
		t.Errorf("evicted ID %d from empty shards", ev.ID)
	}
}

// TestStealFollowsStrategyOrder: a steal takes the victim's oldest
// state and leaves the rest of its stack in order, so the victim goes
// on popping its newest (deepest) states.
func TestStealFollowsStrategyOrder(t *testing.T) {
	f := newFrontier(3, 0)
	f.put(0, []*State{{ID: 1}, {ID: 2}})
	f.put(1, []*State{{ID: 3}, {ID: 4}, {ID: 5}})
	// Worker 2 owns nothing: it steals from the longest shard, 1.
	if got := f.take(2, never); got == nil || got.ID != 3 {
		t.Fatalf("thief stole %v, want ID 3 (the oldest of the longest shard)", got)
	}
	for _, want := range []int64{5, 4} {
		if got := f.take(1, never); got == nil || got.ID != want {
			t.Fatalf("victim took %v, want ID %d", got, want)
		}
	}
}

// FuzzFrontierOps drives the shards through an arbitrary
// push/pop/steal/evict sequence and checks the conservation law behind
// the worker-conformance suite — no state is ever lost, duplicated or
// fabricated — and the order: pop returns a shard's newest state, a
// steal and an eviction its oldest, an eviction from the fullest shard.
func FuzzFrontierOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 4, 4, 0, 0, 2, 3, 4, 2, 2, 2, 1, 1, 3, 3})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 0, 0, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const shards = 3
		fr := newFrontier(shards, 0)
		model := make([][]int64, shards) // each shard's IDs, oldest first
		nextID := int64(0)
		seen := map[int64]bool{}
		check := func(st *State, want int64, how string) {
			if st == nil {
				if want != 0 {
					t.Fatalf("%s returned nil, want state %d", how, want)
				}
				return
			}
			if seen[st.ID] {
				t.Fatalf("%s returned state %d twice", how, st.ID)
			}
			if st.ID != want {
				t.Fatalf("%s returned state %d, want %d", how, st.ID, want)
			}
			seen[st.ID] = true
		}
		newest := func(s int) int64 {
			if n := len(model[s]); n > 0 {
				id := model[s][n-1]
				model[s] = model[s][:n-1]
				return id
			}
			return 0
		}
		oldest := func(s int) int64 {
			if len(model[s]) > 0 {
				id := model[s][0]
				model[s] = model[s][1:]
				return id
			}
			return 0
		}
		for _, op := range ops {
			shard := int(op>>4) % shards
			switch op % 4 {
			case 0: // push 1..3 states
				n := int(op>>2)%3 + 1
				states := make([]*State, n)
				for i := range states {
					nextID++
					states[i] = &State{ID: nextID}
					model[shard] = append(model[shard], nextID)
				}
				fr.shards[shard] = append(fr.shards[shard], states...)
			case 1:
				check(fr.pop(shard), newest(shard), "pop")
			case 2:
				check(fr.oldest(shard), oldest(shard), "steal")
			case 3:
				big, best := -1, 0
				for s := range model {
					if len(model[s]) > best {
						big, best = s, len(model[s])
					}
				}
				want := int64(0)
				if big >= 0 {
					want = oldest(big)
				}
				check(fr.evict(), want, "evict")
			}
		}
		// Drain and settle the books: everything ever pushed came back
		// exactly once.
		for s := 0; s < shards; s++ {
			for st := fr.pop(s); st != nil; st = fr.pop(s) {
				check(st, newest(s), "drain")
			}
		}
		if int64(len(seen)) != nextID {
			t.Fatalf("pushed %d states, got back %d", nextID, len(seen))
		}
	})
}
