package symex

import "testing"

// testFrontier builds a frontier over a fresh strategy of the given kind.
func testFrontier(workers int, kind SearchKind, maxStates int) *frontier {
	return newFrontier(workers, newStrategy(kind, workers, newCoverage()), maxStates)
}

func never() bool { return false }

// TestFrontierStealing: a worker with an empty shard must steal the
// shallowest state from the longest other shard.
func TestFrontierStealing(t *testing.T) {
	f := testFrontier(2, DFS, 0)
	a, b, c := &State{ID: 1}, &State{ID: 2}, &State{ID: 3}
	f.put(0, []*State{a, b, c})

	// Worker 1 owns nothing: it steals the oldest state of shard 0.
	got := f.take(1, never)
	if got != a {
		t.Errorf("steal took ID %d, want the shallowest (ID 1)", got.ID)
	}
	// Worker 0 pops its own shard from the back (DFS).
	got = f.take(0, never)
	if got != c {
		t.Errorf("own pop took ID %d, want the deepest (ID 3)", got.ID)
	}
}

// TestFrontierBFSOrder: BFS pops the worker's own shard from the front.
func TestFrontierBFSOrder(t *testing.T) {
	f := testFrontier(1, BFS, 0)
	a, b := &State{ID: 1}, &State{ID: 2}
	f.put(0, []*State{a, b})
	if got := f.take(0, never); got != a {
		t.Errorf("BFS took ID %d, want ID 1", got.ID)
	}
	if got := f.take(0, never); got != b {
		t.Errorf("BFS took ID %d, want ID 2", got.ID)
	}
}

// TestFrontierTermination: take returns nil once all shards are empty
// and no worker holds a state — and only then.
func TestFrontierTermination(t *testing.T) {
	f := testFrontier(2, DFS, 0)
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
	f := testFrontier(1, DFS, 2)
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
	f := testFrontier(2, DFS, 0)
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
	f := testFrontier(1, DFS, 0)
	f.put(0, []*State{{ID: 1}})
	if st := f.take(0, func() bool { return true }); st != nil {
		t.Error("take ignored the stop request")
	}
}
