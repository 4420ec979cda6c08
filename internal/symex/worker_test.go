package symex

import "testing"

// TestFrontierMaxStates: overflowing the cap evicts the shallowest
// states, reports how many to the caller, and the high-water mark
// counts the held state.
func TestFrontierMaxStates(t *testing.T) {
	s := &stack{max: 2}
	if n := s.push([]*State{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}, 1); n != 2 {
		t.Errorf("evicted %d states, want 2", n)
	}
	if s.maxLive != 5 {
		t.Errorf("high-water mark %d, want 5 (four queued, one held)", s.maxLive)
	}
	// The two survivors are the deepest, newest first.
	for _, want := range []int64{4, 3} {
		if got := s.pop(); got == nil || got.ID != want {
			t.Fatalf("popped %v, want ID %d", got, want)
		}
	}
	if got := s.pop(); got != nil {
		t.Errorf("popped ID %d from an empty stack", got.ID)
	}
}

// TestFrontierDrain: drain empties the stack and returns how many
// states it discarded.
func TestFrontierDrain(t *testing.T) {
	s := &stack{max: maxStates}
	s.push([]*State{{ID: 1}, {ID: 2}}, 0)
	if st := s.pop(); st == nil {
		t.Fatal("no state")
	}
	if n := s.drain(); n != 1 {
		t.Errorf("drain returned %d, want 1", n)
	}
	if st := s.pop(); st != nil {
		t.Error("pop after drain returned a state")
	}
}

// TestFrontierStopped: once a limit fired, the worker takes no further
// state: run returns with the stack untouched, for RunStates to drain
// as truncated.
func TestFrontierStopped(t *testing.T) {
	e := &Engine{stopped: true}
	s := &stack{max: maxStates}
	s.push([]*State{{ID: 1}, {ID: 2}}, 0)
	(&worker{e: e}).run(s)
	if e.explored != 0 || len(s.states) != 2 {
		t.Errorf("a stopped run explored %d states and left %d queued, want 0 and 2", e.explored, len(s.states))
	}
}
