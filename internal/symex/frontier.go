package symex

import "sync"

// frontier is the sharded set of pending states. Each worker owns one
// shard, a stack: the worker pops its newest state, so exploration is
// depth-first and children run right after the parent whose constraint
// prefix they share. A worker whose shard drains steals the oldest
// state of the longest other shard — the shallowest one, the largest
// unexplored subtree, leaving the victim its hot deep states. On an
// exhaustive run the order decides nothing but speed: every state is
// run exactly once, so the verdicts are the same at any worker count.
//
// A single mutex guards all shards. State transitions (fork, path end)
// are orders of magnitude rarer than interpreted instructions and
// solver work, so the lock is cold; what matters for scaling is that
// each worker keeps its own run between transitions.
type frontier struct {
	mu   sync.Mutex
	cond *sync.Cond

	shards    [][]*State
	maxStates int

	queued  int // states sitting in shards
	active  int // states currently held by workers
	maxLive int // high-water mark of queued+active
	done    bool
}

func newFrontier(workers int, maxStates int) *frontier {
	f := &frontier{
		shards:    make([][]*State, workers),
		maxStates: maxStates,
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// pop removes and returns the shard's newest state, or nil.
func (f *frontier) pop(shard int) *State {
	own := f.shards[shard]
	if len(own) == 0 {
		return nil
	}
	st := own[len(own)-1]
	f.shards[shard] = own[:len(own)-1]
	return st
}

// oldest removes and returns the shard's oldest state, or nil: what a
// thief takes, and what the live-states cap drops.
func (f *frontier) oldest(shard int) *State {
	own := f.shards[shard]
	if len(own) == 0 {
		return nil
	}
	st := own[0]
	f.shards[shard] = own[1:]
	return st
}

// longest returns the index of the longest shard other than skip, or -1
// if they are all empty.
func (f *frontier) longest(skip int) int {
	big, best := -1, 0
	for i, own := range f.shards {
		if i != skip && len(own) > best {
			big, best = i, len(own)
		}
	}
	return big
}

// evict drops the oldest state of the fullest shard (the live-states
// cap fired), or returns nil if every shard is empty.
func (f *frontier) evict() *State {
	big := f.longest(-1)
	if big < 0 {
		return nil
	}
	return f.oldest(big)
}

// put publishes forked states to the worker's shard, returning how many
// pending states it had to evict to stay under maxStates — the caller
// accounts those as truncated.
func (f *frontier) put(id int, states []*State) (dropped int64) {
	if len(states) == 0 {
		return 0
	}
	f.mu.Lock()
	f.shards[id] = append(f.shards[id], states...)
	f.queued += len(states)
	if live := f.queued + f.active; live > f.maxLive {
		f.maxLive = live
	}
	for f.maxStates > 0 && f.queued > f.maxStates {
		if f.evict() == nil {
			break
		}
		f.queued--
		dropped++
	}
	if len(states) > 1 {
		f.cond.Broadcast()
	} else {
		f.cond.Signal()
	}
	f.mu.Unlock()
	return dropped
}

// take returns the next state for worker id, blocking until one is
// available. It returns nil when the exploration is over: every shard
// is empty and no worker holds a state, or a global stop was requested
// (the caller observes that via engine.stopped).
func (f *frontier) take(id int, stopped func() bool) *State {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.done || stopped() {
			f.done = true
			f.cond.Broadcast()
			return nil
		}
		if st := f.popLocked(id); st != nil {
			f.active++
			return st
		}
		if f.active == 0 {
			f.done = true
			f.cond.Broadcast()
			return nil
		}
		f.cond.Wait()
	}
}

// popLocked pops from the worker's own shard, else steals the oldest
// state of the longest other shard.
func (f *frontier) popLocked(id int) *State {
	st := f.pop(id)
	if st == nil {
		if victim := f.longest(id); victim >= 0 {
			st = f.oldest(victim)
		}
	}
	if st != nil {
		f.queued--
	}
	return st
}

// release retires the state the worker was holding; when the last
// holder releases over empty shards, exploration is complete.
func (f *frontier) release() {
	f.mu.Lock()
	f.active--
	if f.active == 0 && f.queued == 0 {
		f.done = true
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// drain empties every shard (a global limit fired) and returns how many
// pending states were discarded, for truncation accounting.
func (f *frontier) drain() int64 {
	f.mu.Lock()
	var n int64
	for i, own := range f.shards {
		n += int64(len(own))
		f.shards[i] = nil
	}
	f.queued -= int(n)
	f.done = true
	f.cond.Broadcast()
	f.mu.Unlock()
	return n
}
