package symex

import (
	"container/heap"
	"fmt"
	"sync/atomic"

	"overify/internal/ir"
)

// Strategy orders the pending states of the sharded frontier. One
// strategy instance serves all shards of one engine run; the frontier
// serializes every call except NotifyCovered under its own lock, so
// implementations need no locking of their own there.
//
// The contract the conformance suite enforces: a strategy only decides
// *order*. It must never lose, duplicate or mutate a state — every
// inserted state comes back from exactly one Select, Steal or Evict —
// which is what makes the verdicts (bug set, path counts, instruction
// count) identical across strategies on an exhaustive run.
//
// NotifyCovered is the one concurrent entry point: exec calls it from
// any worker, without the frontier lock, whenever a block is executed
// for the first time. Implementations must keep it lock-free (the
// built-in ones bump an atomic generation counter at most).
type Strategy interface {
	// Insert adds forked states to the shard's pool.
	Insert(shard int, states []*State)
	// Select removes and returns the shard's best state, or nil.
	Select(shard int) *State
	// Steal removes and returns the state a thief should take from the
	// (non-empty) victim shard.
	Steal(shard int) *State
	// Evict removes and returns the least valuable state of the fullest
	// shard (the live-states cap fired), or nil if all shards are empty.
	Evict() *State
	// Len is the shard's pending-state count.
	Len(shard int) int
	// NotifyCovered tells the strategy that block b was just executed
	// for the first time. May race with every other method.
	NotifyCovered(b *ir.Block)
}

// SearchKind names a built-in search strategy.
type SearchKind int

// The built-in exploration strategies. DFS keeps the solver's caches
// hot (children share their parent's constraint prefix) and is the
// default; BFS finds shallow bugs first; CovNew weights states by the
// uncovered blocks their next step can reach (KLEE's --search=covnew).
const (
	DFS SearchKind = iota
	BFS
	CovNew
)

var searchNames = [...]string{"dfs", "bfs", "covnew"}

// String returns the flag spelling, e.g. "covnew".
func (k SearchKind) String() string {
	if int(k) < len(searchNames) {
		return searchNames[k]
	}
	return fmt.Sprintf("search(%d)", int(k))
}

// ParseSearch converts a flag spelling into a SearchKind.
func ParseSearch(s string) (SearchKind, error) {
	switch s {
	case "dfs", "DFS", "":
		return DFS, nil
	case "bfs", "BFS":
		return BFS, nil
	case "covnew", "cov-new", "coverage":
		return CovNew, nil
	}
	return DFS, fmt.Errorf("symex: unknown search strategy %q (want dfs, bfs or covnew)", s)
}

// Strategies lists every built-in kind, in flag order.
func Strategies() []SearchKind {
	return []SearchKind{DFS, BFS, CovNew}
}

// newStrategy builds the shard containers for one engine run. cov is
// the engine's coverage map (only covnew reads it).
func newStrategy(kind SearchKind, shards int, cov *coverage) Strategy {
	switch kind {
	case BFS:
		return &listStrategy{fifo: true, shards: make([][]*State, shards)}
	case CovNew:
		return &covnewStrategy{cov: cov, heaps: make([]covHeap, shards)}
	default:
		return &listStrategy{shards: make([][]*State, shards)}
	}
}

// listStrategy is the slice-backed stack/queue shared by DFS and BFS.
type listStrategy struct {
	fifo   bool // select from the front (BFS) instead of the back (DFS)
	shards [][]*State
}

func (l *listStrategy) Len(shard int) int       { return len(l.shards[shard]) }
func (l *listStrategy) NotifyCovered(*ir.Block) {}

func (l *listStrategy) Insert(shard int, states []*State) {
	l.shards[shard] = append(l.shards[shard], states...)
}

func (l *listStrategy) Select(shard int) *State {
	own := l.shards[shard]
	if len(own) == 0 {
		return nil
	}
	if l.fifo {
		st := own[0]
		l.shards[shard] = own[1:]
		return st
	}
	st := own[len(own)-1]
	l.shards[shard] = own[:len(own)-1]
	return st
}

// Steal takes the shard's oldest state: for DFS that is the shallowest
// one — the largest unexplored subtree, the classic work-stealing
// heuristic, leaving the victim its hot deep states — and for BFS it is
// exactly the state Select would return, so stealing preserves the
// breadth-first order.
func (l *listStrategy) Steal(shard int) *State {
	own := l.shards[shard]
	if len(own) == 0 {
		return nil
	}
	st := own[0]
	l.shards[shard] = own[1:]
	return st
}

// Evict drops the shallowest state of the fullest shard, matching the
// pre-strategy frontier's cap behavior.
func (l *listStrategy) Evict() *State {
	big := fullest(func(i int) int { return len(l.shards[i]) }, len(l.shards))
	if big < 0 {
		return nil
	}
	st := l.shards[big][0]
	l.shards[big] = l.shards[big][1:]
	return st
}

// covnewStrategy is the coverage-weighted picker: states whose next
// block (or its successors) are uncovered score higher, steering
// workers toward unexplored territory instead of re-walking hot paths.
// Each shard is a max-heap ordered by (score, depth, insertion order).
//
// Scores are cached at insert time and go stale as coverage grows —
// NotifyCovered just bumps an atomic generation counter. Selection
// rescores lazily: pop the top, recompute; if the score dropped,
// re-push and retry. Coverage only grows, so cached scores only
// overestimate, and the first popped item whose fresh score matches its
// cached one is the true maximum.
type covnewStrategy struct {
	cov   *coverage
	heaps []covHeap
	seq   uint64
	gen   atomic.Uint64
}

// covItem carries a snapshot of the two state fields the heap reads —
// the next block and the fork depth — taken at Insert, so scoring and
// ordering never reach through st.
type covItem struct {
	st    *State
	blk   *ir.Block // st's next block at Insert; nil if it had no frame
	forks int       // st.Forks at Insert
	score int
	gen   uint64 // coverage generation the score was computed at
	seq   uint64 // insertion order, tie-break
}

type covHeap []*covItem

// covBefore is the heap order: higher score first, then deeper states
// (among equally promising states, keep the DFS-ish locality that makes
// solver prefixes cache well), then most recently inserted.
func covBefore(a, b *covItem) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.forks != b.forks {
		return a.forks > b.forks
	}
	return a.seq > b.seq
}

func (h covHeap) Len() int           { return len(h) }
func (h covHeap) Less(i, j int) bool { return covBefore(h[i], h[j]) }
func (h covHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *covHeap) Push(x any)        { *h = append(*h, x.(*covItem)) }
func (h *covHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

func (c *covnewStrategy) Len(shard int) int { return len(c.heaps[shard]) }

func (c *covnewStrategy) NotifyCovered(*ir.Block) { c.gen.Add(1) }

// score counts the uncovered blocks one step from a state about to run
// b: b itself weighs double (executing the state covers it for sure),
// each uncovered successor adds one.
func (c *covnewStrategy) score(b *ir.Block) int {
	if b == nil {
		return 0
	}
	s := 0
	if !c.cov.covered(b) {
		s += 2
	}
	for _, succ := range b.Succs() {
		if !c.cov.covered(succ) {
			s++
		}
	}
	return s
}

func (c *covnewStrategy) Insert(shard int, states []*State) {
	gen := c.gen.Load()
	for _, st := range states {
		c.seq++
		it := &covItem{st: st, forks: st.Forks, gen: gen, seq: c.seq}
		if len(st.Frames) > 0 {
			it.blk = st.top().Block
		}
		it.score = c.score(it.blk)
		heap.Push(&c.heaps[shard], it)
	}
}

// pop returns the shard's true current maximum via lazy rescoring.
func (c *covnewStrategy) pop(shard int) *State {
	h := &c.heaps[shard]
	for h.Len() > 0 {
		it := heap.Pop(h).(*covItem)
		gen := c.gen.Load()
		if it.gen == gen {
			return it.st
		}
		if s := c.score(it.blk); s < it.score {
			it.score, it.gen = s, gen
			heap.Push(h, it)
			continue
		}
		return it.st
	}
	return nil
}

func (c *covnewStrategy) Select(shard int) *State { return c.pop(shard) }

// Steal takes the victim's best-scoring state — the strategy's own
// order, not an arbitrary slot — so work-stealing cannot demote a
// high-priority state behind a thief's leftovers.
func (c *covnewStrategy) Steal(shard int) *State { return c.pop(shard) }

// Evict removes the worst-scoring (then shallowest) state of the
// fullest shard. The scan is linear, but eviction only runs when the
// live-states cap fires — far off the hot path.
func (c *covnewStrategy) Evict() *State {
	big := fullest(func(i int) int { return len(c.heaps[i]) }, len(c.heaps))
	if big < 0 {
		return nil
	}
	h := c.heaps[big]
	worst := 0
	for i := 1; i < len(h); i++ {
		if covBefore(h[worst], h[i]) {
			worst = i
		}
	}
	return heap.Remove(&c.heaps[big], worst).(*covItem).st
}

// fullest returns the index with the largest non-zero length, or -1.
func fullest(length func(int) int, n int) int {
	big, best := -1, 0
	for i := 0; i < n; i++ {
		if l := length(i); l > best {
			big, best = i, l
		}
	}
	return big
}
