// Package verdicts is the content-addressed verify-result store behind
// incremental re-verification (ROADMAP item 2): the paper's pitch only
// pays off if re-verifying after an edit is near-free, so per-entry
// verify outcomes are keyed by a fingerprint of everything that can
// change them — the canonical IR of the entry function and every
// function and global reachable from it, the pipeline that produced the
// module, and the verify configuration — and persisted as flat JSON
// files under a cache directory (`.overify-cache/` by convention).
//
// Soundness rests on two invariants the rest of the tree provides:
// verdicts are deterministic functions of content (the solver budget is
// counted in assignments tried, so no evaluator or schedule can flip a
// verdict — see internal/solver), and only deterministic outcomes are
// stored (Cacheable rejects truncated, timed-out or deadline-tainted
// runs). A warm lookup therefore reproduces the cold run's merged
// report byte-for-byte; Render gives that claim a concrete byte string
// to compare.
//
// Store reads are tolerant by design: a corrupted, truncated or
// wrong-schema entry is a cache miss, never an error — the worst a bad
// cache can do is cost one re-exploration.
package verdicts

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"overify/internal/ir"
	"overify/internal/lru"
	"overify/internal/solver"
	"overify/internal/symex"
)

// Schema versions the on-disk entry layout; bump it whenever the entry
// fields or the meaning of a stored counter changes, and every old
// entry silently misses.
const Schema = 1

// Key is the content address of one verify outcome: 32 hex digits of
// the 128-bit fingerprint.
type Key string

// KeyFor fingerprints the verification-relevant content of mod rooted
// at entry: the canonical IR text of the entry function, of every
// function transitively reachable through calls, and of every global
// any of them references (all in sorted name order), plus the caller's
// context strings (pipeline description, verify configuration). It
// reports ok=false when the entry function does not exist — there is
// nothing meaningful to key.
//
// Keying the reachable closure rather than the whole module is what
// makes the store per-function: editing a function the entry never
// calls leaves the key unchanged, while any edit to reachable IR —
// including pass-pipeline changes that reshape it — produces a new key.
func KeyFor(mod *ir.Module, entry string, context ...string) (Key, bool) {
	root := mod.Func(entry)
	if root == nil {
		return "", false
	}

	// Reachable function closure, then referenced globals.
	seen := map[*ir.Function]bool{root: true}
	work := []*ir.Function{root}
	globals := map[string]*ir.Global{}
	var funcs []*ir.Function
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		funcs = append(funcs, f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Callee != nil && !seen[in.Callee] {
					seen[in.Callee] = true
					work = append(work, in.Callee)
				}
				for _, a := range in.Args {
					if g, ok := a.(*ir.Global); ok {
						globals[g.Name] = g
					}
				}
			}
		}
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Name < funcs[j].Name })
	gnames := make([]string, 0, len(globals))
	for n := range globals {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)

	h := solver.NewHasher()
	h.WriteString(fmt.Sprintf("overify-verdict-schema-%d\x00", Schema))
	h.WriteString(entry)
	h.WriteString("\x00")
	for _, c := range context {
		h.WriteString(c)
		h.WriteString("\x00")
	}
	for _, n := range gnames {
		h.WriteString(globals[n].Def())
		h.WriteString("\n")
	}
	for _, f := range funcs {
		f.WriteText(h) // the bytes of f.String(), never built as a string
		h.WriteString("\n")
	}
	return Key(h.Sum().Hex()), true
}

// Bug is the stored form of one merged bug report. Site identity
// (kind, message, location) is already stable across schedules — the
// deterministic merge guarantees it — so storing it verbatim round-
// trips byte-identically.
type Bug struct {
	Kind  int    `json:"kind"`
	Msg   string `json:"msg"`
	Where string `json:"where"`
	Input []byte `json:"input,omitempty"`
}

// Entry is one persisted verify outcome: the merged bug reports plus
// the schedule-invariant counters the conformance suites gate (paths,
// instructions, coverage, solver verdict counts). Wall-clock times and
// schedule-dependent counters (forks, states explored, per-worker
// stats) are deliberately absent — they could not be reproduced on a
// warm hit.
type Entry struct {
	Schema  int    `json:"schema"`
	Key     string `json:"key"`
	Program string `json:"program,omitempty"`
	Entry   string `json:"entry"`
	Level   string `json:"level,omitempty"`

	Bugs          []Bug `json:"bugs,omitempty"`
	Paths         int64 `json:"paths"`
	ErrorPaths    int64 `json:"errorPaths"`
	Instrs        int64 `json:"instrs"`
	CoveredBlocks int   `json:"coveredBlocks"`
	Queries       int64 `json:"queries"`
	Sat           int64 `json:"sat"`
	Unsat         int64 `json:"unsat"`
}

// Cacheable reports whether rep is a deterministic outcome safe to
// persist: its verdict is not inconclusive. A timed-out run depends on
// machine speed, not content. Assignment-budget failures without a
// deadline are deterministic but rejected too: a failure means the
// engine could not decide some query, so a path it followed may be
// infeasible, and where both sides of a branch were undecided it
// followed only one (exec.go, OpCondBr). Keeping the store to decided
// outcomes keeps every stored verdict exact.
func Cacheable(rep *symex.Report) bool {
	if rep == nil {
		return false
	}
	v, _ := rep.Verdict()
	return v != symex.Inconclusive
}

// FromReport converts a verify report into its stored form.
func FromReport(key Key, program, entry, level string, rep *symex.Report) *Entry {
	e := &Entry{
		Schema: Schema, Key: string(key),
		Program: program, Entry: entry, Level: level,
		Paths:         rep.Stats.Paths,
		ErrorPaths:    rep.Stats.ErrorPaths,
		Instrs:        rep.Stats.Instrs,
		CoveredBlocks: rep.Stats.CoveredBlocks,
		Queries:       rep.Stats.SolverStats.Queries,
		Sat:           rep.Stats.SolverStats.Sat,
		Unsat:         rep.Stats.SolverStats.Unsat,
	}
	for _, b := range rep.Bugs {
		e.Bugs = append(e.Bugs, Bug{
			Kind: int(b.Kind), Msg: b.Msg, Where: b.Where,
			Input: append([]byte(nil), b.Input...),
		})
	}
	return e
}

// Report reconstitutes the stored outcome as a verify report. The
// VerdictCacheHits / SkippedFuncVerifies counters are the caller's to
// set — the entry records the cold run, not how it was served.
func (e *Entry) Report() *symex.Report {
	rep := &symex.Report{}
	rep.Stats.Paths = e.Paths
	rep.Stats.ErrorPaths = e.ErrorPaths
	rep.Stats.Instrs = e.Instrs
	rep.Stats.CoveredBlocks = e.CoveredBlocks
	rep.Stats.SolverStats.Queries = e.Queries
	rep.Stats.SolverStats.Sat = e.Sat
	rep.Stats.SolverStats.Unsat = e.Unsat
	for _, b := range e.Bugs {
		rep.Bugs = append(rep.Bugs, symex.Bug{
			Kind: symex.BugKind(b.Kind), Msg: b.Msg, Where: b.Where,
			Input: append([]byte(nil), b.Input...),
		})
	}
	return rep
}

// Render is the canonical byte rendering of a verify outcome: the
// verdict line (rep.Verdict()), every merged bug with its reproducing
// input, and the schedule-invariant counters. An inconclusive report
// says so and why, and still lists the bugs it found, which are real.
// Cold-vs-warm equivalence means "Render of both reports is
// byte-identical".
func Render(rep *symex.Report) string {
	var sb strings.Builder
	switch v, why := rep.Verdict(); v {
	case symex.Inconclusive:
		fmt.Fprintf(&sb, "inconclusive: %d paths (%s)\n", rep.Stats.Paths, strings.Join(why, ", "))
	case symex.Bugs:
		fmt.Fprintf(&sb, "bugs: %d\n", len(rep.Bugs))
	default:
		fmt.Fprintf(&sb, "verified: %d paths, no bugs\n", rep.Stats.Paths)
	}
	for _, b := range rep.Bugs {
		fmt.Fprintf(&sb, "  [%d] %s @ %s input=%q\n", int(b.Kind), b.Msg, b.Where, b.Input)
	}
	fmt.Fprintf(&sb, "paths=%d errorPaths=%d truncated=%d instrs=%d covered=%d queries=%d sat=%d unsat=%d\n",
		rep.Stats.Paths, rep.Stats.ErrorPaths, rep.Stats.TruncatedPaths,
		rep.Stats.Instrs, rep.Stats.CoveredBlocks,
		rep.Stats.SolverStats.Queries, rep.Stats.SolverStats.Sat, rep.Stats.SolverStats.Unsat)
	return sb.String()
}

// Store is the on-disk verdict store: one flat JSON file per key under
// dir. Writers go through a temp file + rename so readers (including
// concurrent processes in watch mode) never observe a half-written
// entry; readers treat anything unreadable as a miss.
//
// A Store is safe for concurrent use: the daemon shares one across all
// in-flight verify jobs. Counters are atomic and the recency index that
// backs eviction is mutex-guarded; file IO itself runs outside the lock
// (rename is atomic, and a reader racing an eviction simply misses).
//
// A bounded store (OpenLimited with a cap > 0) evicts its
// least-recently-used entry once an entry past the cap joins the
// index. Eviction can never change a verdict — the store is a pure
// cache over deterministic outcomes — it only costs a future
// re-exploration.
type Store struct {
	dir string
	max int // max entries; 0 = unbounded

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64

	// mu guards the recency index of the keys this process has seen.
	mu    sync.Mutex
	index *lru.Cache[Key, struct{}]
}

// Stats is the store's counter snapshot: the shared cache shape
// (Entries counts the recency index; the store charges no bytes) plus
// the entries written and the cap.
type Stats struct {
	lru.Stats
	Stores int64 `json:"stores"`
	Limit  int   `json:"limit"` // the entry cap; 0 = unbounded
}

// DefaultDir is the conventional cache location.
const DefaultDir = ".overify-cache"

// Open creates (if needed) and opens an unbounded store rooted at dir;
// empty dir means DefaultDir.
func Open(dir string) (*Store, error) {
	return OpenLimited(dir, 0)
}

// OpenLimited opens a store capped at limit entries (0 = unbounded; a
// negative limit is an error). Entries already on disk are adopted into
// the recency index in file modification-time order (oldest = coldest)
// and the cap is enforced immediately, so a daemon restarted over a
// grown cache directory trims it rather than inheriting an unbounded
// footprint.
func OpenLimited(dir string, limit int) (*Store, error) {
	if limit < 0 {
		return nil, fmt.Errorf("verdicts: entry cap %d: want 0 (unbounded) or more", limit)
	}
	if dir == "" {
		dir = DefaultDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("verdicts: open store: %w", err)
	}
	s := &Store{dir: dir, max: limit, index: lru.New[Key, struct{}](limit)}
	s.adoptExisting()
	return s, nil
}

// adoptExisting seeds the recency index from the directory contents,
// evicting past the cap as it goes. Failures are ignored — an
// unindexed entry still serves Get; it just never gets evicted by this
// process.
func (s *Store) adoptExisting() {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return
	}
	type aged struct {
		key Key
		mod int64
	}
	entries := make([]aged, 0, len(matches))
	for _, m := range matches {
		key := Key(strings.TrimSuffix(filepath.Base(m), ".json"))
		st, err := os.Stat(m)
		if err != nil {
			continue
		}
		entries = append(entries, aged{key, st.ModTime().UnixNano()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mod < entries[j].mod })
	for _, e := range entries { // oldest first: each lands in front of the older ones
		s.touch(e.key)
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := s.index.Len()
	s.mu.Unlock()
	return Stats{
		Stats: lru.Stats{
			Hits:      s.hits.Load(),
			Misses:    s.misses.Load(),
			Entries:   int64(n),
			Evictions: s.evictions.Load(),
		},
		Stores: s.stores.Load(),
		Limit:  s.max,
	}
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, string(k)+".json")
}

// touch marks k most-recently-used, inserting it if absent (e.g. an
// entry written by another process sharing the directory), and evicts
// the coldest entry when that takes the index past the cap.
func (s *Store) touch(k Key) {
	s.mu.Lock()
	victim, _, evicted := s.index.Add(k, struct{}{})
	s.mu.Unlock()
	if evicted { // the file goes outside the lock
		os.Remove(s.path(victim))
		s.evictions.Add(1)
	}
}

// Get loads the entry for k. Any failure — missing file, torn write,
// garbage, schema or key mismatch — is reported as a miss.
func (s *Store) Get(k Key) (*Entry, bool) {
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.Schema != Schema || e.Key != string(k) {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.touch(k)
	return &e, true
}

// Recall is Get for a caller that already holds k's decoded entry: it
// reads no file, and reports whether the recency index still holds k.
// When it does, it marks k most recently used and counts the hit Get
// would have counted, so eviction order and the counters read as if
// the file had been read. When it does not — the store's own cap
// evicted k, or this process never saw it — it counts nothing, and
// the caller falls back to Get.
//
// An entry another process sharing the directory deleted is still
// recalled: eviction only costs warmth, never correctness, since the
// entry the caller holds is the outcome the key names.
func (s *Store) Recall(k Key) bool {
	s.mu.Lock()
	_, ok := s.index.Get(k)
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	}
	return ok
}

// Put persists e under k atomically (temp file + rename), then evicts
// the coldest entry if the store is over its cap. Errors are returned but
// safe to ignore: a failed write only loses warmth.
func (s *Store) Put(k Key, e *Entry) error {
	e.Schema, e.Key = Schema, string(k)
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("verdicts: encode %s: %w", k, err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("verdicts: write %s: %w", k, err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("verdicts: write %s: %w", k, errFirst(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), s.path(k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("verdicts: write %s: %w", k, err)
	}
	s.stores.Add(1)
	s.touch(k)
	return nil
}

func errFirst(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
