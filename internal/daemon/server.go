package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"overify/internal/core"
	"overify/internal/lru"
	"overify/internal/symex"
	"overify/internal/verdicts"
)

// Config sizes the daemon's shared state and admission control. The
// zero value gets sensible long-running defaults from withDefaults.
type Config struct {
	// Name identifies the daemon in handshakes and stats.
	Name string

	// MaxJobs bounds concurrently executing verify/compile jobs
	// (admission control; zero or negative means one per CPU). Requests
	// beyond the bound queue up to queueWait before being rejected as
	// overloaded; queued requests are granted round-robin across
	// connections (FIFO within a connection), so one deeply pipelined
	// client cannot starve the rest.
	MaxJobs int

	// Verdicts, when non-nil, is the shared verdict store. Nil disables
	// verdict caching daemon-wide.
	Verdicts *verdicts.Store

	// CompileCacheCap bounds the compiled-module cache (default 64
	// modules; negative = unbounded). A hit skips parse + lower +
	// optimize and keeps the per-function analysis results with it.
	CompileCacheCap int

	// queueWait, maxNodes and maxCacheBytes hold the daemon's fixed
	// limits (the constants below); only tests change them.
	queueWait     time.Duration
	maxNodes      int64
	maxCacheBytes int64
}

// The daemon's fixed limits.
const (
	// queueWait is how long a request may wait for a job slot.
	queueWait = 30 * time.Second
	// maxNodes and maxCacheBytes retire the warm state: a new
	// generation starts once the expression builder has built more than
	// maxNodes nodes or the solver cache charges more than maxCacheBytes.
	// Rotation is the warm state's one eviction rule: the old generation
	// stays alive for its in-flight runs and is garbage-collected when
	// they finish, and no request observes a torn generation, since each
	// run pins one symex.Warm for its whole lifetime.
	//
	// A byte of budget is a byte a decided group holds of the heap: its
	// entry, its model, its propagation fixpoint and its share of the
	// cache's map (solver.Cache's entryBytes). 64 MiB is what 1<<20
	// entries of 64 bytes held when the cache was bounded by entry
	// count. A run that starts under the budget finishes in its
	// generation, so a generation ends past the budget by what its last
	// runs added.
	maxNodes      = 4 << 20
	maxCacheBytes = 64 << 20
)

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "overifyd"
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = runtime.NumCPU()
	}
	if c.queueWait == 0 {
		c.queueWait = queueWait
	}
	if c.maxNodes == 0 {
		c.maxNodes = maxNodes
	}
	if c.maxCacheBytes == 0 {
		c.maxCacheBytes = maxCacheBytes
	}
	switch {
	case c.CompileCacheCap == 0:
		c.CompileCacheCap = 64
	case c.CompileCacheCap < 0:
		c.CompileCacheCap = 0 // unbounded
	}
	return c
}

// generation is one numbered epoch of warm state.
type generation struct {
	id int64
	*symex.Warm
}

// Server is the long-lived verification service. One Server holds all
// warm state; connections and requests are cheap views onto it.
type Server struct {
	cfg Config

	genMu     sync.Mutex
	gen       *generation
	rotations atomic.Int64

	compiles *compileCache

	adm      *admission // job-slot dispatcher, round-robin across connections
	draining atomic.Bool
	drainCh  chan struct{}

	active   atomic.Int64
	served   atomic.Int64
	rejected atomic.Int64

	jobsWG  sync.WaitGroup // in-flight verify/compile jobs
	connsWG sync.WaitGroup // open connections
	connsMu sync.Mutex
	conns   map[io.Closer]struct{}

	listenMu sync.Mutex
	listener net.Listener

	// testJobGate, when non-nil, is closed-over by jobs before they
	// start real work; tests use it to hold slots deterministically.
	testJobGate func()
}

// NewServer builds a server over cfg.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		compiles: newCompileCache(cfg.CompileCacheCap),
		adm:      newAdmission(cfg.MaxJobs),
		drainCh:  make(chan struct{}),
		conns:    make(map[io.Closer]struct{}),
	}
	s.gen = &generation{1, symex.NewWarm()}
	return s
}

// currentGen returns the generation new runs should pin, rotating
// first if the builder or the solver cache outgrew its limit.
func (s *Server) currentGen() *generation {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	if s.gen.Builder.NodesBuilt() > s.cfg.maxNodes || s.gen.Cache.Snapshot().Bytes > s.cfg.maxCacheBytes {
		s.gen = &generation{s.gen.id + 1, symex.NewWarm()}
		s.rotations.Add(1)
	}
	return s.gen
}

// Serve accepts connections until the listener fails or Shutdown runs.
func (s *Server) Serve(l net.Listener) error {
	s.listenMu.Lock()
	s.listener = l
	s.listenMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.connsWG.Add(1)
		go func() {
			defer s.connsWG.Done()
			s.ServeConn(conn)
		}()
	}
}

// Shutdown drains the server: no new connections or jobs are admitted,
// in-flight jobs run to completion, then every connection is closed.
// Safe to call more than once.
func (s *Server) Shutdown() {
	if s.draining.Swap(true) {
		return
	}
	close(s.drainCh)
	s.listenMu.Lock()
	if s.listener != nil {
		s.listener.Close()
	}
	s.listenMu.Unlock()
	s.jobsWG.Wait()
	s.connsMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connsMu.Unlock()
	s.connsWG.Wait()
}

// conn is one client connection's state: a shared writer lock (replies
// from concurrent jobs interleave at packet granularity) over the
// underlying stream.
type conn struct {
	s  *Server
	rw io.ReadWriter
	wm sync.Mutex
}

func (c *conn) reply(p *Packet) {
	c.wm.Lock()
	defer c.wm.Unlock()
	// A write error means the client is gone; jobs finish regardless.
	_ = WritePacket(c.rw, p)
}

func (c *conn) replyErr(id uint32, overloaded bool, format string, args ...any) {
	c.reply(&Packet{ID: id, Kind: KindError, Body: body(ErrorBody{
		Message: fmt.Sprintf(format, args...), Overloaded: overloaded,
	})})
}

// ServeConn speaks the packet protocol over rw until EOF, a framing
// error, or shutdown. It is the building block for both transports:
// the socket accept loop and -stdio mode call it directly.
func (s *Server) ServeConn(rw io.ReadWriter) {
	if closer, ok := rw.(io.Closer); ok {
		s.connsMu.Lock()
		s.conns[closer] = struct{}{}
		s.connsMu.Unlock()
		defer func() {
			s.connsMu.Lock()
			delete(s.conns, closer)
			s.connsMu.Unlock()
			closer.Close()
		}()
	}
	c := &conn{s: s, rw: rw}

	// Handshake: the first packet must be a matching-version hello.
	first, err := ReadPacket(rw)
	if err != nil {
		var de *DecodeError
		if errors.As(err, &de) {
			c.replyErr(0, false, "handshake: %v", err)
		}
		return
	}
	var hello Hello
	if first.Kind != KindHello || decode(first.Body, &hello) != nil {
		c.replyErr(first.ID, false, "handshake: first packet must be a hello, got %q", first.Kind)
		return
	}
	if hello.Version != ProtocolVersion {
		c.replyErr(first.ID, false, "protocol version mismatch: client %d, daemon %d", hello.Version, ProtocolVersion)
		return
	}
	c.reply(&Packet{ID: first.ID, Kind: KindHello, Body: body(Hello{Version: ProtocolVersion, Name: s.cfg.Name})})

	var jobs sync.WaitGroup
	defer jobs.Wait()
	for {
		p, err := ReadPacket(rw)
		if err != nil {
			var de *DecodeError
			if errors.As(err, &de) {
				// Sound frame, bad JSON: answer and keep serving.
				c.replyErr(0, false, "%v", err)
				continue
			}
			return // EOF or unrecoverable framing error
		}
		switch p.Kind {
		case KindStats:
			c.reply(&Packet{ID: p.ID, Kind: KindReply, Body: body(s.statsReply())})
		case KindVerify, KindCompile, KindDistExplore:
			jobs.Add(1)
			go func(p *Packet) {
				defer jobs.Done()
				s.runJob(c, p)
			}(p)
		default:
			c.replyErr(p.ID, false, "unknown request kind %q", p.Kind)
		}
	}
}

// runJob pushes one request through admission control and dispatches.
func (s *Server) runJob(c *conn, p *Packet) {
	if s.draining.Load() {
		s.rejected.Add(1)
		c.replyErr(p.ID, true, "daemon is draining")
		return
	}
	switch s.adm.acquire(c, s.cfg.queueWait, s.drainCh) {
	case timedOut:
		s.rejected.Add(1)
		c.replyErr(p.ID, true, "daemon overloaded: no job slot within %s (max %d jobs)", s.cfg.queueWait, s.cfg.MaxJobs)
		return
	case drained:
		s.rejected.Add(1)
		c.replyErr(p.ID, true, "daemon is draining")
		return
	}
	s.jobsWG.Add(1)
	s.active.Add(1)
	defer func() {
		s.adm.release()
		s.active.Add(-1)
		s.jobsWG.Done()
	}()
	if s.testJobGate != nil {
		s.testJobGate()
	}

	switch p.Kind {
	case KindVerify:
		serve(c, p, s.Verify)
	case KindCompile:
		serve(c, p, s.Compile)
	case KindDistExplore:
		serve(c, p, s.DistExplore)
	}
}

// serve decodes one job request, runs it and answers with its reply or
// its error; the error names the request kind ("verify: ...").
func serve[Req, Reply any](c *conn, p *Packet, run func(*Req) (*Reply, error)) {
	var req Req
	if err := decode(p.Body, &req); err != nil {
		c.replyErr(p.ID, false, "%s: bad request body: %v", p.Kind, err)
		return
	}
	reply, err := run(&req)
	if err != nil {
		c.replyErr(p.ID, false, "%s: %v", p.Kind, err)
		return
	}
	c.s.served.Add(1)
	c.reply(&Packet{ID: p.ID, Kind: KindReply, Body: body(reply)})
}

// compile compiles one resolved job's program, whose compile key is
// ck, or serves it from the module cache.
func (s *Server) compile(r *core.Resolved, ck string) (*core.Compiled, bool, error) {
	c, _ := s.compiles.touch(ck, "")
	return s.moduleOf(r, ck, c)
}

// moduleOf returns c, the module r's touched slot held, as a hit; when
// the slot held none it compiles, counts a miss and offers the module
// to the cache.
func (s *Server) moduleOf(r *core.Resolved, ck string, c *core.Compiled) (*core.Compiled, bool, error) {
	if c != nil {
		s.compiles.hits.Add(1)
		return c, true, nil
	}
	s.compiles.misses.Add(1)
	c, err := r.Compile()
	if err != nil {
		return nil, false, err
	}
	s.compiles.put(ck, c)
	return c, false, nil
}

// Verify executes one verify request against the warm state. It is
// exported (and used directly by in-process harnesses) but the normal
// entry is a KindVerify packet.
func (s *Server) Verify(req *VerifyRequest) (*VerifyReply, error) {
	r, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	opts := r.Verify
	tag := ""
	if !req.NoVerdicts && s.cfg.Verdicts != nil {
		opts.Verdicts = s.cfg.Verdicts
		tag = r.VerdictTag()
	}

	// A repeat, or an edit that leaves the token stream alone, is
	// answered from its slot: the verdict key its module led to last
	// time, while the store still holds the entry. A compile key always
	// yields the same module, so the key is the one compiling would
	// find.
	compileStart := time.Now()
	ck := r.CompileKey()
	c, known := s.compiles.touch(ck, tag)
	if known.key != "" {
		if e := s.slotEntry(ck, known); e != nil {
			s.compiles.hits.Add(1)
			rep := e.Report()
			rep.Stats.VerdictCacheHits = 1
			return verifyReply(r, rep, true, s.currentGen().id, 0, sinceMS(compileStart)), nil
		}
	}
	key := known.key
	c, compileHit, err := s.moduleOf(r, ck, c)
	if err != nil {
		return nil, err
	}
	if tag != "" && key == "" {
		if key, _ = c.VerdictKey(r.Entry, opts); key != "" {
			s.compiles.record(ck, slotKey{tag: tag, key: key})
		}
	}
	compileMS := sinceMS(compileStart)

	gen := s.currentGen()
	opts.Engine.Warm = gen.Warm

	verifyStart := time.Now()
	rep, err := c.VerifyKeyed(r.Entry, opts, key)
	if err != nil {
		return nil, err
	}
	verifyMS := sinceMS(verifyStart)
	return verifyReply(r, rep, compileHit, gen.id, compileMS, verifyMS), nil
}

// slotEntry returns the entry a slot's verdict key names, or nil when
// the store no longer has it. The slot's own decoded copy answers while
// the store's index still holds the key, with no file read; otherwise
// the store's file does, and the slot keeps what it decoded.
func (s *Server) slotEntry(ck string, k slotKey) *verdicts.Entry {
	if k.entry != nil && s.cfg.Verdicts.Recall(k.key) {
		return k.entry
	}
	e, ok := s.cfg.Verdicts.Get(k.key)
	if !ok {
		return nil
	}
	k.entry = e
	s.compiles.record(ck, k)
	return e
}

// verifyReply builds the reply to a verify, whether its slot answered
// it or it compiled: the two differ only in CompileMS and VerifyMS.
func verifyReply(r *core.Resolved, rep *symex.Report, compileHit bool, gen int64, compileMS, verifyMS float64) *VerifyReply {
	verdict, why := rep.Verdict()
	reply := &VerifyReply{
		Render:          verdicts.Render(rep),
		Verdict:         verdict.String(),
		Why:             why,
		Name:            r.Name,
		Level:           r.Config.Level.String(),
		Entry:           r.Entry,
		Paths:           rep.Stats.Paths,
		Instrs:          rep.Stats.Instrs,
		TimedOut:        rep.Stats.TimedOut,
		VerdictCacheHit: rep.Stats.VerdictCacheHits > 0,
		CompileCacheHit: compileHit,
		SolverQueries:   rep.Stats.SolverStats.Queries,
		SolverWarmHits: rep.Stats.SolverStats.CacheHits +
			rep.Stats.SolverStats.ModelReuseHits,
		SolverSearches: rep.Stats.SolverStats.TapeCompiles,
		Assignments:    rep.Stats.SolverStats.Assignments,
		Generation:     gen,
		CompileMS:      compileMS,
		VerifyMS:       verifyMS,
	}
	for _, b := range rep.Bugs {
		reply.Bugs = append(reply.Bugs, BugReport{
			Kind: b.Kind.String(), Msg: b.Msg, Where: b.Where,
			Input: append([]byte(nil), b.Input...),
		})
	}
	return reply
}

func sinceMS(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// DistExplore drains one encoded frontier shard: compile (or cache-hit)
// the coordinator's exact module, refuse the shard if its module key
// names another, decode the states against this generation's builder,
// run them to exhaustion, and report the schedule-invariant outcome. Exported for the in-process harnesses;
// the normal entry is a KindDistExplore packet.
func (s *Server) DistExplore(req *DistExploreRequest) (*DistExploreReply, error) {
	r, err := req.Job().Resolve()
	if err != nil {
		return nil, err
	}
	c, compileHit, err := s.compile(r, r.CompileKey())
	if err != nil {
		return nil, err
	}
	if key := c.ModuleKey(r.Entry); req.Module != key {
		return nil, fmt.Errorf("shard names module %q, this worker compiled %q", req.Module, key)
	}

	gen := s.currentGen()
	r.Verify.Engine.Warm = gen.Warm
	eng := symex.NewEngine(c.Mod, r.Verify.Engine)
	states, err := eng.DecodeStates(req.States)
	if err != nil {
		return nil, fmt.Errorf("decode shard: %w", err)
	}
	start := time.Now()
	rep := eng.RunStates(states)
	return &DistExploreReply{
		Stats:           rep.Stats,
		Bugs:            rep.Bugs,
		Covered:         eng.CoveredBlockNames(),
		NStates:         len(states),
		Generation:      gen.id,
		CompileCacheHit: compileHit,
		ExploreMS:       float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// Compile executes one compile-only request.
func (s *Server) Compile(req *CompileRequest) (*CompileReply, error) {
	r, err := req.Job().Resolve()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	c, hit, err := s.compile(r, r.CompileKey())
	if err != nil {
		return nil, err
	}
	reply := &CompileReply{
		Name:            r.Name,
		Level:           c.Level.String(),
		CompileMS:       float64(time.Since(start)) / float64(time.Millisecond),
		PassInvocations: int64(c.Result.PassInvocations),
		SkippedRuns:     int64(c.Result.SkippedFuncRuns),
		AnalysisHitRate: c.Result.Analysis.HitRate(),
		CompileCacheHit: hit,
	}
	if req.IR {
		reply.IR = c.Mod.String()
	}
	return reply, nil
}

// Preload compiles every source file matching glob into the module
// cache and probes the verdict store for each, so a daemon's first
// client request on those programs hits warm caches instead of paying
// the cold compile. Run it before accepting connections. Returns how
// many files were loaded; a file that fails to compile aborts the
// preload with its error (a preload list is configuration — a broken
// entry should be loud, not skipped).
func (s *Server) Preload(glob string) (int, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return 0, fmt.Errorf("preload: bad glob %q: %w", glob, err)
	}
	sort.Strings(paths)
	n := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return n, fmt.Errorf("preload %s: %w", path, err)
		}
		r, err := core.Job{Name: path, Source: string(data)}.Resolve()
		if err != nil {
			return n, fmt.Errorf("preload %s: %w", path, err)
		}
		ck := r.CompileKey()
		c, _, err := s.compile(r, ck)
		if err != nil {
			return n, fmt.Errorf("preload %s: %w", path, err)
		}
		if s.cfg.Verdicts != nil {
			// Probing with the job's defaults mirrors what a plain
			// verify request would ask; a stored outcome is now a warm
			// in-memory hit for the first client, answered from the
			// slot without compiling or reading the file.
			if key, ok := c.VerdictKey(r.Entry, r.Verify); ok {
				e, _ := s.cfg.Verdicts.Get(key)
				s.compiles.record(ck, slotKey{tag: r.VerdictTag(), key: key, entry: e})
			}
		}
		n++
	}
	return n, nil
}

// statsReply snapshots the daemon counters.
func (s *Server) statsReply() *StatsReply {
	r := &StatsReply{Name: s.cfg.Name}
	s.genMu.Lock()
	gen := s.gen
	s.genMu.Unlock()
	r.Generation = gen.id

	r.Jobs.Active = s.active.Load()
	r.Jobs.Served = s.served.Load()
	r.Jobs.Rejected = s.rejected.Load()
	r.Jobs.MaxJobs = s.cfg.MaxJobs

	r.Builder.Nodes = gen.Builder.NodesBuilt()
	r.Builder.Hits = gen.Builder.CacheHits()
	r.Builder.Cap = s.cfg.maxNodes
	r.Builder.Rotation = s.rotations.Load()

	r.SolverCache = gen.Cache.Snapshot()
	if v := s.cfg.Verdicts; v != nil {
		r.Verdicts.Dir = v.Dir()
		r.Verdicts.Stats = v.Stats()
	}
	r.Compiles.Stats = s.compiles.stats()
	r.Compiles.Capacity = s.compiles.cap
	return r
}

func decode(raw []byte, v any) error {
	if len(raw) == 0 {
		return fmt.Errorf("empty body")
	}
	return json.Unmarshal(raw, v)
}

// compileCache is a mutex-guarded LRU table of slots, one per compile
// key. A slot outlives its module: it keeps how often requests touched
// it and the verdict keys its module led to, each with its decoded
// entry once the store has been read for it, so a repeat finds its
// verdict without compiling or reading a file. At most cap slots hold
// a module (values shared by concurrent verifies — a compiled module is
// read-only after optimization, which the pipeline-equivalence suite
// relies on too), and the table holds at most slotsPerModule times as
// many slots, of at most maxSlotKeys entries each.
type compileCache struct {
	mu    sync.Mutex
	cap   int                              // modules; 0 = unbounded
	slots *lru.Cache[string, *compileSlot] // every slot, at most slotsPerModule·cap
	mods  *lru.Cache[string, *compileSlot] // the slots holding a module, at most cap

	hits, misses, evictions atomic.Int64
}

// slotsPerModule bounds the slot table at this multiple of the module
// cap.
const slotsPerModule = 16

// maxSlotKeys bounds the verdict keys one slot remembers; a module
// usually leads to one.
const maxSlotKeys = 4

type compileSlot struct {
	c       *core.Compiled // nil once evicted
	touches int64
	keys    []slotKey
}

// slotKey is the verdict key a slot's module led to under one
// core.Resolved.VerdictTag, and the entry the store held for it (nil
// until the store has been read for the key). An entry is answered from
// only while the store's index holds its key (Store.Recall), so one the
// store's cap evicted is not; one another process deleted still is,
// since eviction costs warmth, never correctness.
type slotKey struct {
	tag   string
	key   verdicts.Key
	entry *verdicts.Entry
}

func newCompileCache(cap int) *compileCache {
	return &compileCache{
		cap:   cap,
		slots: lru.New[string, *compileSlot](slotsPerModule * cap),
		mods:  lru.New[string, *compileSlot](cap),
	}
}

// touch counts one request on ck's slot, creating it if needed, and
// returns its module (nil when not resident) and what it recorded under
// tag (a zero key when nothing).
func (cc *compileCache) touch(ck, tag string) (*core.Compiled, slotKey) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	sl, ok := cc.slots.Get(ck)
	switch {
	case !ok:
		sl = &compileSlot{}
		if oldCK, old, evicted := cc.slots.Add(ck, sl); evicted && old.c != nil {
			cc.mods.Remove(oldCK)
			cc.evictions.Add(1)
		}
	case sl.c != nil:
		cc.mods.Get(ck)
	}
	sl.touches++
	for _, k := range sl.keys {
		if k.tag == tag {
			return sl.c, k
		}
	}
	return sl.c, slotKey{}
}

// put offers a freshly compiled module to ck's slot. When the module
// tier is full it replaces the least recently touched resident module
// only if its slot has been touched at least as often, so a source
// seen once does not evict a module in use.
func (cc *compileCache) put(ck string, c *core.Compiled) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	sl, ok := cc.slots.Get(ck)
	if !ok || sl.c != nil { // slot gone, or a concurrent compile won
		return
	}
	if cc.cap > 0 && cc.mods.Len() >= cc.cap {
		if _, v, _ := cc.mods.Oldest(); v.touches > sl.touches {
			return
		}
	}
	sl.c = c
	if _, v, evicted := cc.mods.Add(ck, sl); evicted {
		v.c = nil
		cc.evictions.Add(1)
	}
}

// record remembers that ck's module led to k.key under k.tag, and
// k.entry when it is set.
func (cc *compileCache) record(ck string, k slotKey) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	sl, ok := cc.slots.Get(ck)
	if !ok {
		return
	}
	for i := range sl.keys {
		if old := &sl.keys[i]; old.tag == k.tag {
			if old.key == k.key && k.entry != nil {
				old.entry = k.entry
			}
			return
		}
	}
	if len(sl.keys) == maxSlotKeys {
		sl.keys = append(sl.keys[:0], sl.keys[1:]...)
	}
	sl.keys = append(sl.keys, k)
}

// stats returns the cache's counters; Entries counts resident modules,
// and the cache charges no bytes.
func (cc *compileCache) stats() lru.Stats {
	cc.mu.Lock()
	n := cc.mods.Len()
	cc.mu.Unlock()
	return lru.Stats{
		Hits:      cc.hits.Load(),
		Misses:    cc.misses.Load(),
		Entries:   int64(n),
		Evictions: cc.evictions.Load(),
	}
}
