package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"overify/internal/core"
	"overify/internal/daemon"
	"overify/internal/pipeline"
	"overify/internal/verdicts"
)

// served_mix: what a watch-mode or CI client of overifyd sees. One
// daemon (default configuration, verdict store in the work dir) on a
// unix socket, two closed-loop clients — each sends its next request
// when the previous reply has arrived — and a fixed set of requests
// per pass whose order, edit text and edit constants come from the
// seed. The server is sent source text only, never a corpus name.

const (
	servedBytes     = 4
	servedMaxInstrs = 5_000_000
	servedClients   = 2
)

// Request classes and their share of a pass: 40% repeat, 30%
// engine_warm, 20% edit, 10% compile.
const (
	classRepeat     = "repeat"      // seen before: verdict-store and compile-cache hit
	classEngineWarm = "engine_warm" // NoVerdicts: explores again on the shared builder, solver cache and tape cache
	classEdit       = "edit"        // generated source edit: a compile miss, then a verdict hit (comment) or a fresh exploration (constant)
	classCompile    = "compile"     // compile frame only
)

// servedPrograms: thirty corpus programs that verify conclusively at 4
// bytes in 1-30 ms cold. Times three levels that is 90 compile keys
// against the daemon's 64-entry compile cache, so eviction runs.
var servedPrograms = []string{
	"expr", "join", "wc-l", "seq", "grep-v", "pr", "nl", "expand", "tolower", "fold-s",
	"cat-n", "printf", "tr-u", "wc-m", "unexpand", "toupper", "wc", "tr-d", "numfmt", "cut",
	"csplit", "checksum64", "tac", "uniq", "test", "od-x", "dirname", "uniq-c", "sort", "strings",
}

var servedLevels = []pipeline.Level{pipeline.O0, pipeline.O3, pipeline.OVerify}

type servedKey struct {
	prog  program
	level pipeline.Level
}

func (k servedKey) id() string { return k.prog.Name + " " + k.level.String() }

// servedSlot is one request of the per-pass set. Every pass sends the
// same slots; the seed only orders them and fills in the edits.
type servedSlot struct {
	class     string
	key       int  // index into the key list
	constEdit bool // edit class: change a constant (true) or only a comment
}

func servedKeys(smoke bool) []servedKey {
	progs := servedPrograms
	if smoke {
		progs = progs[:4]
	}
	var keys []servedKey
	for _, name := range progs {
		for _, l := range servedLevels {
			keys = append(keys, servedKey{corpusProgram(name), l})
		}
	}
	return keys
}

// servedSlots lays out one pass over nKeys keys in the 40/30/20/10
// mix: every key engine-warm once; repeats cycling through the keys;
// edits and compiles striding through them so all levels take part.
func servedSlots(nKeys int) []servedSlot {
	var slots []servedSlot
	for k := 0; k < nKeys; k++ {
		slots = append(slots, servedSlot{class: classEngineWarm, key: k})
	}
	for i := 0; i < nKeys*4/3; i++ {
		slots = append(slots, servedSlot{class: classRepeat, key: i % nKeys})
	}
	for i := 0; i < nKeys/3; i++ {
		slots = append(slots, servedSlot{class: classEdit, key: (7 * i) % nKeys})
		slots = append(slots, servedSlot{class: classEdit, key: (7*i + 3) % nKeys, constEdit: true})
	}
	for i := 0; i < nKeys/3; i++ {
		slots = append(slots, servedSlot{class: classCompile, key: (11*i + 5) % nKeys})
	}
	return slots
}

// servedRequest is one scheduled request: the slot it fills and the
// source text to send.
type servedRequest struct {
	slot   int
	source string
}

// wrapConst is the constant-changing edit: the original entry point is
// renamed and a new umain adds k to its result. The reachable IR
// changes, so the verdict store misses and the daemon explores and
// writes; the path structure does not, so every k >= 1 has the same
// known render.
func wrapConst(src string, k int) string {
	return strings.Replace(src, "int umain(", "int umain_base(", 1) +
		fmt.Sprintf("\nint umain(unsigned char *input, int len) {\n\treturn umain_base(input, len) + %d;\n}\n", k)
}

// servedSchedule is the pass's request list as a pure function of the
// seed and the pass number: slot order shuffled, edit text and
// constants drawn.
func servedSchedule(keys []servedKey, slots []servedSlot, seed int64, pass int) []servedRequest {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	out := make([]servedRequest, len(slots))
	for i, s := range slots {
		src := keys[s.key].prog.Src
		if s.class == classEdit {
			if s.constEdit {
				src = wrapConst(src, 1+rng.Intn(1<<20))
			} else {
				src += fmt.Sprintf("\n// edit %d/%d/%d %08x\n", seed, pass, i, rng.Uint32())
			}
		}
		out[i] = servedRequest{slot: i, source: src}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// servedReply is what came back for one request, kept from the traced
// passes for the frame probes.
type servedReply struct {
	kind  string
	req   any
	reply any
}

type servedWorkload struct {
	cfg   runConfig
	keys  []servedKey
	slots []servedSlot

	dir     string
	store   *verdicts.Store
	srv     *daemon.Server
	served  chan error // Serve's return
	clients []*daemon.Client

	warm []*daemon.VerifyReply // warm-up replies per key, for check

	// In-process reference answers, filled by check.
	refs      []coldResult   // per key: compiled module, report and render
	refEdit   map[int]string // per key used by a constant edit: its render
	refPasses []int64        // per key: pass invocations of its compile
	bad       []string       // per key: why it missed the known answer

	traced    []sample      // samples of the traced passes
	overhead  []float64     // per traced request: client wall minus the reply's own compile and verify time
	lastTrace []servedReply // one traced pass's frames
}

func newServedWorkload(cfg runConfig) *servedWorkload {
	keys := servedKeys(cfg.Smoke)
	return &servedWorkload{cfg: cfg, keys: keys, slots: servedSlots(len(keys))}
}

func (w *servedWorkload) jobs() int { return len(w.slots) }

// startDaemon serves one daemon on a unix socket in dir and returns
// the server, the channel Serve's result arrives on, and the address.
func startDaemon(dir, name string, cfg daemon.Config) (*daemon.Server, chan error, string, error) {
	addr := sockPath(dir, name)
	ln, err := net.Listen("unix", addr)
	if err != nil {
		return nil, nil, "", err
	}
	srv := daemon.NewServer(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, done, addr, nil
}

func (w *servedWorkload) setup() error {
	var err error
	if w.dir, err = scratchDir(w.cfg.WorkDir, "served-"); err != nil {
		return err
	}
	if w.store, err = verdicts.Open(filepath.Join(w.dir, "verdicts")); err != nil {
		return err
	}
	var addr string
	if w.srv, w.served, addr, err = startDaemon(w.dir, "d", daemon.Config{Verdicts: w.store}); err != nil {
		return err
	}
	for i := 0; i < servedClients; i++ {
		c, err := daemon.Dial(addr)
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
	}
	// Warm-up: every key once (fills the verdict store and the caches),
	// then one pass of the schedule.
	w.warm = make([]*daemon.VerifyReply, len(w.keys))
	for k := range w.keys {
		reply, err := w.clients[0].Verify(w.verifyRequest(w.keys[k], w.keys[k].prog.Src, false))
		if err != nil {
			return fmt.Errorf("%s: %w", w.keys[k].id(), err)
		}
		w.warm[k] = reply
	}
	w.bad = make([]string, len(w.keys))
	w.pass(-1, nil)
	return nil
}

func (w *servedWorkload) teardown() {
	for _, c := range w.clients {
		c.Close()
	}
	w.clients = nil
	if w.srv != nil {
		w.srv.Shutdown()
		<-w.served
		w.srv = nil
	}
	removeAll(w.dir)
	w.dir = ""
}

func (w *servedWorkload) verifyRequest(k servedKey, src string, noVerdicts bool) *daemon.VerifyRequest {
	return &daemon.VerifyRequest{
		Name: k.prog.Name, Source: src, Level: k.level.String(),
		InputBytes: servedBytes, MaxInstrs: servedMaxInstrs, NoVerdicts: noVerdicts,
	}
}

// reference answers one key in-process, serially, with no cache
// anywhere: the render every daemon reply for that content must equal.
func servedReference(k servedKey, src string) (coldResult, error) {
	p := k.prog
	p.Src = src
	return runCold(coldJob{Prog: p, Level: k.level, Bytes: servedBytes}, budgets{MaxInstrs: servedMaxInstrs})
}

// check computes the in-process references and holds the warm-up
// replies against them and against the known answer (corpus programs
// have no bugs).
func (w *servedWorkload) check() []string {
	var failures []string
	w.refs = make([]coldResult, len(w.keys))
	w.refPasses = make([]int64, len(w.keys))
	w.refEdit = map[int]string{}
	fail := func(k int, msg string) {
		if w.bad[k] == "" {
			w.bad[k] = msg
		}
		failures = append(failures, w.keys[k].id()+": "+msg)
	}
	for k, key := range w.keys {
		res, err := servedReference(key, key.prog.Src)
		if err != nil {
			fail(k, "reference: "+err.Error())
			continue
		}
		w.refs[k], w.refPasses[k] = res, int64(res.c.Result.PassInvocations)
		for _, m := range checkBugs(key.prog, res.rep.Bugs) {
			fail(k, m)
		}
		if w.warm[k].Render != res.render {
			fail(k, "daemon render differs from the in-process reference")
		}
	}
	for _, s := range w.slots {
		if s.constEdit {
			res, err := servedReference(w.keys[s.key], wrapConst(w.keys[s.key].prog.Src, 1))
			if err != nil {
				fail(s.key, "edit reference: "+err.Error())
				continue
			}
			w.refEdit[s.key] = res.render
			for _, m := range checkBugs(w.keys[s.key].prog, res.rep.Bugs) {
				fail(s.key, m)
			}
		}
	}
	return failures
}

var renderCounters = regexp.MustCompile(`truncated=(\d+) .* queries=(\d+) sat=(\d+) unsat=(\d+)`)

// renderDecided applies the decided rule to a reply: the render
// carries the truncated-path count and, as queries - sat - unsat, the
// solver's failure count.
func renderDecided(reply *daemon.VerifyReply) bool {
	m := renderCounters.FindStringSubmatch(reply.Render)
	if m == nil || reply.TimedOut {
		return false
	}
	n := func(s string) int64 { v, _ := strconv.ParseInt(s, 10, 64); return v }
	return n(m[1]) == 0 && n(m[2])-n(m[3])-n(m[4]) == 0
}

// do sends one request and judges the reply. The reference renders do
// not exist yet during the warm-up pass (p < 0), which judges nothing.
func (w *servedWorkload) do(c *daemon.Client, p int, r servedRequest, tr *tracer) (sample, servedReply, float64) {
	slot := w.slots[r.slot]
	key := w.keys[slot.key]
	s := sample{Job: slot.class + " " + key.id(), Class: slot.class}
	id := tr.begin("daemon."+slot.class, p, r.slot+1, 0)
	t0 := time.Now()
	if slot.class == classCompile {
		req := &daemon.CompileRequest{Name: key.prog.Name, Source: r.source, Level: key.level.String()}
		reply, err := c.Compile(req)
		s.MS = float64(time.Since(t0)) / 1e6
		if err != nil {
			tr.end(id)
			s.Failed = err.Error()
			return s, servedReply{}, 0
		}
		tr.end(id, kv{"compile_cache_hit", b2i(reply.CompileCacheHit)}, kv{"pass_invocations", reply.PassInvocations})
		s.Decided = true
		if p >= 0 && (reply.Level != key.level.String() || reply.PassInvocations != w.refPasses[slot.key]) {
			s.Failed = "compile reply differs from the in-process reference"
		}
		return s, servedReply{daemon.KindCompile, req, reply}, s.MS - reply.CompileMS
	}
	req := w.verifyRequest(key, r.source, slot.class == classEngineWarm)
	reply, err := c.Verify(req)
	s.MS = float64(time.Since(t0)) / 1e6
	if err != nil {
		tr.end(id)
		s.Failed = err.Error() // includes admission-control refusals
		return s, servedReply{}, 0
	}
	tr.end(id, kv{"compile_cache_hit", b2i(reply.CompileCacheHit)}, kv{"verdict_cache_hit", b2i(reply.VerdictCacheHit)},
		kv{"instrs", reply.Instrs}, kv{"solver_queries", reply.SolverQueries})
	s.Decided = renderDecided(reply)
	if !reply.VerdictCacheHit {
		// The reply carries the instructions it executed but not the
		// solver's assignments; a verdict-store hit did no work at all.
		s.Work = reply.Instrs
	}
	if p >= 0 {
		want := w.refs[slot.key].render
		if slot.constEdit {
			want = w.refEdit[slot.key]
		}
		switch {
		case reply.Render != want:
			s.Failed = "render differs from the in-process reference"
		default:
			s.Failed = w.bad[slot.key]
		}
	}
	return s, servedReply{daemon.KindVerify, req, reply}, s.MS - reply.CompileMS - reply.VerifyMS
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// pass splits the schedule between the clients: request i goes to
// client i mod 2, which sends it when its previous reply is in.
func (w *servedWorkload) pass(p int, tr *tracer) []sample {
	sched := servedSchedule(w.keys, w.slots, w.cfg.Seed, p)
	out := make([]sample, len(sched))
	replies := make([]servedReply, len(sched))
	overhead := make([]float64, len(sched))
	var wg sync.WaitGroup
	for g, c := range w.clients {
		wg.Add(1)
		go func(g int, c *daemon.Client) {
			defer wg.Done()
			for i := g; i < len(sched); i += len(w.clients) {
				out[i], replies[i], overhead[i] = w.do(c, p, sched[i], tr)
			}
		}(g, c)
	}
	wg.Wait()
	if tr != nil {
		w.traced = append(w.traced, out...)
		w.overhead = append(w.overhead, overhead...)
		w.lastTrace = replies
	}
	return out
}

// layers reads the daemon's own counters over the socket, times the
// frame codec on the last traced pass's packets, and probes the
// verdict store's three operations on the keys' compiled modules.
func (w *servedWorkload) layers(tr *tracer, tracedPasses int, out map[string]float64) {
	byClass := map[string][]float64{}
	for _, s := range w.traced {
		byClass[s.Class] = append(byClass[s.Class], s.MS)
	}
	for _, class := range []string{classRepeat, classEngineWarm, classEdit, classCompile} {
		out["daemon."+class+"_p50_ms"] = percentile(byClass[class], 50)
	}
	out["daemon.roundtrip_overhead_ms"] = ratio(sum(w.overhead), float64(len(w.overhead)))

	var enc, dec time.Duration
	var reqBytes, replyBytes int
	for i, f := range w.lastTrace {
		if f.req == nil {
			continue
		}
		for _, side := range []struct {
			kind string
			body any
			size *int
		}{{f.kind, f.req, &reqBytes}, {daemon.KindReply, f.reply, &replyBytes}} {
			payload, err := json.Marshal(side.body)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			pkt := &daemon.Packet{ID: uint32(i + 1), Kind: side.kind, Body: payload}
			t0 := time.Now()
			err = daemon.WritePacket(&buf, pkt)
			enc += time.Since(t0)
			*side.size += buf.Len()
			if err != nil {
				continue
			}
			t0 = time.Now()
			_, _ = daemon.ReadPacket(&buf) // a packet WritePacket just framed
			dec += time.Since(t0)
		}
	}
	out["daemon.frame_encode_ms"] = float64(enc) / 1e6
	out["daemon.frame_decode_ms"] = float64(dec) / 1e6
	out["daemon.request_bytes"] = float64(reqBytes)
	out["daemon.reply_bytes"] = float64(replyBytes)

	if st, err := w.clients[0].Stats(); err == nil {
		out["daemon.compile_cache_hit_ratio"] = ratio(float64(st.Compiles.Hits), float64(st.Compiles.Hits+st.Compiles.Misses))
		out["daemon.compile_cache_evictions"] = float64(st.Compiles.Evictions)
		out["daemon.verdict_hit_ratio"] = ratio(float64(st.Verdicts.Hits), float64(st.Verdicts.Hits+st.Verdicts.Misses))
		out["daemon.solver_cache_hit_ratio"] = ratio(float64(st.SolverCache.Hits), float64(st.SolverCache.Hits+st.SolverCache.Misses))
		out["daemon.builder_rotations"] = float64(st.Builder.Rotation)
		out["daemon.rejected"] = float64(st.Jobs.Rejected)
		out["verdicts.hit_ratio"] = out["daemon.verdict_hit_ratio"]
	}
	w.storeProbe(out)
}

// storeProbe times KeyFor, Put and Get on a store of its own, one
// entry per key, and sizes the entries on disk.
func (w *servedWorkload) storeProbe(out map[string]float64) {
	store, err := verdicts.Open(filepath.Join(w.dir, "probe"))
	if err != nil {
		return
	}
	vo := core.VerifyOptions{InputBytes: servedBytes}
	vo.Engine.MaxInstrs = servedMaxInstrs
	var keyT, putT, getT time.Duration
	var n int
	for k, ref := range w.refs {
		if ref.c == nil || !verdicts.Cacheable(ref.rep) {
			continue
		}
		t0 := time.Now()
		key, ok := ref.c.VerdictKey("umain", vo)
		keyT += time.Since(t0)
		if !ok {
			continue
		}
		entry := verdicts.FromReport(key, w.keys[k].prog.Name, "umain", ref.c.Level.String(), ref.rep)
		t0 = time.Now()
		err = store.Put(key, entry)
		putT += time.Since(t0)
		if err != nil {
			continue
		}
		t0 = time.Now()
		store.Get(key)
		getT += time.Since(t0)
		n++
	}
	out["verdicts.key_ms"] = float64(keyT) / 1e6
	out["verdicts.put_ms"] = float64(putT) / 1e6
	out["verdicts.get_ms"] = float64(getT) / 1e6
	var size int64
	files, _ := os.ReadDir(store.Dir())
	for _, f := range files {
		if info, err := f.Info(); err == nil {
			size += info.Size()
		}
	}
	out["verdicts.entry_bytes"] = ratio(float64(size), float64(n))
}
