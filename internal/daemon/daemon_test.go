package daemon

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/verdicts"
)

// pipeServer starts a server over an in-memory connection and returns
// a handshaken client. Cleanup tears both ends down.
func pipeServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := NewServer(cfg)
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(serverEnd)
	}()
	c, err := NewClient(clientEnd, clientEnd)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return s, c
}

// cliRender reproduces what a cold `symbex` CLI run would print for a
// corpus program: fresh compile, fresh engine, canonical rendering.
func cliRender(t *testing.T, prog string, inputBytes int) string {
	t.Helper()
	p, ok := coreutils.Get(prog)
	if !ok {
		t.Fatalf("unknown corpus program %q", prog)
	}
	c, err := core.CompileProgram(p, pipeline.OVerify)
	if err != nil {
		t.Fatalf("compile %s: %v", prog, err)
	}
	rep, err := c.Verify("umain", core.VerifyOptions{InputBytes: inputBytes})
	if err != nil {
		t.Fatalf("verify %s: %v", prog, err)
	}
	return verdicts.Render(rep)
}

func TestProtocolRoundTrip(t *testing.T) {
	_, c := pipeServer(t, Config{Name: "test-daemon"})
	if c.ServerName != "test-daemon" {
		t.Errorf("handshake name = %q, want test-daemon", c.ServerName)
	}

	reply, err := c.Verify(&VerifyRequest{Prog: "basename", InputBytes: 2})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if reply.Render == "" || reply.Render != cliRender(t, "basename", 2) {
		t.Errorf("daemon render differs from CLI render:\n%s", reply.Render)
	}
	if reply.Generation != 1 {
		t.Errorf("generation = %d, want 1", reply.Generation)
	}

	comp, err := c.Compile(&CompileRequest{Prog: "basename", IR: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if comp.IR == "" || comp.PassInvocations == 0 {
		t.Errorf("compile reply missing IR or pass stats: %+v", comp)
	}
	if !comp.CompileCacheHit {
		t.Error("compile after verify of the same program missed the module cache")
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Jobs.Served != 2 || stats.Compiles.Entries != 1 {
		t.Errorf("stats: served=%d compiles=%d, want 2 and 1", stats.Jobs.Served, stats.Compiles.Entries)
	}

	// Unknown corpus program: an error reply, and the connection keeps
	// serving afterwards.
	if _, err := c.Verify(&VerifyRequest{Prog: "no-such-program"}); err == nil {
		t.Error("verify of an unknown program succeeded")
	}
	if _, err := c.Stats(); err != nil {
		t.Errorf("connection dead after an error reply: %v", err)
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	s := NewServer(Config{})
	clientEnd, serverEnd := net.Pipe()
	go s.ServeConn(serverEnd)
	defer clientEnd.Close()

	if err := WritePacket(clientEnd, &Packet{ID: 1, Kind: KindHello, Body: body(Hello{Version: ProtocolVersion + 1})}); err != nil {
		t.Fatal(err)
	}
	p, err := ReadPacket(clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindError {
		t.Fatalf("got %q reply to a mismatched hello, want error", p.Kind)
	}
	// The server closes the connection after a failed handshake.
	if _, err := ReadPacket(clientEnd); err == nil {
		t.Error("connection still alive after version mismatch")
	}
}

func TestHandshakeRequired(t *testing.T) {
	s := NewServer(Config{})
	clientEnd, serverEnd := net.Pipe()
	go s.ServeConn(serverEnd)
	defer clientEnd.Close()

	// A verify before any hello is a handshake violation.
	if err := WritePacket(clientEnd, &Packet{ID: 7, Kind: KindVerify, Body: body(VerifyRequest{Prog: "basename"})}); err != nil {
		t.Fatal(err)
	}
	p, err := ReadPacket(clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindError {
		t.Fatalf("got %q reply to a hello-less request, want error", p.Kind)
	}
}

// TestMalformedPacket: a sound frame with undecodable JSON gets an
// error reply — not a crash, not a dropped connection.
func TestMalformedPacket(t *testing.T) {
	s := NewServer(Config{})
	clientEnd, serverEnd := net.Pipe()
	go s.ServeConn(serverEnd)
	defer clientEnd.Close()

	if err := WritePacket(clientEnd, &Packet{ID: 1, Kind: KindHello, Body: body(Hello{Version: ProtocolVersion})}); err != nil {
		t.Fatal(err)
	}
	if p, err := ReadPacket(clientEnd); err != nil || p.Kind != KindHello {
		t.Fatalf("handshake failed: %v %+v", err, p)
	}

	// Frame a payload that is not JSON at all.
	garbage := []byte("this is not json {{{")
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(garbage)))
	if _, err := clientEnd.Write(append(hdr[:], garbage...)); err != nil {
		t.Fatal(err)
	}
	p, err := ReadPacket(clientEnd)
	if err != nil {
		t.Fatalf("no reply to a malformed packet: %v", err)
	}
	if p.Kind != KindError || p.ID != 0 {
		t.Errorf("malformed packet answered with kind=%q id=%d, want error id=0", p.Kind, p.ID)
	}

	// The connection must still serve well-formed requests.
	if err := WritePacket(clientEnd, &Packet{ID: 2, Kind: KindStats}); err != nil {
		t.Fatal(err)
	}
	if p, err := ReadPacket(clientEnd); err != nil || p.Kind != KindReply {
		t.Errorf("connection dead after malformed packet: %v %+v", err, p)
	}
}

// TestVerdictServiceFramesGone: the verdict cache service's frames are
// no longer part of the protocol. A verdictGet (a v6 client's probe,
// even one sent to a store-backed daemon) is an unknown kind, answered
// with an error, and the same connection then serves a verify.
func TestVerdictServiceFramesGone(t *testing.T) {
	store, err := verdicts.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Verdicts: store})
	clientEnd, serverEnd := net.Pipe()
	go s.ServeConn(serverEnd)
	defer clientEnd.Close()

	if err := WritePacket(clientEnd, &Packet{ID: 1, Kind: KindHello, Body: body(Hello{Version: ProtocolVersion})}); err != nil {
		t.Fatal(err)
	}
	if p, err := ReadPacket(clientEnd); err != nil || p.Kind != KindHello {
		t.Fatalf("handshake failed: %v %+v", err, p)
	}
	if err := WritePacket(clientEnd, &Packet{ID: 2, Kind: "verdictGet", Body: json.RawMessage(`{"key":"00"}`)}); err != nil {
		t.Fatal(err)
	}
	p, err := ReadPacket(clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	var eb ErrorBody
	if p.Kind != KindError || p.ID != 2 || decode(p.Body, &eb) != nil || !strings.Contains(eb.Message, "unknown request kind") {
		t.Fatalf("verdictGet answered with kind=%q id=%d body %s, want an unknown-kind error", p.Kind, p.ID, p.Body)
	}
	if err := WritePacket(clientEnd, &Packet{ID: 3, Kind: KindVerify, Body: body(VerifyRequest{Prog: "basename", InputBytes: 2})}); err != nil {
		t.Fatal(err)
	}
	var reply VerifyReply
	if p, err := ReadPacket(clientEnd); err != nil || p.Kind != KindReply || p.ID != 3 || decode(p.Body, &reply) != nil || reply.Render == "" {
		t.Errorf("connection did not serve a verify after the verdictGet: %v %+v", err, p)
	}
}

func TestOversizedFrameClosesConnection(t *testing.T) {
	s := NewServer(Config{})
	clientEnd, serverEnd := net.Pipe()
	go s.ServeConn(serverEnd)
	defer clientEnd.Close()

	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxPacket+1)
	if _, err := clientEnd.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if p, err := ReadPacket(clientEnd); err == nil {
		t.Errorf("connection survived an oversized frame, got %+v", p)
	}
}

// TestDaemonWarmByteIdentical is the tentpole acceptance criterion: a
// repeat verify against a warm daemon returns a byte-identical report
// to a cold CLI run, while skipping (almost) all solver work.
func TestDaemonWarmByteIdentical(t *testing.T) {
	store, err := verdicts.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, c := pipeServer(t, Config{Verdicts: store})

	want := cliRender(t, "basename", 2)

	cold, err := c.Verify(&VerifyRequest{Prog: "basename", InputBytes: 2})
	if err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	if cold.Render != want {
		t.Fatalf("cold daemon render differs from CLI:\ndaemon:\n%s\ncli:\n%s", cold.Render, want)
	}
	if cold.VerdictCacheHit {
		t.Error("cold run claims a verdict cache hit")
	}

	// Warm repeat through the verdict store: no exploration at all.
	warm, err := c.Verify(&VerifyRequest{Prog: "basename", InputBytes: 2})
	if err != nil {
		t.Fatalf("warm verify: %v", err)
	}
	if warm.Render != want {
		t.Errorf("warm render differs from cold:\nwarm:\n%s\ncold:\n%s", warm.Render, want)
	}
	if !warm.VerdictCacheHit || !warm.CompileCacheHit {
		t.Errorf("warm run provenance: verdictHit=%v compileHit=%v, want both", warm.VerdictCacheHit, warm.CompileCacheHit)
	}

	// Warm repeat below the verdict store: the engine runs, but the
	// shared builder + solver cache answer >= 90% of its queries.
	engineWarm, err := c.Verify(&VerifyRequest{Prog: "basename", InputBytes: 2, NoVerdicts: true})
	if err != nil {
		t.Fatalf("engine-warm verify: %v", err)
	}
	if engineWarm.Render != want {
		t.Errorf("engine-warm render differs:\n%s", engineWarm.Render)
	}
	if engineWarm.VerdictCacheHit {
		t.Error("NoVerdicts run claims a verdict hit")
	}
	if engineWarm.SolverQueries == 0 {
		t.Fatal("engine-warm run issued no solver queries; test is vacuous")
	}
	skipped := 1 - float64(engineWarm.SolverSearches)/float64(engineWarm.SolverQueries)
	if skipped < 0.9 {
		t.Errorf("engine-warm run skipped only %.0f%% of %d queries (%d fresh searches), want >= 90%%",
			100*skipped, engineWarm.SolverQueries, engineWarm.SolverSearches)
	}
	if engineWarm.SolverWarmHits == 0 {
		t.Error("engine-warm run reports no warm hits at all")
	}
}

// TestDaemonConcurrentClients: many clients verifying the same corpus
// concurrently all get byte-identical reports, and the shared caches
// actually serve them. Run under -race this is also the data-race pin
// for the whole warm path.
func TestDaemonConcurrentClients(t *testing.T) {
	store, err := verdicts.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, c0 := pipeServer(t, Config{Verdicts: store})

	progs := []string{"basename", "true", "echo"}
	want := map[string]string{}
	for _, p := range progs {
		// Warm through the daemon first so concurrent runs hit warm
		// state; pin against the CLI render.
		reply, err := c0.Verify(&VerifyRequest{Prog: p, InputBytes: 2})
		if err != nil {
			t.Fatalf("warmup %s: %v", p, err)
		}
		if cli := cliRender(t, p, 2); reply.Render != cli {
			t.Fatalf("%s: daemon render differs from CLI", p)
		}
		want[p] = reply.Render
	}

	const clients = 4
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*len(progs))
	for i := 0; i < clients; i++ {
		clientEnd, serverEnd := net.Pipe()
		s.connsWG.Add(1)
		go func() {
			defer s.connsWG.Done()
			s.ServeConn(serverEnd)
		}()
		c, err := NewClient(clientEnd, clientEnd)
		if err != nil {
			t.Fatalf("client %d handshake: %v", i, err)
		}
		defer c.Close()
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, p := range progs {
					reply, err := c.Verify(&VerifyRequest{Prog: p, InputBytes: 2})
					if err != nil {
						errs <- fmt.Errorf("%s: %w", p, err)
						continue
					}
					if reply.Render != want[p] {
						errs <- fmt.Errorf("%s: divergent render", p)
					}
					if !reply.VerdictCacheHit {
						errs <- fmt.Errorf("%s: warm daemon missed the verdict store", p)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := store.Stats().Hits; got < int64(clients*rounds*len(progs)) {
		t.Errorf("verdict store hits = %d, want >= %d", got, clients*rounds*len(progs))
	}
}

// TestDaemonEvictionChurnIdentical: with caches capped far below the
// working set, every layer churns — and verdicts stay byte-identical.
// Eviction may cost time, never correctness. The warm state rotates on
// either of its two limits, so the churn runs once with each set to 1:
// builder nodes, then solver-cache bytes.
func TestDaemonEvictionChurnIdentical(t *testing.T) {
	progs := []string{"basename", "true", "echo"}
	want := map[string]string{}
	for _, p := range progs {
		want[p] = cliRender(t, p, 2)
	}
	for _, tc := range []struct {
		name                    string
		maxNodes, maxCacheBytes int64 // 0 keeps the daemon's limit
	}{
		{"nodes", 1, 0},
		{"bytes", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := verdicts.OpenLimited(t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			_, c := pipeServer(t, Config{
				Verdicts:        store,
				CompileCacheCap: 1,
				maxNodes:        tc.maxNodes,
				maxCacheBytes:   tc.maxCacheBytes,
			})
			var lastGen int64
			for round := 0; round < 2; round++ {
				for _, p := range progs {
					reply, err := c.Verify(&VerifyRequest{Prog: p, InputBytes: 2})
					if err != nil {
						t.Fatalf("round %d %s: %v", round, p, err)
					}
					if reply.Render != want[p] {
						t.Errorf("round %d %s: render diverged under eviction churn", round, p)
					}
					lastGen = reply.Generation
				}
			}
			if lastGen < 2 {
				t.Errorf("warm state never rotated with its %s limit at 1 (generation %d)", tc.name, lastGen)
			}
			stats, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Compiles.Evictions == 0 {
				t.Error("compile cache never evicted despite cap 1 over 3 programs")
			}
			if store.Stats().Evictions == 0 {
				t.Error("verdict store never evicted despite cap 1 over 3 programs")
			}
		})
	}
}

// TestSolverCacheByteBudget: with a solver-cache budget of a few KB,
// solver-heavy programs rotate the warm state on bytes. A run pins the
// generation it starts in, so a generation can end past the budget by
// what its last run charged; the rule the stats frames pin is that a
// request starts a new generation exactly when the frame before it
// shows the cache past its budget. Every render equals the CLI's.
func TestSolverCacheByteBudget(t *testing.T) {
	const budget = 8 << 10
	type job struct {
		prog string
		n    int
	}
	jobs := []job{{"basename", 2}, {"sort", 2}, {"basename", 3}, {"sort", 3}}
	want := map[job]string{}
	for _, j := range jobs {
		want[j] = cliRender(t, j.prog, j.n)
	}
	_, c := pipeServer(t, Config{maxCacheBytes: budget})
	prev, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rotations := 0
	for round := 0; round < 3; round++ {
		for _, j := range jobs {
			reply, err := c.Verify(&VerifyRequest{Prog: j.prog, InputBytes: j.n})
			if err != nil {
				t.Fatalf("round %d %s n=%d: %v", round, j.prog, j.n, err)
			}
			if reply.Render != want[j] {
				t.Errorf("round %d %s n=%d: render differs from the CLI's", round, j.prog, j.n)
			}
			over := prev.SolverCache.Bytes > budget
			if rotated := reply.Generation != prev.Generation; rotated != over || reply.Generation > prev.Generation+1 {
				t.Errorf("round %d %s n=%d: generation %d → %d with %d bytes charged of %d",
					round, j.prog, j.n, prev.Generation, reply.Generation, prev.SolverCache.Bytes, budget)
			}
			if over {
				rotations++
			}
			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Generation != reply.Generation {
				t.Fatalf("stats frame reads generation %d after a run in %d", st.Generation, reply.Generation)
			}
			prev = st
		}
	}
	if rotations == 0 {
		t.Errorf("warm state never rotated under a %d-byte budget (generation %d)", budget, prev.Generation)
	}
}

// TestAdmissionControl: with one job slot held, a second request is
// rejected as overloaded once the queue deadline passes, and served
// again after the slot frees.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	s := NewServer(Config{MaxJobs: 1, queueWait: 50 * time.Millisecond})
	s.testJobGate = func() { <-release }

	clientEnd, serverEnd := net.Pipe()
	go s.ServeConn(serverEnd)
	c, err := NewClient(clientEnd, clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first := make(chan error, 1)
	go func() {
		_, err := c.Verify(&VerifyRequest{Prog: "true", InputBytes: 2})
		first <- err
	}()

	// Wait until the first job actually holds the slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}

	_, err = c.Verify(&VerifyRequest{Prog: "true", InputBytes: 2})
	var overloaded *OverloadedError
	if !errors.As(err, &overloaded) {
		t.Fatalf("second request got %v, want an overloaded rejection", err)
	}

	close(release)
	if err := <-first; err != nil {
		t.Errorf("first request failed: %v", err)
	}
	// With the slot free (and the gate open), requests are served again.
	if _, err := c.Verify(&VerifyRequest{Prog: "true", InputBytes: 2}); err != nil {
		t.Errorf("request after slot freed failed: %v", err)
	}
	if s.rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", s.rejected.Load())
	}
}

// TestShutdownDrains: Shutdown waits for the in-flight job, then
// rejects new work and closes connections.
func TestShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := NewServer(Config{MaxJobs: 2})
	var once sync.Once
	s.testJobGate = func() {
		once.Do(func() { close(started) })
		<-release
	}

	clientEnd, serverEnd := net.Pipe()
	go s.ServeConn(serverEnd)
	c, err := NewClient(clientEnd, clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first := make(chan error, 1)
	go func() {
		_, err := c.Verify(&VerifyRequest{Prog: "true", InputBytes: 2})
		first <- err
	}()
	<-started

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		s.Shutdown()
	}()

	// Shutdown must not complete while the job is still running.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with a job in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never completed after the job finished")
	}
	if err := <-first; err != nil {
		t.Errorf("in-flight request failed during drain: %v", err)
	}
}

// TestServeUnixSocket exercises the real listener path end to end.
func TestServeUnixSocket(t *testing.T) {
	sock := shortSocketPath(t)
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	c, err := Dial(sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	reply, err := c.Verify(&VerifyRequest{Prog: "true", InputBytes: 2})
	if err != nil {
		t.Fatalf("verify over socket: %v", err)
	}
	if reply.Render == "" {
		t.Error("empty render over socket")
	}
	c.Close()

	s.Shutdown()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v after Shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// shortSocketPath returns a socket path short enough for sun_path
// (t.TempDir can exceed the ~104-byte limit on some systems).
func shortSocketPath(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "ovd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir + "/d.sock"
}

// TestPreloadWarmsModuleCache: a preloaded source's first client
// request must hit the module cache — the compile happened before the
// daemon accepted the connection.
func TestPreloadWarmsModuleCache(t *testing.T) {
	dir := t.TempDir()
	src := "int umain(unsigned char *input, int len) { return (int)input[0]; }\n"
	path := dir + "/warm.c"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	s, c := pipeServer(t, Config{})
	n, err := s.Preload(dir + "/*.c")
	if err != nil {
		t.Fatalf("preload: %v", err)
	}
	if n != 1 {
		t.Fatalf("preloaded %d files, want 1", n)
	}
	reply, err := c.Verify(&VerifyRequest{Name: path, Source: src, InputBytes: 2})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !reply.CompileCacheHit {
		t.Error("first request on a preloaded module missed the module cache")
	}

	// A broken entry must abort loudly, not be skipped.
	if err := os.WriteFile(dir+"/broken.c", []byte("int umain("), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Preload(dir + "/*.c"); err == nil {
		t.Error("preload of a non-compiling file reported success")
	}
}
