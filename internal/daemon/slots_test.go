package daemon

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"overify/internal/coreutils"
	"overify/internal/verdicts"
)

// untimed is a reply with its two timings zeroed, the only fields a
// slot answer and the compile path may differ in.
func untimed(r *VerifyReply) VerifyReply {
	c := *r
	c.CompileMS, c.VerifyMS = 0, 0
	return c
}

func openStore(t *testing.T, cap int) *verdicts.Store {
	t.Helper()
	store, err := verdicts.OpenLimited(t.TempDir(), cap)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func mustVerify(t *testing.T, c *Client, req *VerifyRequest) *VerifyReply {
	t.Helper()
	reply, err := c.Verify(req)
	if err != nil {
		t.Fatalf("verify %s%s: %v", req.Prog, req.Name, err)
	}
	return reply
}

func compileStats(t *testing.T, c *Client) (hits, misses, evictions int64) {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.Compiles.Hits, st.Compiles.Misses, st.Compiles.Evictions
}

// TestSlotAnswersRepeatWithoutCompiling: a repeat of an identical
// request is answered from its slot, adds no compile-cache miss, and
// its reply equals the compile path's apart from the timings.
func TestSlotAnswersRepeatWithoutCompiling(t *testing.T) {
	s, c := pipeServer(t, Config{Verdicts: openStore(t, 0)})
	req := &VerifyRequest{Prog: "basename", InputBytes: 2}

	cold := mustVerify(t, c, req)
	if cold.VerdictCacheHit || cold.CompileCacheHit {
		t.Fatalf("first request claims a cache hit: %+v", cold)
	}
	slot := mustVerify(t, c, req)
	if hits, misses, _ := compileStats(t, c); misses != 1 || hits != 1 {
		t.Errorf("after a repeat: %d compile-cache hits and %d misses, want 1 and 1", hits, misses)
	}
	if !slot.VerdictCacheHit || !slot.CompileCacheHit || slot.Render != cold.Render {
		t.Errorf("slot answer: verdictHit=%v compileHit=%v, render equal=%v",
			slot.VerdictCacheHit, slot.CompileCacheHit, slot.Render == cold.Render)
	}

	// Forget the slot's verdict key: the same request now takes the
	// compile path (module hit, then the store) and must read the same.
	r, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	s.compiles.mu.Lock()
	sl, _ := s.compiles.slots.Get(r.CompileKey())
	sl.keys = nil
	s.compiles.mu.Unlock()
	compiled := mustVerify(t, c, req)
	if got, want := untimed(slot), untimed(compiled); !reflect.DeepEqual(got, want) {
		t.Errorf("slot answer and compile path differ beyond timings:\nslot:    %+v\ncompile: %+v", got, want)
	}
}

// TestCommentEditAnsweredFromSlot: an edit that changes only a comment
// keeps the source's tokens, so it shares the verified source's slot
// and is answered from it: no compile, the same render.
func TestCommentEditAnsweredFromSlot(t *testing.T) {
	_, c := pipeServer(t, Config{Verdicts: openStore(t, 0)})
	p, _ := coreutils.Get("basename")
	req := &VerifyRequest{Name: p.Name, Source: p.Src, InputBytes: 2}
	cold := mustVerify(t, c, req)

	edit := *req
	edit.Source += "\n// edit\n"
	reply := mustVerify(t, c, &edit)
	if !reply.CompileCacheHit || !reply.VerdictCacheHit || reply.Render != cold.Render {
		t.Errorf("comment edit: compileHit=%v verdictHit=%v, render equal=%v",
			reply.CompileCacheHit, reply.VerdictCacheHit, reply.Render == cold.Render)
	}
	if _, misses, _ := compileStats(t, c); misses != 1 {
		t.Errorf("comment edit compiled: %d compile-cache misses, want 1", misses)
	}
}

// TestRepeatAnsweredFromSlotMemory: once a slot has answered from the
// store, it holds the decoded entry and reads no file for a repeat: a
// repeat after the entry's file turned to garbage still hits, with the
// same render, and counts the store hit Get would have.
func TestRepeatAnsweredFromSlotMemory(t *testing.T) {
	store := openStore(t, 0)
	_, c := pipeServer(t, Config{Verdicts: store})
	req := &VerifyRequest{Prog: "basename", InputBytes: 2}
	cold := mustVerify(t, c, req)
	if first := mustVerify(t, c, req); !first.VerdictCacheHit {
		t.Fatal("the first repeat was not answered from the store")
	}
	files, err := filepath.Glob(filepath.Join(store.Dir(), "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store holds %d entries (%v), want 1", len(files), err)
	}
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	hits := store.Stats().Hits
	again := mustVerify(t, c, req)
	if !again.VerdictCacheHit || !again.CompileCacheHit || again.Render != cold.Render {
		t.Errorf("repeat over a garbage file: verdictHit=%v compileHit=%v, render equal=%v",
			again.VerdictCacheHit, again.CompileCacheHit, again.Render == cold.Render)
	}
	if store.Stats().Hits != hits+1 {
		t.Errorf("store hits %d → %d, want one more", hits, store.Stats().Hits)
	}
}

// TestSlotOutlivesItsModule: with one module resident, A, B, A answers
// A's second request from its slot although B evicted A's module.
func TestSlotOutlivesItsModule(t *testing.T) {
	_, c := pipeServer(t, Config{Verdicts: openStore(t, 0), CompileCacheCap: 1})
	a := &VerifyRequest{Prog: "true", InputBytes: 2}
	first := mustVerify(t, c, a)
	mustVerify(t, c, &VerifyRequest{Prog: "echo", InputBytes: 2})
	if _, _, evictions := compileStats(t, c); evictions != 1 {
		t.Fatalf("B did not evict A's module (%d evictions)", evictions)
	}
	again := mustVerify(t, c, a)
	if !again.VerdictCacheHit || !again.CompileCacheHit || again.Render != first.Render {
		t.Errorf("A's repeat: verdictHit=%v compileHit=%v, render equal=%v",
			again.VerdictCacheHit, again.CompileCacheHit, again.Render == first.Render)
	}
	if _, misses, _ := compileStats(t, c); misses != 2 {
		t.Errorf("A's repeat compiled: %d misses, want 2", misses)
	}
}

// TestSlotFallsBackWhenStoreEvicted: a slot whose verdict the store has
// evicted compiles and explores again, and renders the same.
func TestSlotFallsBackWhenStoreEvicted(t *testing.T) {
	store := openStore(t, 1)
	_, c := pipeServer(t, Config{Verdicts: store, CompileCacheCap: 1})
	a := &VerifyRequest{Prog: "true", InputBytes: 2}
	first := mustVerify(t, c, a)
	mustVerify(t, c, &VerifyRequest{Prog: "echo", InputBytes: 2})
	if store.Stats().Evictions != 1 {
		t.Fatalf("store evictions = %d, want 1", store.Stats().Evictions)
	}
	again := mustVerify(t, c, a)
	if again.VerdictCacheHit || again.CompileCacheHit {
		t.Errorf("A after its entry was evicted: verdictHit=%v compileHit=%v, want a compile and an exploration",
			again.VerdictCacheHit, again.CompileCacheHit)
	}
	if again.Render != first.Render {
		t.Errorf("fallback render differs:\n%s\nwant:\n%s", again.Render, first.Render)
	}
	if _, misses, _ := compileStats(t, c); misses != 3 {
		t.Errorf("compile-cache misses = %d, want 3", misses)
	}
}

// oneShot is a distinct small source per i.
func oneShot(i int) string {
	return fmt.Sprintf("int umain(unsigned char *input, int len) { return (int)input[0] + %d; }\n", i)
}

// TestHotModulesSurviveOneShotSources: a source seen once does not
// evict a module that has been requested more often.
func TestHotModulesSurviveOneShotSources(t *testing.T) {
	_, c := pipeServer(t, Config{CompileCacheCap: 2})
	hot := []*CompileRequest{{Prog: "true"}, {Prog: "echo"}}
	for round := 0; round < 3; round++ {
		for _, req := range hot {
			if _, err := c.Compile(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Compile(&CompileRequest{Name: "oneshot", Source: oneShot(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range hot {
		reply, err := c.Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reply.CompileCacheHit {
			t.Errorf("%s: hot module evicted by one-shot sources", req.Prog)
		}
	}
	if _, _, evictions := compileStats(t, c); evictions != 0 {
		t.Errorf("%d evictions, want 0", evictions)
	}
}

// TestSlotTableBounded: the slot table holds at most slotsPerModule
// slots per module, however many distinct sources arrive.
func TestSlotTableBounded(t *testing.T) {
	s, c := pipeServer(t, Config{Verdicts: openStore(t, 0), CompileCacheCap: 1})
	for i := 0; i < 3*slotsPerModule; i++ {
		mustVerify(t, c, &VerifyRequest{Name: "oneshot", Source: oneShot(i), InputBytes: 1})
	}
	s.compiles.mu.Lock()
	defer s.compiles.mu.Unlock()
	if n := s.compiles.slots.Len(); n != slotsPerModule {
		t.Errorf("slot table holds %d slots, want %d", n, slotsPerModule)
	}
	if n := s.compiles.mods.Len(); n != 1 {
		t.Errorf("%d modules resident, want 1", n)
	}
}

// TestSlotConcurrentSameKey: concurrent verifies of one key, with and
// without verdicts, share one slot and read the same. Run it under
// -race -count=10.
func TestSlotConcurrentSameKey(t *testing.T) {
	s, _ := pipeServer(t, Config{Verdicts: openStore(t, 0), CompileCacheCap: 1})
	want := cliRender(t, "basename", 2)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(noVerdicts bool) {
			defer wg.Done()
			reply, err := s.Verify(&VerifyRequest{Prog: "basename", InputBytes: 2, NoVerdicts: noVerdicts})
			switch {
			case err != nil:
				errs <- err
			case reply.Render != want:
				errs <- fmt.Errorf("divergent render:\n%s", reply.Render)
			}
		}(i%4 == 0)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s.compiles.mu.Lock()
	defer s.compiles.mu.Unlock()
	if s.compiles.slots.Len() != 1 || s.compiles.mods.Len() != 1 {
		t.Errorf("%d slots and %d modules after one key, want 1 and 1", s.compiles.slots.Len(), s.compiles.mods.Len())
	}
	if _, sl, _ := s.compiles.slots.Oldest(); len(sl.keys) != 1 {
		t.Errorf("slot remembers %d verdict keys, want 1", len(sl.keys))
	}
}
