package verdicts_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"overify/internal/core"
	"overify/internal/pipeline"
	"overify/internal/symex"
	"overify/internal/verdicts"
)

// compile builds src at -O0 (no DCE, so unreachable functions survive
// into the module and the reachability claims below are meaningful).
func compile(t *testing.T, src string) *core.Compiled {
	t.Helper()
	c, err := core.CompileSource("t.c", src, pipeline.O0, core.DefaultLibc(pipeline.O0))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const keyBase = `
int helper(int x) { return x + 1; }
int unused(int x) { return x * 2; }
int umain(unsigned char *input, int len) {
	return helper(input[0]);
}
`

func TestKeyForReachability(t *testing.T) {
	base := compile(t, keyBase)
	k0, ok := verdicts.KeyFor(base.Mod, "umain", "ctx")
	if !ok {
		t.Fatal("KeyFor failed on base module")
	}
	if len(k0) != 32 {
		t.Fatalf("key %q is not 32 hex digits", k0)
	}

	// Editing a function umain never calls must not move the key.
	sameKey := compile(t, strings.Replace(keyBase, "x * 2", "x * 3", 1))
	if k, _ := verdicts.KeyFor(sameKey.Mod, "umain", "ctx"); k != k0 {
		t.Errorf("edit to unreachable function changed key: %s -> %s", k0, k)
	}

	// Any edit to reachable IR must move it.
	edited := compile(t, strings.Replace(keyBase, "x + 1", "x + 2", 1))
	if k, _ := verdicts.KeyFor(edited.Mod, "umain", "ctx"); k == k0 {
		t.Error("edit to reachable callee kept the key")
	}

	// So must a different context string (pipeline or verify config).
	if k, _ := verdicts.KeyFor(base.Mod, "umain", "ctx2"); k == k0 {
		t.Error("different context kept the key")
	}

	// Missing entry: nothing to key.
	if _, ok := verdicts.KeyFor(base.Mod, "no-such-fn", "ctx"); ok {
		t.Error("KeyFor succeeded for a missing entry function")
	}
}

func sampleReport() *symex.Report {
	rep := &symex.Report{}
	rep.Stats.Paths = 7
	rep.Stats.ErrorPaths = 1
	rep.Stats.Instrs = 1234
	rep.Stats.CoveredBlocks = 19
	rep.Stats.SolverStats.Queries = 42
	rep.Stats.SolverStats.Sat = 30
	rep.Stats.SolverStats.Unsat = 12
	rep.Bugs = []symex.Bug{{Kind: symex.BugOutOfBounds, Msg: "out of bounds", Where: "umain:3", Input: []byte("ab")}}
	return rep
}

func TestStoreRoundTrip(t *testing.T) {
	store, err := verdicts.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := verdicts.Key(strings.Repeat("ab", 16))
	rep := sampleReport()
	if err := store.Put(key, verdicts.FromReport(key, "prog", "umain", "-O2", rep)); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if r := verdicts.Render(got.Report()); r != verdicts.Render(rep) {
		t.Errorf("round-trip render mismatch:\ncold: %swarm: %s", verdicts.Render(rep), r)
	}
	if store.Len() != 1 || store.Stats().Hits != 1 || store.Stats().Stores != 1 {
		t.Errorf("counters: len=%d hits=%d stores=%d", store.Len(), store.Stats().Hits, store.Stats().Stores)
	}
}

func TestStoreToleratesCorruption(t *testing.T) {
	dir := t.TempDir()
	store, err := verdicts.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := verdicts.Key(strings.Repeat("cd", 16))
	entry := verdicts.FromReport(key, "prog", "umain", "-O2", sampleReport())
	path := filepath.Join(dir, string(key)+".json")

	corrupt := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Get(key); ok {
			t.Errorf("%s: corrupted entry served as a hit", name)
		}
		// And the store must recover: a fresh Put over the wreckage works.
		if err := store.Put(key, entry); err != nil {
			t.Fatalf("%s: Put over corrupted entry: %v", name, err)
		}
		if _, ok := store.Get(key); !ok {
			t.Fatalf("%s: repaired entry still missing", name)
		}
	}

	if err := store.Put(key, entry); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt("truncated", good[:len(good)/2])
	corrupt("garbage", []byte("not json at all\x00\xff"))
	corrupt("empty", nil)

	wrongSchema := strings.Replace(string(good), `"schema": 1`, `"schema": 999`, 1)
	if wrongSchema == string(good) {
		t.Fatal("schema marker not found in stored entry")
	}
	corrupt("wrong-schema", []byte(wrongSchema))

	wrongKey := strings.Replace(string(good), string(key), strings.Repeat("ef", 16), 1)
	corrupt("wrong-key", []byte(wrongKey))
}

// TestStoreConcurrentGetPut pins the daemon's core requirement: one
// Store shared by many goroutines must be race-free (run under -race)
// and its counters must stay consistent. The seed-era store mutated
// Hits/Misses with plain ++.
func TestStoreConcurrentGetPut(t *testing.T) {
	store, err := verdicts.OpenLimited(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]verdicts.Key, 16)
	for i := range keys {
		keys[i] = verdicts.Key(strings.Repeat(string(rune('a'+i%6)), 30) + "0" + string(rune('a'+i%10)))
	}
	rep := sampleReport()
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := keys[(g+i)%len(keys)]
				if i%3 == 0 {
					if err := store.Put(k, verdicts.FromReport(k, "prog", "umain", "-O2", rep)); err != nil {
						t.Error(err)
						return
					}
				} else if e, ok := store.Get(k); ok {
					if got, want := verdicts.Render(e.Report()), verdicts.Render(rep); got != want {
						t.Errorf("concurrent Get returned a different outcome:\n%s\nvs\n%s", got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	gets := store.Stats().Hits + store.Stats().Misses
	if gets == 0 || store.Stats().Stores == 0 {
		t.Errorf("counters lost updates: gets=%d stores=%d", gets, store.Stats().Stores)
	}
	if n := store.Len(); n > 8 {
		t.Errorf("bounded store holds %d entries, cap 8", n)
	}
}

// TestStoreEviction pins the bounded store's LRU-on-Put behavior:
// exceeding the cap removes the coldest entry (a Get refreshes recency,
// and so does a Recall, which reads no file but counts the same hit),
// evictions are counted, and evicted keys come back as plain misses
// that Recall does not answer or count.
func TestStoreEviction(t *testing.T) {
	for name, use := range map[string]func(*verdicts.Store, verdicts.Key) bool{
		"Get":    func(s *verdicts.Store, k verdicts.Key) bool { _, ok := s.Get(k); return ok },
		"Recall": (*verdicts.Store).Recall,
	} {
		t.Run(name, func(t *testing.T) {
			store, err := verdicts.OpenLimited(t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			rep := sampleReport()
			key := func(i int) verdicts.Key {
				return verdicts.Key(strings.Repeat("0", 31) + string(rune('a'+i)))
			}
			put := func(i int) {
				t.Helper()
				if err := store.Put(key(i), verdicts.FromReport(key(i), "prog", "umain", "-O2", rep)); err != nil {
					t.Fatal(err)
				}
			}
			put(0)
			put(1)
			// Use key 0 so key 1 is now the coldest.
			if !use(store, key(0)) || store.Stats().Hits != 1 {
				t.Fatalf("resident entry missed, or its hit not counted (%d hits)", store.Stats().Hits)
			}
			put(2) // over cap: evicts key 1
			if store.Len() != 2 {
				t.Fatalf("Len = %d after eviction, want 2", store.Len())
			}
			if store.Stats().Evictions != 1 {
				t.Errorf("Evictions = %d, want 1", store.Stats().Evictions)
			}
			if store.Recall(key(1)) || store.Stats().Hits != 1 {
				t.Errorf("evicted entry recalled, or counted (%d hits)", store.Stats().Hits)
			}
			if _, ok := store.Get(key(1)); ok {
				t.Error("evicted entry still served")
			}
			for _, i := range []int{0, 2} {
				if _, ok := store.Get(key(i)); !ok {
					t.Errorf("entry %d wrongly evicted", i)
				}
			}
		})
	}
}

// TestOpenLimitedAdoptsExisting: reopening a grown directory with a cap
// trims it to the cap, evicting the oldest files.
func TestOpenLimitedAdoptsExisting(t *testing.T) {
	dir := t.TempDir()
	store, err := verdicts.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := sampleReport()
	for i := 0; i < 5; i++ {
		k := verdicts.Key(strings.Repeat("1", 31) + string(rune('a'+i)))
		if err := store.Put(k, verdicts.FromReport(k, "prog", "umain", "-O2", rep)); err != nil {
			t.Fatal(err)
		}
	}
	bounded, err := verdicts.OpenLimited(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Len() != 3 {
		t.Errorf("reopened store holds %d entries, want 3", bounded.Len())
	}
	if bounded.Stats().Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", bounded.Stats().Evictions)
	}
}

// TestReportVerdict: a report is inconclusive whenever it timed out,
// truncated a path or left a solver query undecided, bugs or not;
// otherwise it is verified or bugs. Cacheable is exactly "not
// inconclusive".
func TestReportVerdict(t *testing.T) {
	clean := sampleReport()
	clean.Bugs = nil
	bugs := sampleReport()
	timedOut := sampleReport()
	timedOut.Stats.TimedOut = true
	truncated := sampleReport()
	truncated.Stats.TruncatedPaths = 2
	undecided := sampleReport()
	undecided.Stats.SolverStats.Failures = 1
	all := sampleReport()
	all.Stats.TimedOut, all.Stats.TruncatedPaths, all.Stats.SolverStats.Failures = true, 1, 1
	cases := []struct {
		name string
		rep  *symex.Report
		want symex.Verdict
		why  int
	}{
		{"clean", clean, symex.Verified, 0},
		{"bugs", bugs, symex.Bugs, 0},
		{"timed out", timedOut, symex.Inconclusive, 1},
		{"truncated", truncated, symex.Inconclusive, 1},
		{"undecided query", undecided, symex.Inconclusive, 1},
		{"all three", all, symex.Inconclusive, 3},
	}
	for _, c := range cases {
		got, why := c.rep.Verdict()
		if got != c.want || len(why) != c.why {
			t.Errorf("%s: verdict %s with reasons %q, want %s with %d", c.name, got, why, c.want, c.why)
		}
		if verdicts.Cacheable(c.rep) != (got != symex.Inconclusive) {
			t.Errorf("%s: Cacheable disagrees with verdict %s", c.name, got)
		}
	}
}

func TestCacheable(t *testing.T) {
	rep := sampleReport()
	if !verdicts.Cacheable(rep) {
		t.Error("clean report not cacheable")
	}
	tr := sampleReport()
	tr.Stats.TruncatedPaths = 1
	to := sampleReport()
	to.Stats.TimedOut = true
	fa := sampleReport()
	fa.Stats.SolverStats.Failures = 1
	for name, r := range map[string]*symex.Report{"truncated": tr, "timed-out": to, "solver-failure": fa, "nil": nil} {
		if verdicts.Cacheable(r) {
			t.Errorf("%s report marked cacheable", name)
		}
	}
}

// TestOpenLimitedRefusesNegativeCap: a negative cap is an error, not an
// unbounded store that reports the negative number as its limit.
func TestOpenLimitedRefusesNegativeCap(t *testing.T) {
	if store, err := verdicts.OpenLimited(t.TempDir(), -5); err == nil {
		t.Errorf("OpenLimited(-5) opened a store with limit %d", store.Stats().Limit)
	}
	store, err := verdicts.OpenLimited(t.TempDir(), 0)
	if err != nil || store.Stats().Limit != 0 {
		t.Fatalf("OpenLimited(0): %v", err)
	}
}
