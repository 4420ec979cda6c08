package daemon

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"overify/internal/core"
	"overify/internal/verdicts"
)

const wireSrc = `int umain(unsigned char *input, int len) { return 0; }`

// Request bodies as the protocol-v3 structs encoded them before the
// verify body became a core.Job (captured from that commit), re-cut for
// v4 (the seed key is gone), for v5 (the search and cover keys are
// gone), for v8 (the portfolioStall key is gone) and for v10
// (distExplore gains the module key).
const (
	goldenVerify      = `{"name":"t.c","source":"int umain(unsigned char *input, int len) { return 0; }","level":"-O2","passes":"mem2reg,dce","entry":"umain","inputBytes":3,"timeoutMs":1500,"maxInstrs":1000000,"workers":2,"slice":true,"checks":"div-by-zero,bounds","noVerdicts":true}`
	goldenVerifyProg  = `{"prog":"wc"}`
	goldenDistExplore = `{"name":"t.c","source":"int umain(unsigned char *input, int len) { return 0; }","level":"-O2","passes":"mem2reg,dce","slice":true,"checks":"div-by-zero","workers":2,"timeoutMs":1500,"maxInstrs":1000000,"portfolio":4,"module":"0123abcd","states":"T1ZTWA=="}`
	goldenCompile     = `{"prog":"wc","level":"-O3","passes":"mem2reg","ir":true}`
)

// TestWireGoldenRequestsDecode: each golden request body decodes to the
// job its sender meant.
func TestWireGoldenRequestsDecode(t *testing.T) {
	var v VerifyRequest
	if err := decode([]byte(goldenVerify), &v); err != nil {
		t.Fatal(err)
	}
	if want := (core.Job{
		Name: "t.c", Source: wireSrc, Level: "-O2", Passes: "mem2reg,dce", Entry: "umain",
		InputBytes: 3, TimeoutMS: 1500, MaxInstrs: 1000000, Workers: 2,
		Slice: true, Checks: "div-by-zero,bounds", NoVerdicts: true,
	}); v != want {
		t.Errorf("verify body decoded to\n%+v, want\n%+v", v, want)
	}

	var vp VerifyRequest
	if err := decode([]byte(goldenVerifyProg), &vp); err != nil {
		t.Fatal(err)
	}
	if want := (core.Job{Prog: "wc"}); vp != want {
		t.Errorf("prog-only verify body decoded to %+v", vp)
	}

	var d DistExploreRequest
	if err := decode([]byte(goldenDistExplore), &d); err != nil {
		t.Fatal(err)
	}
	if want := (core.Job{
		Name: "t.c", Source: wireSrc, Level: "-O2", Passes: "mem2reg,dce", Slice: true, Checks: "div-by-zero",
		Workers: 2, TimeoutMS: 1500, MaxInstrs: 1000000,
		Portfolio: 4,
	}); d.Job() != want {
		t.Errorf("distExplore body decoded to job\n%+v, want\n%+v", d.Job(), want)
	}
	if string(d.States) != "OVSX" || d.Module != "0123abcd" {
		t.Errorf("distExplore states and module decoded to %q, %q", d.States, d.Module)
	}

	var c CompileRequest
	if err := decode([]byte(goldenCompile), &c); err != nil {
		t.Fatal(err)
	}
	if want := (core.Job{Prog: "wc", Level: "-O3", Passes: "mem2reg"}); c.Job() != want || !c.IR {
		t.Errorf("compile body decoded to job %+v (ir=%v)", c.Job(), c.IR)
	}
}

// TestWireJobKeysAreV3: a fully populated job encodes under exactly the
// key names the golden verify and distExplore bodies use (v3's, less
// seed since v4) — no key is added or renamed by accident; the
// coordinator-only SplitStates never travels.
func TestWireJobKeysAreV3(t *testing.T) {
	v3 := map[string]bool{}
	for _, golden := range []string{goldenVerify, goldenVerifyProg, goldenDistExplore} {
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(golden), &m); err != nil {
			t.Fatal(err)
		}
		for k := range m {
			v3[k] = true
		}
	}
	delete(v3, "states")
	delete(v3, "module")

	full := fullJob()
	var got map[string]json.RawMessage
	if err := json.Unmarshal(body(&full), &got); err != nil {
		t.Fatal(err)
	}
	for k := range got {
		if !v3[k] {
			t.Errorf("job encodes key %q, which no golden request body uses", k)
		}
	}
	for k := range v3 {
		if _, ok := got[k]; !ok {
			t.Errorf("golden key %q is not encoded by a fully populated job", k)
		}
	}
}

// fullJob is a job with every field set, by reflection, so that a
// field added later cannot dodge a check.
func fullJob() core.Job {
	var full core.Job
	rv := reflect.ValueOf(&full).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		default:
			f.SetInt(1)
		}
	}
	return full
}

// TestRequestConstructorsCarryTheJob: every field of a fully populated
// job survives NewDistExploreRequest and NewCompileRequest and the
// requests' Job, except the fields each names as not carried. A field
// a request drops silently (as distExplore once dropped entry) fails
// here.
func TestRequestConstructorsCarryTheJob(t *testing.T) {
	full := fullJob()
	for _, tc := range []struct {
		name       string
		got        core.Job
		notCarried []string
	}{
		{"distExplore", NewDistExploreRequest(full, []byte("OVSX")).Job(),
			[]string{"InputBytes", "NoVerdicts", "SplitStates"}},
		// A compile request compiles unsliced, so the entry and the
		// kept checks, which only a slice reads, stay behind too.
		{"compile", NewCompileRequest(full, true).Job(),
			[]string{"Entry", "InputBytes", "TimeoutMS", "MaxInstrs", "Workers", "Slice", "Checks", "NoVerdicts", "Portfolio", "SplitStates"}},
	} {
		want := full
		wv := reflect.ValueOf(&want).Elem()
		for _, name := range tc.notCarried {
			f := wv.FieldByName(name)
			if !f.IsValid() {
				t.Fatalf("%s: no Job field %s", tc.name, name)
			}
			f.SetZero()
		}
		if tc.got != want {
			t.Errorf("%s: the job came back as\n%+v, want\n%+v", tc.name, tc.got, want)
		}
	}
	if d := NewDistExploreRequest(full, []byte("OVSX")); string(d.States) != "OVSX" {
		t.Errorf("distExplore states = %q", d.States)
	}
	if !NewCompileRequest(full, true).IR {
		t.Error("compile request lost ir")
	}
}

// TestStatsReplyKeys: each cache object of the stats reply carries the
// shared lru.Stats keys beside the keys it had before they shared a
// shape, and nothing else.
func TestStatsReplyKeys(t *testing.T) {
	store, err := verdicts.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(NewServer(Config{Verdicts: store}).statsReply())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	shared := []string{"bytes", "entries", "evictions", "hits", "misses"}
	for obj, own := range map[string][]string{
		"solverCache": nil,
		"verdicts":    {"dir", "limit", "stores"},
		"compiles":    {"capacity"},
	} {
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(m[obj], &keys); err != nil {
			t.Fatalf("%s: %v", obj, err)
		}
		var got []string
		for k := range keys {
			got = append(got, k)
		}
		want := append(append([]string{}, shared...), own...)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s keys %v, want %v", obj, got, want)
		}
	}
}
