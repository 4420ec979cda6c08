package daemon

import (
	"encoding/json"
	"reflect"
	"testing"

	"overify/internal/core"
)

const wireSrc = `int umain(unsigned char *input, int len) { return 0; }`

// Request bodies as the protocol-v3 structs encoded them before the
// verify body became a core.Job (captured from that commit), re-cut for
// v4 (the seed key is gone), for v5 (the search and cover keys are
// gone) and for v8 (the portfolioStall key is gone).
const (
	goldenVerify      = `{"name":"t.c","source":"int umain(unsigned char *input, int len) { return 0; }","level":"-O2","passes":"mem2reg,dce","entry":"umain","inputBytes":3,"timeoutMs":1500,"maxInstrs":1000000,"workers":2,"slice":true,"checks":"div-by-zero,bounds","noVerdicts":true}`
	goldenVerifyProg  = `{"prog":"wc"}`
	goldenDistExplore = `{"name":"t.c","source":"int umain(unsigned char *input, int len) { return 0; }","level":"-O2","passes":"mem2reg,dce","slice":true,"checks":"div-by-zero","workers":2,"timeoutMs":1500,"maxInstrs":1000000,"portfolio":4,"states":"T1ZTWA=="}`
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
	if string(d.States) != "OVSX" {
		t.Errorf("distExplore states decoded to %q", d.States)
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

	// Set every field by reflection so a field added later cannot dodge
	// the check.
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
