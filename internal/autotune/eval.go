package autotune

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"

	"overify/internal/core"
	"overify/internal/passes"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// Candidate is one evaluated schedule. A candidate with a nonempty
// Rejected reason was discarded before ranking — the parity gate, the
// budget gates and compile failures all land here — and its counters
// are whatever was measured before the rejection.
type Candidate struct {
	// Spec is the canonical rendered pipeline (pipeline.Result.Spec),
	// guaranteed to parse back via ParsePipeline.
	Spec string

	// Work is the deterministic verify objective: solver assignments
	// tried + instructions symbolically executed, both serial-run
	// counters.
	Work        int64
	Assignments int64
	Instrs      int64
	Paths       int64
	Queries     int64
	Bugs        int

	// Compile-side measurements. CompileInvocations is the
	// deterministic compile-work currency the t_compile gate uses.
	CompileInvocations int
	InstrsOut          int
	CompileWall        time.Duration
	VerifyWall         time.Duration
	// PassTimings breaks compile work down per pass, so a t_compile
	// regression can be attributed to the inserted pass.
	PassTimings []passes.PassMetric

	// Rejected is "" for ranked candidates, else the gate that fired:
	// "parity", "verify-budget", "compile-budget", or "compile: ...".
	Rejected string

	spec   pipeline.PipelineSpec // parsed form, for mutation
	report *symex.Report         // engine report, for the parity gate
}

// Report returns the engine report behind the candidate's numbers (nil
// if compilation or verification never finished).
func (c *Candidate) Report() *symex.Report { return c.report }

// Valid reports whether the candidate survived every gate and may be
// ranked.
func (c *Candidate) Valid() bool { return c.Rejected == "" }

// evalConfig is the fixed context one search evaluates every candidate
// under.
type evalConfig struct {
	name, src  string
	inputBytes int
	timeout    time.Duration
	jobs       int    // pass-manager jobs per compile
	baseBugs   string // the baseline's normalized bug set ("" gates nothing)
	gate       bool   // apply parity/budget gates (false for the baseline itself)
	invCap     int    // compile gate: max pass invocations (0 = off)
	maxInstrs  int64  // verify gate: deterministic instruction cap (0 = off)
	maxAssigns int64  // verify gate: deterministic solver-assignment cap (0 = off)
}

// evalBaseline compiles and verifies the stock -OVERIFY configuration
// — the spec every candidate is gated and ranked against.
func evalBaseline(o Options) (*Candidate, string, error) {
	cand := evaluate(pipeline.PipelineSpec{}, evalConfig{
		name: o.Name, src: o.Source, inputBytes: o.InputBytes,
		timeout: o.Timeout, jobs: o.Jobs,
	})
	if !cand.Valid() {
		return nil, "", fmt.Errorf("autotune %s: -OVERIFY baseline failed: %s", o.Name, cand.Rejected)
	}
	return cand, bugKeys(cand.report), nil
}

// evaluate compiles src under the spec (zero-value spec: the canonical
// -OVERIFY pipeline) and measures one serial verification. Every gate
// that can fire on a well-formed candidate is deterministic: the
// instruction and solver-assignment caps stop the engine at the same
// point on every machine, so a candidate rejected as over-budget on one
// run is rejected identically on the next. The wall-clock backstop
// exists only for pathology the caps cannot see (a compile blowup, a
// stall inside a single solver query) and is sized so that a candidate
// within the deterministic caps can never reach it.
func evaluate(spec pipeline.PipelineSpec, ec evalConfig) *Candidate {
	cand := &Candidate{Spec: spec.String(), spec: spec}
	cfg := pipeline.LevelConfig(pipeline.OVerify)
	cfg.Jobs = ec.jobs
	if len(spec.Stages) > 0 {
		cfg.Pipeline = &spec
	}
	c, err := core.CompileWithConfig(ec.name, ec.src, cfg, core.DefaultLibc(pipeline.OVerify))
	if err != nil {
		cand.Rejected = "compile: " + err.Error()
		return cand
	}
	cand.Spec = c.Result.Spec // canonical rendering
	cand.CompileInvocations = c.Result.PassInvocations
	cand.InstrsOut = c.Result.InstrsOut
	cand.CompileWall = c.Result.CompileTime
	cand.PassTimings = c.Result.PassTimings
	if ec.invCap > 0 && cand.CompileInvocations > ec.invCap {
		cand.Rejected = "compile-budget"
		return cand
	}
	vo := core.VerifyOptions{InputBytes: ec.inputBytes}
	vo.Engine.Timeout = ec.timeout
	vo.Engine.MaxInstrs = ec.maxInstrs
	vo.Engine.MaxAssignments = ec.maxAssigns
	rep, err := c.Verify("umain", vo)
	if err != nil {
		cand.Rejected = "verify: " + err.Error()
		return cand
	}
	st := &rep.Stats
	cand.Assignments = st.SolverStats.Assignments
	cand.Instrs = st.Instrs
	cand.Work = cand.Assignments + cand.Instrs
	cand.Paths = st.TotalPaths()
	cand.Queries = st.SolverStats.Queries
	cand.Bugs = len(rep.Bugs)
	cand.VerifyWall = st.Elapsed
	cand.report = rep
	if st.TimedOut || st.TruncatedPaths > 0 {
		// An incomplete exploration has no trustworthy bug set and no
		// comparable work count.
		cand.Rejected = "verify-budget"
		return cand
	}
	if ec.gate && bugKeys(rep) != ec.baseBugs {
		cand.Rejected = "parity"
		return cand
	}
	return cand
}

var bugPos = regexp.MustCompile(`(@[A-Za-z0-9_$]+)/[^ ]+`)

// bugKeys renders the position-normalized, deduplicated bug set — the
// same normalization the slicing parity suite uses, because the same
// caveat applies: a schedule's simplifycfg can merge two blocks whose
// defects the baseline reported separately.
func bugKeys(rep *symex.Report) string {
	if rep == nil {
		return ""
	}
	uniq := map[string]bool{}
	for _, b := range rep.Bugs {
		uniq[fmt.Sprintf("[%s] %s", b.Kind, bugPos.ReplaceAllString(b.Msg, "$1"))] = true
	}
	keys := make([]string, 0, len(uniq))
	for k := range uniq {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// BugKeys exposes the parity normalization for tests.
func BugKeys(rep *symex.Report) string { return bugKeys(rep) }
