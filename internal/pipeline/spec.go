package pipeline

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"overify/internal/ir"
	"overify/internal/passes"
)

// DefaultFixpointRounds is the round cap a textual "fixpoint(...)"
// stage gets when it does not spell one ("fixpoint:N(...)").
const DefaultFixpointRounds = 12

// Stage is one step of a declarative pipeline: either a single named
// pass or a fixpoint over a sequence of named passes. Stages are data,
// not code — the same spec prints as the -passes= textual form,
// round-trips through ParsePipeline, and instantiates real passes via
// Build.
type Stage struct {
	// Pass is the pass name for a single-pass stage ("" for fixpoint).
	Pass string
	// Fixpoint lists the body pass names of a fixpoint stage.
	Fixpoint []string
	// MaxRounds caps the fixpoint's rounds (fixpoint stages only).
	MaxRounds int
	// Checks is the kept-check subset a slice/loopsummary stage
	// targets (zero: all checks). It renders as a ':'-annotation —
	// "slice:div-by-zero+bounds" — so the spec string, and therefore
	// the verdict-store key and any spec fingerprint, captures the
	// slice configuration instead of leaving it to ride Config fields
	// outside the rendered pipeline.
	Checks ir.CheckSet
}

// PipelineSpec is an optimization pipeline as data. pipeline.Passes
// produces one per level; -passes= parses one from text.
type PipelineSpec struct {
	Stages []Stage
}

// String renders the spec in the -passes= syntax, e.g.
// "mem2reg,fixpoint:12(ifconvert,simplify,cse,simplifycfg,dce)".
func (s PipelineSpec) String() string {
	var sb strings.Builder
	for i, st := range s.Stages {
		if i > 0 {
			sb.WriteByte(',')
		}
		if st.Pass != "" {
			sb.WriteString(st.Pass)
			if st.Checks != ir.AllChecks {
				sb.WriteByte(':')
				// '+' joins kinds because ',' separates stages.
				sb.WriteString(strings.ReplaceAll(st.Checks.String(), ",", "+"))
			}
			continue
		}
		fmt.Fprintf(&sb, "fixpoint:%d(%s)", st.MaxRounds, strings.Join(st.Fixpoint, ","))
	}
	return sb.String()
}

// ParsePipeline parses the -passes= syntax:
//
//	pipeline := stage ("," stage)*
//	stage    := pass-name | "fixpoint" [":" rounds] "(" pass-name ("," pass-name)* ")"
//
// Pass names are validated against the pass registry; fixpoints do not
// nest. An empty string is an error (spell an empty pipeline as a
// custom Config instead).
func ParsePipeline(text string) (PipelineSpec, error) {
	var spec PipelineSpec
	rest := strings.TrimSpace(text)
	if rest == "" {
		return spec, fmt.Errorf("pipeline: empty -passes= pipeline")
	}
	for len(rest) > 0 {
		rest = strings.TrimSpace(rest)
		var stage string
		if strings.HasPrefix(rest, "fixpoint") {
			close := strings.IndexByte(rest, ')')
			if close < 0 {
				return spec, fmt.Errorf("pipeline: unclosed fixpoint in %q", text)
			}
			stage, rest = rest[:close+1], strings.TrimSpace(rest[close+1:])
			if rest != "" {
				if !strings.HasPrefix(rest, ",") {
					return spec, fmt.Errorf("pipeline: expected ',' after %q", stage)
				}
				rest = rest[1:]
			}
		} else if i := strings.IndexByte(rest, ','); i >= 0 {
			stage, rest = rest[:i], rest[i+1:]
		} else {
			stage, rest = rest, ""
		}
		st, err := parseStage(strings.TrimSpace(stage))
		if err != nil {
			return spec, err
		}
		spec.Stages = append(spec.Stages, st)
	}
	return spec, nil
}

func parseStage(stage string) (Stage, error) {
	if stage == "" {
		return Stage{}, fmt.Errorf("pipeline: empty stage (double comma?)")
	}
	if !strings.HasPrefix(stage, "fixpoint") {
		if name, annot, ok := strings.Cut(stage, ":"); ok {
			if name != "slice" && name != "loopsummary" {
				return Stage{}, fmt.Errorf("pipeline: only slice/loopsummary stages take a check-set annotation, not %q", stage)
			}
			if annot == "" {
				return Stage{}, fmt.Errorf("pipeline: empty check-set annotation in %q", stage)
			}
			set, err := ir.ParseCheckSet(strings.ReplaceAll(annot, "+", ","))
			if err != nil {
				return Stage{}, fmt.Errorf("pipeline: %q: %w", stage, err)
			}
			return Stage{Pass: name, Checks: set}, nil
		}
		if err := checkPassName(stage); err != nil {
			return Stage{}, err
		}
		return Stage{Pass: stage}, nil
	}
	head, body, ok := strings.Cut(stage, "(")
	if !ok || !strings.HasSuffix(body, ")") {
		return Stage{}, fmt.Errorf("pipeline: malformed fixpoint stage %q", stage)
	}
	body = strings.TrimSuffix(body, ")")
	rounds := DefaultFixpointRounds
	if colon := strings.TrimPrefix(head, "fixpoint"); colon != "" {
		n, err := strconv.Atoi(strings.TrimPrefix(colon, ":"))
		if err != nil || !strings.HasPrefix(colon, ":") || n <= 0 {
			return Stage{}, fmt.Errorf("pipeline: bad fixpoint round count in %q", stage)
		}
		rounds = n
	}
	st := Stage{MaxRounds: rounds}
	for _, name := range strings.Split(body, ",") {
		name = strings.TrimSpace(name)
		if strings.HasPrefix(name, "fixpoint") {
			return Stage{}, fmt.Errorf("pipeline: fixpoints do not nest in %q", stage)
		}
		if err := checkPassName(name); err != nil {
			return Stage{}, err
		}
		st.Fixpoint = append(st.Fixpoint, name)
	}
	if len(st.Fixpoint) == 0 {
		return Stage{}, fmt.Errorf("pipeline: empty fixpoint body in %q", stage)
	}
	return st, nil
}

func checkPassName(name string) error {
	_, err := passes.ByName(name)
	return err
}

// isSliceStage reports whether the stage runs the check-relevance
// machinery (and so is annotated with the kept-check subset).
func isSliceStage(st Stage) bool {
	return st.Pass == "slice" || st.Pass == "loopsummary"
}

// withSliceChecks resolves the effective kept-check subset of the
// spec's slice/loopsummary stages and canonicalizes: every such stage
// is annotated with the effective set, so the rendered spec — the
// verdict key's pipeline field — fully determines the slice
// configuration. Annotated stages win over the fallback (the legacy
// Config.SliceChecks field); stages that disagree with each other are
// an error, since the relevance analysis is computed once per module.
func (s PipelineSpec) withSliceChecks(fallback ir.CheckSet) (PipelineSpec, ir.CheckSet, error) {
	eff := ir.AllChecks
	found := false
	for _, st := range s.Stages {
		if !isSliceStage(st) || st.Checks == ir.AllChecks {
			continue
		}
		if found && eff != st.Checks {
			return s, 0, fmt.Errorf("pipeline: slice stages disagree on the kept-check subset (%s vs %s)", eff, st.Checks)
		}
		eff, found = st.Checks, true
	}
	if !found {
		eff = fallback
	}
	out := s
	copied := false
	for i, st := range s.Stages {
		if isSliceStage(st) && st.Checks != eff {
			if !copied {
				out.Stages = append([]Stage(nil), s.Stages...)
				copied = true
			}
			out.Stages[i].Checks = eff
		}
	}
	return out, eff, nil
}

// Build instantiates the spec into runnable passes.
func (s PipelineSpec) Build() ([]passes.Pass, error) {
	seq := make([]passes.Pass, 0, len(s.Stages))
	for _, st := range s.Stages {
		if st.Pass != "" {
			p, err := passes.ByName(st.Pass)
			if err != nil {
				return nil, err
			}
			seq = append(seq, p)
			continue
		}
		body := make([]passes.Pass, 0, len(st.Fixpoint))
		for _, name := range st.Fixpoint {
			p, err := passes.ByName(name)
			if err != nil {
				return nil, err
			}
			body = append(body, p)
		}
		rounds := st.MaxRounds
		if rounds <= 0 {
			rounds = DefaultFixpointRounds
		}
		seq = append(seq, passes.Fixpoint(rounds, body...))
	}
	return seq, nil
}

// LoadSpecArg resolves a -passes command-line argument: the spelling
// @FILE reads the spec text from FILE (a schedule kept as data and
// replayed), anything else is the spec itself. A file holding no spec
// is an error: callers read "" as "no -passes given" and would run the
// stock level under the file's name. Only the CLIs call it — a spec
// arriving in a request is never treated as a file name.
func LoadSpecArg(arg string) (string, error) {
	file, ok := strings.CutPrefix(arg, "@")
	if !ok {
		return arg, nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	text := strings.TrimSpace(string(data))
	if text == "" {
		return "", fmt.Errorf("pipeline: spec file %s is empty", file)
	}
	return text, nil
}
