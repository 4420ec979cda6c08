package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/dist"
	"overify/internal/pipeline"
	"overify/internal/solver"
	"overify/internal/verdicts"
)

// pinnedCell is one (program, level, input size) whose solver counters
// and verdict render were captured at commit 0a67d11, the last commit
// whose model-reuse probe walked the whole path condition per model.
//
// Two fields of stats were re-cut at PR 21 and are not 0a67d11's:
// Assignments and TapeSlots. A single-variable group whose cache holds
// the solution set of a prefix of its constraints is now searched from
// that set, over a tape of the remaining constraints only
// (Solver.carriedSet), so it tries fewer values and compiles fewer slots
// — and the few such groups that propagation used to close without
// trying a value now pay the filter over the carried set (tac +5,
// basename +1, fieldparse +256, against stat -3,427 and od-x -4,590).
// How many queries there are, which layer answers each, how many
// searches run, their nodes and every model are as at 0a67d11.
//
// basename -O3's Assignments were re-cut again when forward checking
// moved to live variables (tapeState.unassignedIn): a constraint whose
// select conditions are decided is filtered in the one byte it still
// reads, before its other bytes are bound, so its group tries 255 fewer
// values (73,417 → 73,162). Nodes and every other counter stand.
//
// The od-x -OVERIFY cell is re-cut whole since -OVERIFY stopped
// running unroll, unswitch, licm and jump threading: it compiles to
// different IR, so it explores 88 paths, not 89, and asks 218 queries,
// not 176. It still verifies with no bugs.
type pinnedCell struct {
	prog  string
	level pipeline.Level
	n     int
	// stats is the serial run's full solver.Stats.
	stats solver.Stats
	// render is the sha256 of verdicts.Render with witness bytes, serial
	// run; normalized is the same with every witness blanked, which is
	// what a 4-worker run must also produce.
	render, normalized string
}

var pinnedCells = []pinnedCell{
	{prog: "wc", level: pipeline.O0, n: 6,
		stats:      solver.Stats{Queries: 378, CacheHits: 1000, ModelReuseHits: 173, Sat: 315, Unsat: 63, Nodes: 44, Assignments: 8697, TapeCompiles: 28, TapeSlots: 255, MaxGroupVars: 1},
		render:     "5b1fd099466345a50dae01c97783d1e6e0e97d78197bb431907215bf5ab07981",
		normalized: "5b1fd099466345a50dae01c97783d1e6e0e97d78197bb431907215bf5ab07981"},
	{prog: "stat", level: pipeline.O0, n: 3,
		stats:      solver.Stats{Queries: 620, CacheHits: 848, ModelReuseHits: 295, Sat: 465, Unsat: 155, Nodes: 44, Assignments: 18485, TapeCompiles: 37, TapeSlots: 585, MaxGroupVars: 1},
		render:     "b07c56f201f84fe3e7a262122ecf9a14618f5d461b7398859640069fa53a6c6a",
		normalized: "b07c56f201f84fe3e7a262122ecf9a14618f5d461b7398859640069fa53a6c6a"},
	{prog: "od-x", level: pipeline.OVerify, n: 4,
		stats:      solver.Stats{Queries: 218, CacheHits: 367, ModelReuseHits: 100, Sat: 196, Unsat: 22, Nodes: 40, Assignments: 4359, TapeCompiles: 21, TapeSlots: 154, MaxGroupVars: 1},
		render:     "e03b705e66a0d8758763c4b2da03e467296295747d03bd740939e7a855bfd3fc",
		normalized: "e03b705e66a0d8758763c4b2da03e467296295747d03bd740939e7a855bfd3fc"},
	{prog: "tac", level: pipeline.O0, n: 5,
		stats:      solver.Stats{Queries: 300, CacheHits: 434, ModelReuseHits: 139, Sat: 212, Unsat: 88, Nodes: 40, Assignments: 3855, TapeCompiles: 25, TapeSlots: 105, MaxGroupVars: 1},
		render:     "7ef1500b7f3f1d8779b50ab902991796ca9936e7c53c05c0df09b98b0bf4ba41",
		normalized: "7ef1500b7f3f1d8779b50ab902991796ca9936e7c53c05c0df09b98b0bf4ba41"},
	{prog: "basename", level: pipeline.O3, n: 3,
		stats:      solver.Stats{Queries: 56, CacheHits: 4, ModelReuseHits: 25, Sat: 37, Unsat: 19, Nodes: 38, Assignments: 73162, TapeCompiles: 31, TapeSlots: 987, MaxGroupVars: 3},
		render:     "8b7daa1c3720cd351c1c7ac79f30f7e019002207c65391b73fc9a81196a57ba8",
		normalized: "8b7daa1c3720cd351c1c7ac79f30f7e019002207c65391b73fc9a81196a57ba8"},
	{prog: "fieldparse", level: pipeline.O0, n: 6,
		stats:      solver.Stats{Queries: 750, CacheHits: 1179, ModelReuseHits: 335, Sat: 544, Unsat: 206, Nodes: 63, Assignments: 15563, TapeCompiles: 36, TapeSlots: 261, MaxGroupVars: 2},
		render:     "da304bcfc2df2165b93a38c88950f12b99e8fa8e1d2101d9dfe0b4e4a4b8781c",
		normalized: "6c89c8748a095bc6cf88a8f8527f826a44a9032d0ddd0ff3ff11d16dece115a7"},
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestSolverCountersPinned: a change to the solver's front end (model
// reuse, partition carrying, caches) answers the same queries from the
// same layers with the same models. The serial run's full solver.Stats
// and the hash of its verdicts.Render — witness bytes included — equal
// the constants captured at 0a67d11 (Assignments and TapeSlots: at PR 21,
// see pinnedCell); at 4 workers the schedule-invariant counters and the
// witness-blanked render do.
func TestSolverCountersPinned(t *testing.T) {
	for _, cell := range pinnedCells {
		t.Run(cell.prog+cell.level.String(), func(t *testing.T) {
			p, ok := coreutils.Get(cell.prog)
			if !ok {
				src, err := os.ReadFile("../../benchmark/programs/" + cell.prog + ".mc")
				if err != nil {
					t.Fatal(err)
				}
				p = coreutils.Program{Name: cell.prog, Src: string(src)}
			}
			c, err := core.CompileProgram(p, cell.level)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				vo := core.VerifyOptions{InputBytes: cell.n}
				vo.Engine.Workers = workers
				rep, err := c.Verify("umain", vo)
				if err != nil {
					t.Fatal(err)
				}
				got := rep.Stats.SolverStats
				render := verdicts.Render(rep)
				normalized := sha(dist.NormalizedRender(rep))
				if normalized != cell.normalized {
					t.Errorf("workers=%d: witness-blanked render differs from 0a67d11:\n%s", workers, render)
				}
				if workers != 1 {
					want := cell.stats
					if got.Queries != want.Queries || got.Sat != want.Sat || got.Unsat != want.Unsat || got.Failures != want.Failures {
						t.Errorf("workers=%d: queries/sat/unsat/failures = %d/%d/%d/%d, want %d/%d/%d/%d", workers,
							got.Queries, got.Sat, got.Unsat, got.Failures, want.Queries, want.Sat, want.Unsat, want.Failures)
					}
					continue
				}
				if got != cell.stats {
					t.Errorf("serial solver.Stats differ from 0a67d11:\n got %+v\nwant %+v", got, cell.stats)
				}
				if sha(render) != cell.render {
					t.Errorf("serial render (witness bytes included) differs from 0a67d11:\n%s", render)
				}
			}
		})
	}
}
