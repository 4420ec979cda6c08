package main

import (
	"fmt"
	"math/rand"

	"overify/internal/pipeline"
)

// coldJob is one request for a verdict answered in-process from
// nothing: compile the source at a level, explore it with a fresh
// engine, render the outcome.
type coldJob struct {
	Prog      program
	Level     pipeline.Level
	Bytes     int // symbolic input bytes
	Portfolio int // solver portfolio width (0 = fixed-order search)
}

func (j coldJob) id() string {
	s := fmt.Sprintf("%s %s n=%d", j.Prog.Name, j.Level, j.Bytes)
	if j.Portfolio > 1 {
		s += fmt.Sprintf(" portfolio=%d", j.Portfolio)
	}
	return s
}

// budgets are the deterministic limits of a workload's jobs. No job
// ever sets a wall-clock Timeout: a limit that fires does so at the
// same instruction or assignment on every machine.
type budgets struct {
	MaxInstrs      int64
	MaxAssignments int64 // per job, all queries
	MaxWork        int64 // per solver query (0 = the solver's default)
}

var allLevels = []pipeline.Level{pipeline.O0, pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify}

// cell is a (program, level, bytes[, portfolio]) row of a hand-picked
// job list.
type cell struct {
	prog      string
	level     pipeline.Level
	bytes     int
	portfolio int
}

func cellsToJobs(cells []cell) []coldJob {
	jobs := make([]coldJob, len(cells))
	for i, c := range cells {
		jobs[i] = coldJob{Prog: corpusProgram(c.prog), Level: c.level, Bytes: c.bytes, Portfolio: c.portfolio}
	}
	return jobs
}

// shuffled returns jobs in the order the seed picks. The seed decides
// the order work arrives in (and the concrete inputs of the oracle),
// never which work is done: every seed runs the same cells, so two
// seeds' ledgers are comparable row by row.
func shuffled[T any](jobs []T, seed int64) []T {
	out := append([]T(nil), jobs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// corpusSweepJobs is the Figure 4 matrix: every corpus program and
// every trap program at all five levels. Corpus programs get 3
// symbolic bytes; a trap program gets the size its .expect asks for.
// The smoke scale keeps every eighth corpus program, two trap programs
// and two levels.
func corpusSweepJobs(smoke bool) ([]coldJob, error) {
	traps, err := trapPrograms()
	if err != nil {
		return nil, err
	}
	levels := allLevels
	corpus := corpusPrograms()
	if smoke {
		levels = []pipeline.Level{pipeline.O0, pipeline.OVerify}
		var keep []program
		for i, p := range corpus {
			// cksum and rot13rounds spend whole instruction budgets.
			if i%8 == 0 && p.Name != "cksum" && p.Name != "rot13rounds" {
				keep = append(keep, p)
			}
		}
		corpus, traps = keep, traps[:2]
	}
	var jobs []coldJob
	for _, p := range corpus {
		for _, l := range levels {
			jobs = append(jobs, coldJob{Prog: p, Level: l, Bytes: 3})
		}
	}
	for _, p := range traps {
		for _, l := range levels {
			jobs = append(jobs, coldJob{Prog: p, Level: l, Bytes: p.Bytes})
		}
	}
	return jobs, nil
}

var corpusSweepBudgets = budgets{MaxInstrs: 100_000, MaxAssignments: 1_000_000}

// deepPathsCells: path counts exponential in input size, solver groups
// trivial, no budget reached. Input sizes are set so one pass is about
// a second on the sizing box and ten passes give 210 samples.
var deepPathsCells = []cell{
	{"wc", pipeline.O0, 9, 0}, {"wc", pipeline.O3, 9, 0}, {"wc", pipeline.OVerify, 9, 0},
	{"wc-l", pipeline.O0, 9, 0},
	{"stat", pipeline.O0, 4, 0}, {"stat", pipeline.O3, 4, 0}, {"stat", pipeline.OVerify, 4, 0},
	{"strings", pipeline.O0, 5, 0}, {"strings", pipeline.O3, 5, 0},
	{"od-x", pipeline.O0, 6, 0}, {"od-x", pipeline.OVerify, 6, 0},
	{"numfmt", pipeline.O0, 6, 0}, {"numfmt", pipeline.OVerify, 6, 0},
	{"expand", pipeline.O0, 8, 0}, {"expand", pipeline.OVerify, 8, 0},
	{"nl", pipeline.O0, 8, 0}, {"nl", pipeline.OVerify, 8, 0},
	{"tac", pipeline.O0, 7, 0}, {"tac", pipeline.OVerify, 7, 0},
	{"rot13rounds", pipeline.O3, 3, 0}, {"rot13rounds", pipeline.OVerify, 3, 0},
}

var deepPathsSmokeCells = []cell{
	{"wc", pipeline.O0, 6, 0}, {"wc", pipeline.OVerify, 6, 0},
	{"stat", pipeline.O0, 3, 0}, {"strings", pipeline.O3, 4, 0},
	{"od-x", pipeline.OVerify, 4, 0}, {"tac", pipeline.O0, 5, 0},
}

var deepPathsBudgets = budgets{MaxInstrs: 20_000_000, MaxAssignments: 50_000_000}

// solverHardCells: a handful of paths, the time in backtracking
// search. Each query may try 500k assignments and each job 4M, so the
// tail and basename -OVERIFY cells end with a solver failure and count
// as undecided — decided_share < 1 here is a real target. The
// portfolio cells run the same search layer through the race.
var solverHardCells = []cell{
	{"basename", pipeline.OVerify, 4, 0}, {"basename", pipeline.O3, 4, 0},
	{"tail", pipeline.O0, 4, 0}, {"tail", pipeline.OVerify, 4, 0}, {"tail", pipeline.OVerify, 4, 4},
	{"basename", pipeline.OVerify, 3, 4}, {"basename", pipeline.O3, 3, 4},
	{"base32", pipeline.O0, 3, 0}, {"base32", pipeline.OVerify, 3, 0},
	{"factor", pipeline.OVerify, 4, 0},
	{"sort", pipeline.O3, 5, 0}, {"sort", pipeline.OVerify, 5, 0},
	{"dirname", pipeline.OVerify, 5, 0},
}

var solverHardSmokeCells = []cell{
	{"tail", pipeline.OVerify, 4, 0}, {"tail", pipeline.OVerify, 4, 4},
	{"basename", pipeline.O3, 3, 4}, {"base32", pipeline.OVerify, 3, 0},
	{"dirname", pipeline.OVerify, 5, 0},
}

var solverHardBudgets = budgets{MaxInstrs: 20_000_000, MaxAssignments: 4_000_000, MaxWork: 500_000}

// passesFor turns the -seconds budget into a pass count. It is the
// only place time enters run length, and it enters as a constant: a
// slower build runs the same passes for longer, it does not run fewer.
func passesFor(w workloadDef, seconds int, smoke bool) int {
	if smoke {
		return 1
	}
	n := (w.PassesPer10s*seconds + 5) / 10
	if n < 2 {
		n = 2 // one pass has no pass-to-pass spread to record
	}
	return n
}
