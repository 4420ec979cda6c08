package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"overify/internal/core"
	"overify/internal/daemon"
	"overify/internal/dist"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// cluster_split: one verification sharded by dist.Verify from a
// coordinator (this process) over two worker daemons on unix sockets.
// Every pass starts two fresh workers and runs each cell cold, then
// again warm (worker compile cache and solver cache filled by the cold
// run). The merged render, witnesses elided, must equal the serial
// render of the same job byte for byte.

const (
	clusterWorkers     = 2
	clusterMaxInstrs   = 20_000_000
	clusterSplitStates = 16 // dist's default of 8 per worker, written down
)

// clusterCells are wide-frontier programs: the split has states to
// ship. The basename cell runs the solver portfolio on the workers.
var clusterCells = []cell{
	{"stat", pipeline.O0, 4, 0}, {"strings", pipeline.O0, 5, 0}, {"wc", pipeline.O0, 8, 0},
	{"od-x", pipeline.OVerify, 5, 0}, {"uniq", pipeline.OVerify, 5, 0}, {"tr", pipeline.OVerify, 5, 0},
	{"basename", pipeline.O3, 3, 4},
}

var clusterSmokeCells = []cell{
	{"wc", pipeline.O0, 5, 0}, {"uniq", pipeline.OVerify, 4, 0}, {"basename", pipeline.O3, 3, 4},
}

type clusterWorker struct {
	srv    *daemon.Server
	done   chan error
	client *daemon.Client
}

type clusterWorkload struct {
	cfg  runConfig
	list []coldJob
	dir  string

	warm      []string  // warm-up pass renders, two per cell (cold, warm)
	refs      []string  // serial normalized render per cell
	serialMS  []float64 // serial wall per cell, the base of dist.overhead_ratio
	bad       []string
	compiled  []*core.Compiled
	tracedMS  []float64   // per cell: cluster wall summed over the traced passes' cold runs
	splitSent [2]int64    // split states and shards summed over the traced passes
	merged    symex.Stats // merged report counters summed over the traced passes
}

func newClusterWorkload(cfg runConfig) *clusterWorkload {
	cells := clusterCells
	if cfg.Smoke {
		cells = clusterSmokeCells
	}
	return &clusterWorkload{cfg: cfg, list: shuffled(cellsToJobs(cells), cfg.Seed)}
}

func (w *clusterWorkload) jobs() int { return 2 * len(w.list) }

func (w *clusterWorkload) setup() error {
	var err error
	if w.dir, err = scratchDir(w.cfg.WorkDir, "cluster-"); err != nil {
		return err
	}
	w.bad = make([]string, len(w.list))
	w.tracedMS = make([]float64, len(w.list))
	w.warm = nil
	for _, s := range w.pass(-1, nil) {
		if s.Failed != "" {
			return fmt.Errorf("%s: %s", s.Job, s.Failed)
		}
	}
	return nil
}

func (w *clusterWorkload) teardown() {
	removeAll(w.dir)
	w.dir = ""
}

// startWorkers brings up the pass's worker daemons, each with its own
// socket and no verdict store: a cluster shard must explore.
func (w *clusterWorkload) startWorkers() ([]clusterWorker, error) {
	dir, err := os.MkdirTemp(w.dir, "pass-")
	if err != nil {
		return nil, err
	}
	var ws []clusterWorker
	for i := 0; i < clusterWorkers; i++ {
		srv, done, addr, err := startDaemon(dir, fmt.Sprintf("w%d", i), daemon.Config{Name: fmt.Sprintf("worker-%d", i)})
		if err != nil {
			stopWorkers(ws)
			return nil, err
		}
		c, err := daemon.Dial(addr)
		if err != nil {
			srv.Shutdown()
			<-done
			stopWorkers(ws)
			return nil, err
		}
		ws = append(ws, clusterWorker{srv, done, c})
	}
	return ws, nil
}

func stopWorkers(ws []clusterWorker) {
	for _, wk := range ws {
		wk.client.Close()
		wk.srv.Shutdown()
		<-wk.done
	}
}

func (w *clusterWorkload) options(j coldJob) dist.Options {
	return dist.Options{
		Name: j.Prog.Name, Source: j.Prog.Src, Level: j.Level.String(),
		InputBytes: j.Bytes, SplitStates: clusterSplitStates,
		MaxInstrs: clusterMaxInstrs, Portfolio: j.Portfolio,
	}
}

func (w *clusterWorkload) pass(p int, tr *tracer) []sample {
	out := make([]sample, 0, 2*len(w.list))
	workers, err := w.startWorkers()
	if err != nil {
		for _, j := range w.list {
			for _, temp := range []string{"cold", "warm"} {
				out = append(out, sample{Job: j.id() + " " + temp, Failed: "start workers: " + err.Error()})
			}
		}
		return out
	}
	defer stopWorkers(workers)
	clients := make([]*daemon.Client, len(workers))
	for i, wk := range workers {
		clients[i] = wk.client
	}
	for i, j := range w.list {
		for k, temp := range []string{"cold", "warm"} {
			s := sample{Job: j.id() + " " + temp, Class: temp}
			id := tr.begin("dist.verify."+temp, p, i+1, 0)
			t0 := time.Now()
			res, err := dist.Verify(clients, w.options(j))
			var render string
			if err == nil {
				render = dist.NormalizedRender(res.Report)
			}
			s.MS = float64(time.Since(t0)) / 1e6
			if err != nil {
				tr.end(id)
				s.Failed = err.Error()
				out = append(out, s)
				continue
			}
			tr.end(id, kv{"split_states", int64(res.SplitStates)}, kv{"shards_sent", int64(res.ShardsSent)},
				kv{"paths", res.Report.Stats.TotalPaths()}, kv{"instrs", res.Report.Stats.Instrs})
			s.Decided = decided(res.Report)
			s.Work = workUnits(&res.Report.Stats)
			switch {
			case p < 0:
				w.warm = append(w.warm, render)
			case render != w.refs[i]:
				s.Failed = "merged render differs from the serial render"
			default:
				s.Failed = w.bad[i]
			}
			if tr != nil {
				if k == 0 {
					w.tracedMS[i] += s.MS
				}
				w.splitSent[0] += int64(res.SplitStates)
				w.splitSent[1] += int64(res.ShardsSent)
				st := &res.Report.Stats
				w.merged.Paths += st.TotalPaths()
				w.merged.Forks += st.Forks
				w.merged.Instrs += st.Instrs
				w.merged.StatesExplored += st.StatesExplored
				w.merged.SolverStats.Add(st.SolverStats)
			}
			out = append(out, s)
		}
	}
	return out
}

// check runs every cell serially in-process with the solver held equal
// (same portfolio) and holds the warm-up pass's merged renders, and
// the known answer, against it.
func (w *clusterWorkload) check() []string {
	var failures []string
	w.refs = make([]string, len(w.list))
	w.serialMS = make([]float64, len(w.list))
	w.compiled = make([]*core.Compiled, len(w.list))
	for i, j := range w.list {
		fail := func(msg string) {
			if w.bad[i] == "" {
				w.bad[i] = msg
			}
			failures = append(failures, j.id()+": "+msg)
		}
		t0 := time.Now()
		res, err := runCold(j, budgets{MaxInstrs: clusterMaxInstrs})
		w.serialMS[i] = float64(time.Since(t0)) / 1e6
		if err != nil {
			fail("serial reference: " + err.Error())
			continue
		}
		w.compiled[i] = res.c
		w.refs[i] = dist.NormalizedRender(res.rep)
		for _, m := range checkBugs(j.Prog, res.rep.Bugs) {
			fail(m)
		}
		for k, temp := range []string{"cold", "warm"} {
			if w.warm[2*i+k] != w.refs[i] {
				fail(temp + " merged render differs from the serial render")
			}
		}
	}
	return failures
}

// layers sums the traced spans and walks each cell through the calls
// dist.Verify and a worker make between them — split, encode, decode,
// drain, merge — in this process, timing each.
func (w *clusterWorkload) layers(tr *tracer, tracedPasses int, out map[string]float64) {
	r := tr.rollups()
	out["dist.verify_ms"] = wallMS(r, "dist.verify.cold") + wallMS(r, "dist.verify.warm")
	out["dist.split_states"] = float64(w.splitSent[0])
	out["dist.shards_sent"] = float64(w.splitSent[1])
	out["dist.overhead_ratio"] = ratio(sum(w.tracedMS), sum(w.serialMS)*float64(tracedPasses))

	var split, enc, dec, merge time.Duration
	var stateBytes, shardBytes int
	for i, j := range w.list {
		c := w.compiled[i]
		if c == nil {
			continue
		}
		opts := verifyOptions(j, budgets{MaxInstrs: clusterMaxInstrs}).Engine
		eng := symex.NewEngine(c.Mod, opts)
		args := entryArgs(eng, j.Bytes)
		t0 := time.Now()
		states, err := eng.Split("umain", args, nil, clusterSplitStates)
		split += time.Since(t0)
		if err != nil || len(states) == 0 {
			continue
		}
		t0 = time.Now()
		frame, err := eng.EncodeStates(states)
		enc += time.Since(t0)
		if err != nil {
			continue
		}
		stateBytes += len(frame)
		// What dist.Verify puts on the wire: one request per worker,
		// source text and base64 frame included.
		for wk := 0; wk < clusterWorkers; wk++ {
			var shard []*symex.State
			for s := wk; s < len(states); s += clusterWorkers {
				shard = append(shard, states[s])
			}
			if data, err := eng.EncodeStates(shard); err == nil && len(shard) > 0 {
				o := w.options(j)
				req, _ := json.Marshal(&daemon.DistExploreRequest{
					Name: o.Name, Source: o.Source, Level: o.Level, MaxInstrs: o.MaxInstrs,
					Portfolio: o.Portfolio, States: data,
				})
				shardBytes += len(req)
			}
		}
		remote := symex.NewEngine(c.Mod, opts)
		t0 = time.Now()
		decoded, err := remote.DecodeStates(frame)
		dec += time.Since(t0)
		if err != nil {
			continue
		}
		rep := remote.RunStates(decoded)
		t0 = time.Now()
		symex.MergeReports(eng.PartialReport(), rep)
		merge += time.Since(t0)
	}
	out["symex.split_ms"] = float64(split) / 1e6
	out["symex.encode_ms"] = float64(enc) / 1e6
	out["symex.decode_ms"] = float64(dec) / 1e6
	out["symex.merge_ms"] = float64(merge) / 1e6
	out["symex.state_bytes"] = float64(stateBytes)
	out["dist.shard_bytes"] = float64(shardBytes)
	out["symex.paths"] = float64(w.merged.Paths)
	out["symex.forks"] = float64(w.merged.Forks)
	out["symex.instrs"] = float64(w.merged.Instrs)
	out["symex.states_explored"] = float64(w.merged.StatesExplored)
	solverLayers(w.merged.SolverStats, out)
}
