// Package dist is the distributed-frontier coordinator: it splits one
// verification's exploration into frontier shards, ships each shard to
// a worker daemon over the packet protocol (KindDistExplore), and
// merges the workers' schedule-invariant outcomes into a single report
// that matches what a serial run of the same program would produce.
//
// The division of labor mirrors the in-process worker pool, one level
// up: Engine.Split drives a breadth-first prefix of the exploration
// until the frontier is wide enough, the state codec serializes the
// pending states, and each worker drains its shard to exhaustion with
// its own engine (and, optionally, its own solver portfolio). Because
// every branch decision still happens exactly once in exactly one
// process, the merged counters — paths, instructions, solver verdicts,
// covered-block union, bug identities — are invariant under the
// sharding, which is the conformance property the tests and the CI
// distributed-smoke job pin.
package dist

import (
	"fmt"
	"sort"
	"sync"

	"overify/internal/core"
	"overify/internal/daemon"
	"overify/internal/symex"
	"overify/internal/verdicts"
)

// Options is the job to distribute. The coordinator forwards its
// compile identity fields to every worker verbatim — the state codec
// names IR by position, so coordinator and workers must compile the
// exact same module, which resolving the same fields guarantees.
type Options = core.Job

// Result is one distributed verification's outcome plus cluster-shape
// provenance.
type Result struct {
	Report  *symex.Report
	Covered []string // sorted covered-block union ("fn/block")

	SplitStates int // frontier states shipped
	ShardsSent  int // DistExplore requests issued (empty shards skipped)
	Cluster     int // workers offered shards
}

// shardRequest is what a worker is sent: the job's compile identity
// and engine fields with the program resolved to source text (a worker
// need not bundle the same corpus), plus one encoded frontier shard.
func shardRequest(o Options, r *core.Resolved, states []byte) *daemon.DistExploreRequest {
	return &daemon.DistExploreRequest{
		Name: r.Name, Source: r.Source,
		Level: o.Level, Passes: o.Passes,
		Slice: o.Slice, Checks: o.Checks, Entry: o.Entry,
		Workers:   o.Workers,
		TimeoutMS: o.TimeoutMS, MaxInstrs: o.MaxInstrs,
		Portfolio: o.Portfolio,
		States:    states,
	}
}

// Verify runs one distributed verification across the given worker
// clients. At least one client is required; the coordinator itself
// only drives the split prefix and the merge.
func Verify(clients []*daemon.Client, o Options) (*Result, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("dist: no worker clients")
	}
	r, err := o.Resolve()
	if err != nil {
		return nil, err
	}
	want := o.SplitStates
	if want <= 0 {
		want = 8 * len(clients)
	}

	c, err := r.Compile()
	if err != nil {
		return nil, err
	}
	eng := symex.NewEngine(c.Mod, r.Verify.Engine)
	states, err := eng.Split(r.Entry, eng.InputArgs(r.Verify.InputBytes), nil, want)
	if err != nil {
		return nil, err
	}

	// Deterministic round-robin sharding: state i goes to worker
	// i mod len(clients). The merge is order-invariant, so which worker
	// gets which shard never shows in the outcome.
	shards := make([][]*symex.State, len(clients))
	for i, st := range states {
		w := i % len(clients)
		shards[w] = append(shards[w], st)
	}

	covered := make(map[string]bool)
	for _, bn := range eng.CoveredBlockNames() {
		covered[bn] = true
	}
	reports := []*symex.Report{eng.PartialReport()}

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		sent    int
		farmErr error
	)
	for w, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		data, err := eng.EncodeStates(shard)
		if err != nil {
			return nil, fmt.Errorf("dist: encode shard for worker %d: %w", w, err)
		}
		sent++
		req := shardRequest(o, r, data)
		wg.Add(1)
		go func(w int, nStates int, req *daemon.DistExploreRequest) {
			defer wg.Done()
			reply, err := clients[w].DistExplore(req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if farmErr == nil {
					farmErr = fmt.Errorf("dist: worker %d: %w", w, err)
				}
				return
			}
			if reply.NStates != nStates {
				if farmErr == nil {
					farmErr = fmt.Errorf("dist: worker %d decoded %d states, sent %d", w, reply.NStates, nStates)
				}
				return
			}
			reports = append(reports, &symex.Report{Stats: reply.Stats, Bugs: reply.Bugs})
			for _, bn := range reply.Covered {
				covered[bn] = true
			}
		}(w, len(shard), req)
	}
	wg.Wait()
	if farmErr != nil {
		return nil, farmErr
	}

	merged := symex.MergeReports(reports...)
	merged.Stats.CoveredBlocks = len(covered)
	names := make([]string, 0, len(covered))
	for bn := range covered {
		names = append(names, bn)
	}
	sort.Strings(names)
	return &Result{
		Report:      merged,
		Covered:     names,
		SplitStates: len(states),
		ShardsSent:  sent,
		Cluster:     len(clients),
	}, nil
}

// NormalizedRender is the conformance rendering: verdicts.Render with
// the reproducing input bytes elided. Bug *identities* (kind, message,
// site) and every counter are schedule-invariant, but which concrete
// model witnesses a bug depends on solver history, which differs
// across schedules and cluster shapes — any model reproduces, so the
// normalized form drops only the witness, nothing the verdict states.
func NormalizedRender(rep *symex.Report) string {
	cp := &symex.Report{Stats: rep.Stats}
	for _, b := range rep.Bugs {
		cp.Bugs = append(cp.Bugs, symex.Bug{Kind: b.Kind, Msg: b.Msg, Where: b.Where})
	}
	return verdicts.Render(cp)
}
