package dist_test

import (
	"fmt"
	"net"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/daemon"
	"overify/internal/dist"
	"overify/internal/pipeline"
)

// cluster starts n in-process worker daemons over in-memory pipes and
// returns handshaken clients. Each worker is a full Server with its
// own warm state — separate builders, caches, and compile caches —
// exactly the isolation real worker processes would have.
func cluster(t *testing.T, n int) []*daemon.Client {
	t.Helper()
	clients := make([]*daemon.Client, n)
	for i := range clients {
		s := daemon.NewServer(daemon.Config{Name: fmt.Sprintf("worker-%d", i)})
		clientEnd, serverEnd := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.ServeConn(serverEnd)
		}()
		c, err := daemon.NewClient(clientEnd, clientEnd)
		if err != nil {
			t.Fatalf("worker %d handshake: %v", i, err)
		}
		t.Cleanup(func() {
			c.Close()
			<-done
		})
		clients[i] = c
	}
	return clients
}

// serialRender is the baseline: one process, one engine, normalized
// rendering.
func serialRender(t *testing.T, prog string, level pipeline.Level, n int) string {
	t.Helper()
	p, ok := coreutils.Get(prog)
	if !ok {
		t.Fatalf("unknown corpus program %q", prog)
	}
	c, err := core.CompileProgram(p, level)
	if err != nil {
		t.Fatalf("compile %s at %s: %v", prog, level, err)
	}
	rep, err := c.Verify("umain", core.VerifyOptions{InputBytes: n})
	if err != nil {
		t.Fatalf("verify %s: %v", prog, err)
	}
	return dist.NormalizedRender(rep)
}

// TestClusterMatchesSerialEveryLevel is the conformance gate: for
// corpus programs at every optimization level, the normalized verdict
// of a 1-coordinator + 2-worker cluster is byte-identical to the
// serial baseline.
func TestClusterMatchesSerialEveryLevel(t *testing.T) {
	clients := cluster(t, 2)
	levels := []pipeline.Level{pipeline.O0, pipeline.O1, pipeline.O2, pipeline.O3, pipeline.OVerify}
	progs := []string{"wc", "tr"}
	if testing.Short() {
		levels = []pipeline.Level{pipeline.O0, pipeline.OVerify}
	}
	for _, prog := range progs {
		for _, level := range levels {
			label := fmt.Sprintf("%s@%s", prog, level)
			serial := serialRender(t, prog, level, 3)
			res, err := dist.Verify(clients, dist.Options{
				Prog: prog, Level: level.String(), InputBytes: 3, SplitStates: 8,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := dist.NormalizedRender(res.Report); got != serial {
				t.Errorf("%s: cluster verdict diverged from serial\nserial:\n%s\ncluster:\n%s", label, serial, got)
			}
			if res.Report.Stats.CoveredBlocks != len(res.Covered) {
				t.Errorf("%s: covered count %d != union size %d", label, res.Report.Stats.CoveredBlocks, len(res.Covered))
			}
		}
	}
}

// TestClusterShapeInvariance pins that the verdict does not depend on
// the cluster size: 1, 2, and 4 workers all render identically.
func TestClusterShapeInvariance(t *testing.T) {
	renders := make(map[int]string)
	for _, n := range []int{1, 2, 4} {
		clients := cluster(t, n)
		res, err := dist.Verify(clients, dist.Options{
			Prog: "uniq", Level: "-OVERIFY", InputBytes: 3, SplitStates: 4 * n,
		})
		if err != nil {
			t.Fatalf("cluster of %d: %v", n, err)
		}
		renders[n] = dist.NormalizedRender(res.Report)
	}
	if renders[1] != renders[2] || renders[2] != renders[4] {
		t.Errorf("verdict depends on cluster size:\n1: %s\n2: %s\n4: %s", renders[1], renders[2], renders[4])
	}
	serial := serialRender(t, "uniq", pipeline.OVerify, 3)
	if renders[1] != serial {
		t.Errorf("cluster verdict diverged from serial:\nserial:\n%s\ncluster:\n%s", serial, renders[1])
	}
}
