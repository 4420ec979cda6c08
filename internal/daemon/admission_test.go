package daemon

import (
	"net"
	"runtime"
	"testing"
	"time"
)

// pipeClient attaches one more in-memory client connection to an
// existing server (pipeServer creates the server and its first
// client; fairness tests need several connections to one server).
func pipeClient(t *testing.T, s *Server) (*Server, *Client) {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(serverEnd)
	}()
	c, err := NewClient(clientEnd, clientEnd)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return s, c
}

// waitUntil polls cond to sequence concurrent admission scenarios
// deterministically.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionPerClientFairness is the regression test for the old
// single-FIFO admission: with one job slot, client A pipelines four
// requests and client B sends one. Under FIFO, B waited behind all of
// A's queue; under round-robin dispatch B's request is granted on the
// second slot release, interleaving A A B A A.
func TestAdmissionPerClientFairness(t *testing.T) {
	gate := make(chan struct{})
	s := NewServer(Config{MaxJobs: 1, queueWait: time.Minute})
	s.testJobGate = func() { <-gate }

	_, a := pipeClient(t, s)
	_, b := pipeClient(t, s)

	done := make(chan string, 8)
	send := func(c *Client, label string) {
		go func() {
			if _, err := c.Verify(&VerifyRequest{Prog: "echo", InputBytes: 2}); err != nil {
				t.Errorf("%s verify: %v", label, err)
			}
			done <- label
		}()
	}

	// A's first request takes the slot and parks on the gate.
	send(a, "A")
	waitUntil(t, "first job to hold the slot", func() bool { return s.active.Load() == 1 })
	// Three more from A queue up behind it...
	send(a, "A")
	send(a, "A")
	send(a, "A")
	waitUntil(t, "A's pipeline to queue", func() bool { return s.adm.totalQueued() == 3 })
	// ...then B's single request arrives.
	send(b, "B")
	waitUntil(t, "B to queue", func() bool { return s.adm.totalQueued() == 4 })

	// Release jobs one at a time; each gate token frees exactly one
	// granted job, and its completion releases the slot to the next
	// connection in rotation.
	var order []string
	for i := 0; i < 5; i++ {
		gate <- struct{}{}
		order = append(order, <-done)
	}
	want := []string{"A", "A", "B", "A", "A"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v (B starved by A's pipeline)", order, want)
		}
	}
}

// TestAdmissionTimeoutUnderRoundRobin pins the overload path: with the
// slot held and queueWait tiny, a queued request is rejected as
// overloaded and its waiter is removed from the rotation.
func TestAdmissionTimeoutUnderRoundRobin(t *testing.T) {
	gate := make(chan struct{})
	s := NewServer(Config{MaxJobs: 1, queueWait: 30 * time.Millisecond})
	s.testJobGate = func() { <-gate }

	_, a := pipeClient(t, s)

	done := make(chan error, 2)
	go func() {
		_, err := a.Verify(&VerifyRequest{Prog: "echo", InputBytes: 2})
		done <- err
	}()
	waitUntil(t, "first job to hold the slot", func() bool { return s.active.Load() == 1 })

	// This one queues and must time out while the slot is held.
	if _, err := a.Verify(&VerifyRequest{Prog: "echo", InputBytes: 2}); err == nil {
		t.Fatalf("queued request succeeded despite a held slot and expired queueWait")
	} else if _, ok := err.(*OverloadedError); !ok {
		t.Fatalf("queued request failed with %v, want OverloadedError", err)
	}
	if s.adm.totalQueued() != 0 {
		t.Fatalf("abandoned waiter still queued: %d", s.adm.totalQueued())
	}

	gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("slot-holding request failed: %v", err)
	}
}

// TestNegativeMaxJobsIsOnePerCPU: a negative MaxJobs used to pass
// through as the slot count, and a daemon with -1 slots rejected every
// request as overloaded. It sizes the daemon to the machine, as zero
// does.
func TestNegativeMaxJobsIsOnePerCPU(t *testing.T) {
	s := NewServer(Config{MaxJobs: -1, queueWait: 50 * time.Millisecond})
	if got := s.statsReply().Jobs.MaxJobs; got != runtime.NumCPU() {
		t.Errorf("MaxJobs -1 reads %d job slots, want one per CPU (%d)", got, runtime.NumCPU())
	}
	_, c := pipeClient(t, s)
	if _, err := c.Verify(&VerifyRequest{Prog: "true", InputBytes: 2}); err != nil {
		t.Fatalf("MaxJobs -1: %v", err)
	}
}
