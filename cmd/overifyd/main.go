// Command overifyd is the long-lived verification server: it keeps the
// expensive state — the hash-consed expression DAG, the striped solver
// query cache, compiled modules, and the content-addressed verdict
// store — warm in one process and serves verify/compile/explain
// requests over a unix socket or stdio. A warm repeat verify of
// unchanged content is answered from the verdict store without
// exploring at all; changed content still reuses the shared solver
// cache and compiled modules.
//
// Usage:
//
//	overifyd -listen /tmp/overifyd.sock [-verdict-cache DIR [-verdict-cap N]] [-max-jobs N]
//	overifyd -listen /tmp/overifyd.sock -preload 'src/*.c'
//	overifyd -stdio
//
// -preload compiles every source matching the glob into the module
// cache (and probes the verdict store for each) before the daemon
// accepts its first connection, so first requests start warm.
//
// Clients: `symbex -daemon /tmp/overifyd.sock file.c`, a cluster
// coordinator (`symbex -cluster /tmp/w1.sock,/tmp/w2.sock`) using
// daemons as its workers, or any speaker of the length-prefixed JSON
// packet protocol in internal/daemon.
// SIGINT/SIGTERM drain gracefully: in-flight jobs finish, new work is
// rejected as overloaded, then the process exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"overify/internal/daemon"
	"overify/internal/verdicts"
)

func main() {
	listen := flag.String("listen", "", "unix socket path to serve on")
	stdio := flag.Bool("stdio", false, "serve a single connection on stdin/stdout (esbuild-style service mode)")
	name := flag.String("name", "overifyd", "daemon name reported in handshakes and stats")
	verdictDir := flag.String("verdict-cache", "", "content-addressed verdict store directory (empty = no verdict caching)")
	verdictCap := flag.Int("verdict-cap", 0, "max verdict store entries, the least recently used evicted first (0 = unbounded; negative is refused)")
	maxJobs := flag.Int("max-jobs", 0, "max concurrent verify/compile jobs (0 = one per CPU); a request waits up to 30s for a slot before an overloaded rejection")
	compileCap := flag.Int("compile-cache-cap", 0, "max cached compiled modules (0 = default 64, negative = unbounded); the cache remembers up to 16x as many sources' verdict keys with their verdict entries, so a repeat reads no store file, and a new module displaces a resident one only if its source has been requested at least as often")
	preload := flag.String("preload", "", "glob of MiniC sources to compile into the module cache before accepting connections")
	flag.Parse()

	if (*listen == "") == !*stdio {
		fmt.Fprintln(os.Stderr, "overifyd: exactly one of -listen or -stdio is required")
		os.Exit(2)
	}
	if *maxJobs < 0 {
		fmt.Fprintf(os.Stderr, "overifyd: -max-jobs %d: want 0 (one per CPU) or more\n", *maxJobs)
		os.Exit(2)
	}
	if *verdictCap < 0 {
		fmt.Fprintf(os.Stderr, "overifyd: -verdict-cap %d: want 0 (unbounded) or more\n", *verdictCap)
		os.Exit(2)
	}

	cfg := daemon.Config{
		Name:            *name,
		MaxJobs:         *maxJobs,
		CompileCacheCap: *compileCap,
	}
	if *verdictDir != "" {
		store, err := verdicts.OpenLimited(*verdictDir, *verdictCap)
		if err != nil {
			fatal(err)
		}
		cfg.Verdicts = store
	}
	s := daemon.NewServer(cfg)

	if *preload != "" {
		n, err := s.Preload(*preload)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "overifyd: preloaded %d module(s) matching %s\n", n, *preload)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *stdio {
		// One connection on stdin/stdout; diagnostics go to stderr. The
		// server side sees EOF when the parent closes our stdin.
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.ServeConn(stdioConn{})
		}()
		select {
		case <-done:
		case got := <-sig:
			fmt.Fprintf(os.Stderr, "overifyd: %s — draining\n", got)
			s.Shutdown()
		}
		return
	}

	// A stale socket from a crashed daemon would fail the bind; remove
	// it only if nothing answers there.
	if _, err := os.Stat(*listen); err == nil {
		if c, err := net.Dial("unix", *listen); err == nil {
			c.Close()
			fatal(fmt.Errorf("%s: a daemon is already listening", *listen))
		}
		os.Remove(*listen)
	}
	l, err := net.Listen("unix", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "overifyd: serving on %s (max %d jobs)\n", *listen, serverMaxJobs(*maxJobs))

	go func() {
		got := <-sig
		fmt.Fprintf(os.Stderr, "overifyd: %s — draining\n", got)
		s.Shutdown()
		os.Remove(*listen)
	}()
	if err := s.Serve(l); err != nil {
		fatal(err)
	}
}

// serverMaxJobs mirrors the daemon's MaxJobs default for the banner.
func serverMaxJobs(flagVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	return runtime.NumCPU()
}

// stdioConn adapts stdin/stdout to the ServeConn contract.
type stdioConn struct{}

func (stdioConn) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdioConn) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "overifyd:", err)
	os.Exit(1)
}
