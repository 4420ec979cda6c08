// Package daemon implements overifyd, the long-lived verification
// server: a length-prefixed JSON packet protocol (esbuild's service
// mode is the exemplar shape) served over stdio or a unix socket, with
// one warm set of caches — the hash-consed expression DAG, the striped
// solver query cache, compiled modules, and the content-addressed
// verdict store — shared across every request the process ever serves.
//
// Protocol. Each packet is a 4-byte little-endian payload length
// followed by that many bytes of JSON encoding a Packet. The first
// packet on a connection must be a "hello" carrying the client's
// protocol version; the server answers with its own hello or an error
// (version mismatch closes the connection — nothing after a failed
// handshake is trusted to parse). After the handshake, requests
// ("verify", "compile", "stats") may be pipelined and are answered
// concurrently; replies carry the request's id, so arrival order is
// unspecified. A packet that fails to decode is answered with an
// "error" packet (id 0 when the id itself was unreadable) and the
// connection keeps serving — a bad client request must never take the
// daemon down.
package daemon

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"overify/internal/core"
	"overify/internal/lru"
	"overify/internal/symex"
	"overify/internal/verdicts"
)

// ProtocolVersion gates the handshake: client and server must agree
// exactly. Bump on any wire-visible change.
//
// Version history:
//
//	1: initial protocol (verify/compile/stats).
//	2: VerifyRequest gains slice/checks, VerifyReply gains tapeReuses.
//	3: distExplore frames for the distributed frontier, and two frames
//	   for a shared verdict cache service.
//	4: requests lose seed, VerifyReply loses tapeReuses.
//	5: verify and distExplore lose search and cover, engine stats lose
//	   strategy.
//	6: VerifyReply gains verdict, why and assignments.
//	7: the verdict cache service's two frames are gone; distExplore
//	   gains entry.
//	8: verify and distExplore lose portfolioStall; the stats reply's
//	   solverCache loses evictions and capacity.
//	9: no frame changes, but -OVERIFY compiles another module (one
//	   branch-removal fixpoint), so a distExplore state frame from a v8
//	   peer names values a v9 module does not have, and back.
//	10: distExplore gains module, the coordinator's module key, which
//	   the worker checks against its own compile.
//	11: the stats reply's three cache objects share one shape: each
//	   gains bytes, and solverCache gains evictions; in a distExplore
//	   reply's stats, SharedCache takes that shape (lower-case keys).
//	12: verify and distExplore lose workers, and engine stats lose
//	   Workers: an engine explores on one goroutine. A distExplore state
//	   frame (state codec v2) drops each frame's predecessor block.
const ProtocolVersion = 12

// MaxPacket bounds a single packet's payload (16 MiB): large enough
// for any source file plus headroom, small enough that a corrupt
// length prefix cannot make the reader allocate unboundedly.
const MaxPacket = 16 << 20

// Packet kinds.
const (
	KindHello   = "hello"   // handshake (both directions)
	KindVerify  = "verify"  // client request: compile + symbolically verify
	KindCompile = "compile" // client request: compile only, report pipeline stats
	KindStats   = "stats"   // client request: daemon-wide cache/job counters
	KindReply   = "reply"   // server response carrying a request-specific body
	KindError   = "error"   // server response: request failed (body: ErrorBody)

	// Distributed-frontier frames (protocol 3). A coordinator splits an
	// exploration into frontier shards, encodes each shard with the
	// symex state codec, and offers the shards to worker daemons as
	// distExplore requests; workers drain their shard to exhaustion and
	// reply with schedule-invariant counters plus the bugs and covered
	// blocks they saw.
	KindDistExplore = "distExplore" // client request: drain an encoded frontier shard
)

// Packet is the wire unit. Body holds the kind-specific payload,
// decoded by the handler (requests) or the awaiting caller (replies).
type Packet struct {
	ID   uint32          `json:"id"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Hello is the handshake body, both directions. The server's reply
// also names the daemon so clients can log what they connected to.
type Hello struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
}

// ErrorBody is the payload of a KindError reply.
type ErrorBody struct {
	Message string `json:"message"`
	// Overloaded marks admission-control rejections (queue deadline
	// exceeded or daemon draining): the request was well-formed and may
	// be retried, unlike a protocol or verification error.
	Overloaded bool `json:"overloaded,omitempty"`
}

// VerifyRequest asks the daemon to compile and symbolically verify one
// program: the verify body is a core.Job, field for field.
type VerifyRequest = core.Job

// BugReport is one merged bug in a VerifyReply.
type BugReport struct {
	Kind  string `json:"kind"`
	Msg   string `json:"msg"`
	Where string `json:"where"`
	Input []byte `json:"input,omitempty"`
}

// VerifyReply is the verify response. Render is the canonical
// schedule-invariant byte rendering of the outcome (verdicts.Render):
// two replies for identical content must carry byte-identical Renders,
// no matter which caches served them — that is the conformance claim
// the daemon tests pin. Verdict and Why are the report's
// (symex.Report.Verdict): "verified", "bugs" or "inconclusive", and
// why an inconclusive run is one. Everything else is advisory
// (timings, cache provenance, work done) and may differ between runs.
type VerifyReply struct {
	Render  string   `json:"render"`
	Verdict string   `json:"verdict"`
	Why     []string `json:"why,omitempty"`

	Name     string      `json:"name"`
	Level    string      `json:"level"`
	Entry    string      `json:"entry"`
	Bugs     []BugReport `json:"bugs,omitempty"`
	Paths    int64       `json:"paths"`
	Instrs   int64       `json:"instrs"`
	TimedOut bool        `json:"timedOut,omitempty"`

	// Cache provenance for this request.
	VerdictCacheHit bool  `json:"verdictCacheHit,omitempty"`
	CompileCacheHit bool  `json:"compileCacheHit,omitempty"`
	SolverQueries   int64 `json:"solverQueries"`
	SolverWarmHits  int64 `json:"solverWarmHits"` // cache + partition + model-reuse hits (group-level; can exceed queries)
	SolverSearches  int64 `json:"solverSearches"` // fresh searches actually run; queries - searches were answered warm
	Assignments     int64 `json:"assignments"`    // candidate values the solver tried (0 when the verdict store answered)
	Generation      int64 `json:"generation"`     // builder/cache generation that served the run

	CompileMS float64 `json:"compileMs"`
	VerifyMS  float64 `json:"verifyMs"`
}

// DistExploreRequest ships one frontier shard to a worker daemon. The
// compile identity fields (source/prog, level, passes, slice, checks,
// and the entry, which decides what a slice keeps) must match the
// coordinator's compile exactly — the state codec names functions,
// blocks, and instructions by position, so a divergent module would
// decode garbage or, worse, run to wrong counters. Module is the
// coordinator's core.Compiled.ModuleKey, and a worker whose own
// compile has another key refuses the shard. States is the symex
// state-codec frame produced by Engine.EncodeStates; JSON transports
// it as base64.
type DistExploreRequest struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
	Prog   string `json:"prog,omitempty"`
	Level  string `json:"level,omitempty"`
	Passes string `json:"passes,omitempty"`
	Slice  bool   `json:"slice,omitempty"`
	Checks string `json:"checks,omitempty"`
	Entry  string `json:"entry,omitempty"`

	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	MaxInstrs int64 `json:"maxInstrs,omitempty"`

	// Portfolio configures the solver portfolio for this shard (0 =
	// fixed-order solving).
	Portfolio int `json:"portfolio,omitempty"`

	Module string `json:"module"` // the coordinator's module key
	States []byte `json:"states"` // Engine.EncodeStates frame
}

// NewDistExploreRequest is the request that ships states, a frontier
// shard of job, to a worker. It carries every field of job a worker
// reads; InputBytes (the states hold the input), NoVerdicts (a shard
// is never a verdict) and SplitStates (the coordinator's alone) stay
// behind. The caller sets Module.
func NewDistExploreRequest(job core.Job, states []byte) *DistExploreRequest {
	return &DistExploreRequest{
		Name: job.Name, Source: job.Source, Prog: job.Prog,
		Level: job.Level, Passes: job.Passes, Slice: job.Slice, Checks: job.Checks,
		Entry:     job.Entry,
		TimeoutMS: job.TimeoutMS, MaxInstrs: job.MaxInstrs,
		Portfolio: job.Portfolio,
		States:    states,
	}
}

// Job is the verification job this shard belongs to, resolved by the
// worker exactly as the coordinator resolved its own.
func (r *DistExploreRequest) Job() core.Job {
	return core.Job{
		Name: r.Name, Source: r.Source, Prog: r.Prog,
		Level: r.Level, Passes: r.Passes, Slice: r.Slice, Checks: r.Checks,
		Entry:     r.Entry,
		TimeoutMS: r.TimeoutMS, MaxInstrs: r.MaxInstrs,
		Portfolio: r.Portfolio,
	}
}

// DistExploreReply reports one drained shard. Stats and Bugs are the
// engine's native types so the coordinator's MergeReports sees exactly
// what a local worker would have contributed; Covered carries the
// shard's covered-block names ("fn/block") because block *counts*
// cannot be summed across processes — the coordinator unions names.
type DistExploreReply struct {
	Stats   symex.Stats `json:"stats"`
	Bugs    []symex.Bug `json:"bugs,omitempty"`
	Covered []string    `json:"covered,omitempty"`

	NStates         int     `json:"nStates"` // states decoded from the frame
	Generation      int64   `json:"generation"`
	CompileCacheHit bool    `json:"compileCacheHit,omitempty"`
	ExploreMS       float64 `json:"exploreMs"`
}

// CompileRequest asks the daemon to compile only. Same source/prog
// convention as VerifyRequest.
type CompileRequest struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
	Prog   string `json:"prog,omitempty"`
	Level  string `json:"level,omitempty"`
	Passes string `json:"passes,omitempty"`
	// IR requests the optimized module listing in the reply (the
	// "explain what the pipeline did" mode).
	IR bool `json:"ir,omitempty"`
}

// NewCompileRequest is the request that compiles job's program at its
// level and pass list. It carries nothing of the engine's and nothing
// of slicing: a compile request compiles unsliced.
func NewCompileRequest(job core.Job, ir bool) *CompileRequest {
	return &CompileRequest{
		Name: job.Name, Source: job.Source, Prog: job.Prog,
		Level: job.Level, Passes: job.Passes,
		IR: ir,
	}
}

// Job is the request's compile identity as a job.
func (r *CompileRequest) Job() core.Job {
	return core.Job{Name: r.Name, Source: r.Source, Prog: r.Prog, Level: r.Level, Passes: r.Passes}
}

// CompileReply reports one compile.
type CompileReply struct {
	Name            string  `json:"name"`
	Level           string  `json:"level"`
	CompileMS       float64 `json:"compileMs"`
	PassInvocations int64   `json:"passInvocations"`
	SkippedRuns     int64   `json:"skippedRuns"`
	AnalysisHitRate float64 `json:"analysisHitRate"`
	CompileCacheHit bool    `json:"compileCacheHit,omitempty"`
	IR              string  `json:"ir,omitempty"`
}

// StatsReply is the daemon-wide counter snapshot.
type StatsReply struct {
	Name       string `json:"name"`
	Generation int64  `json:"generation"`

	Jobs struct {
		Active   int64 `json:"active"`
		Served   int64 `json:"served"`
		Rejected int64 `json:"rejected"`
		MaxJobs  int   `json:"maxJobs"`
	} `json:"jobs"`

	Builder struct {
		Nodes    int64 `json:"nodes"`
		Hits     int64 `json:"hits"`
		Cap      int64 `json:"cap"`
		Rotation int64 `json:"rotations"`
	} `json:"builder"`

	// The three caches report the one lru.Stats shape, flattened into
	// each object. The solver cache never evicts; the verdict store and
	// the compile cache charge no bytes.
	SolverCache lru.Stats `json:"solverCache"`

	Verdicts struct {
		Dir string `json:"dir"`
		verdicts.Stats
	} `json:"verdicts"`

	Compiles struct {
		lru.Stats
		Capacity int `json:"capacity"`
	} `json:"compiles"`
}

// WritePacket frames and writes one packet. Callers sharing a writer
// must serialize calls (the server holds a per-connection write lock).
func WritePacket(w io.Writer, p *Packet) error {
	payload, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("daemon: encode packet: %w", err)
	}
	if len(payload) > MaxPacket {
		return fmt.Errorf("daemon: packet of %d bytes exceeds the %d-byte bound", len(payload), MaxPacket)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadPacket reads one length-prefixed packet. An oversized or
// negative length is a framing error: the stream cannot be resynced
// and the connection should be closed.
func ReadPacket(r io.Reader) (*Packet, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxPacket {
		return nil, fmt.Errorf("daemon: framing: %d-byte packet exceeds the %d-byte bound", n, MaxPacket)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	var p Packet
	if err := json.Unmarshal(payload, &p); err != nil {
		// The frame was intact but the JSON was not: report decodability
		// separately so the server can answer with an error packet
		// instead of dropping the connection.
		return nil, &DecodeError{Err: err}
	}
	return &p, nil
}

// DecodeError marks a packet whose framing was sound but whose JSON
// payload did not decode; the connection remains usable.
type DecodeError struct{ Err error }

func (e *DecodeError) Error() string { return fmt.Sprintf("daemon: decode packet: %v", e.Err) }
func (e *DecodeError) Unwrap() error { return e.Err }

// body marshals a reply body, panicking on the impossible (all reply
// types marshal cleanly by construction).
func body(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("daemon: marshal %T: %v", v, err))
	}
	return data
}
