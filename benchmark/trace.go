package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package
// around the layer's public function. Deterministic fields (names, ids,
// counters) and wall-clock fields are kept apart all the way to the
// file so two traces of the same seed diff cleanly.
type span struct {
	Name     string
	ID       int // 1-based; 0 means "no span"
	Parent   int
	Job      int   // spans of one job share this id
	Pass     int   // timed pass the job ran in
	Counters []kv  // deterministic counts observed at this boundary
	Start    int64 // ns since the tracer's epoch
	End      int64
}

type kv struct {
	K string
	V int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the "tracing off" state: every method is a nil check and nothing
// else, which is what the untraced passes of a traced run pay.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // served_mix records from two client goroutines
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, pass, job, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Job: job, Pass: pass, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id, attaching the counters seen at the boundary.
func (t *tracer) end(id int, counters ...kv) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Counters = counters
	t.mu.Unlock()
}

// rollup is one span name's totals over the trace.
type rollup struct {
	Count  int     `json:"count"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"` // wall minus the part child spans cover
}

// childTime returns, indexed by span id, the time each span's direct
// children cover.
func (t *tracer) childTime() []int64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	return child
}

// rollups sums wall and self time per span name. Children run inside
// their parent on one goroutine, so a parent's self time is its
// duration minus its direct children's.
func (t *tracer) rollups() map[string]*rollup {
	out := map[string]*rollup{}
	if t == nil {
		return out
	}
	child := t.childTime()
	for _, s := range t.spans {
		r := out[s.Name]
		if r == nil {
			r = &rollup{}
			out[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.WallMS += float64(d) / 1e6
		r.SelfMS += float64(d-child[s.ID]) / 1e6
	}
	return out
}

// childShares returns, for every span called parent, the share of its
// duration spent in its direct children called child.
func (t *tracer) childShares(parent, child string) []float64 {
	if t == nil {
		return nil
	}
	in := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Name == child && s.Parent != 0 {
			in[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if d := s.End - s.Start; s.Name == parent && d > 0 {
			out = append(out, float64(in[s.ID])/float64(d))
		}
	}
	return out
}

// wallMS is the total wall time of spans called name.
func wallMS(r map[string]*rollup, name string) float64 {
	if x := r[name]; x != nil {
		return x.WallMS
	}
	return 0
}

// chromeEvent is one Chrome trace-event ("X" = complete event). ts and
// dur are the format's own wall fields; everything else wall-clock
// lives under args.wall and everything reproducible under args.det.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// write stores the trace as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). One lane (tid) per job keeps a job's
// spans nested under each other.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	child := t.childTime()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		det := map[string]any{"span": s.ID, "parent": s.Parent, "job": s.Job, "pass": s.Pass}
		for _, c := range s.Counters {
			det[c.K] = c.V
		}
		d := s.End - s.Start
		events = append(events, chromeEvent{
			Name: s.Name, Cat: workload, Ph: "X", Pid: 1, Tid: s.Job,
			Ts: float64(s.Start) / 1e3, Dur: float64(d) / 1e3,
			Args: map[string]any{
				"det":  det,
				"wall": map[string]any{"self_us": float64(d-child[s.ID]) / 1e3},
			},
		})
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
