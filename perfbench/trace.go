package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/papi-sim/papi"
	// Only for the *Replica type the Router interface names; every layer
	// is driven through the papi facade.
	"github.com/papi-sim/papi/internal/cluster"
)

// spanKind names a layer boundary the benchmark times from outside.
type spanKind uint8

const (
	spanRun      spanKind = iota // one Run, RunSeq or RunPlan call
	spanRoute                    // one routing decision; id is the request
	spanPull                     // one request-source call; id is the request
	spanGrid                     // one paper-grid unit
	spanNew                      // one NewEngine call
	spanRunBatch                 // one RunBatch call
	spanDrill                    // one serving drill
	spanStep                     // one Stepper.Step call; id is the replica
	spanSketch                   // the sketch drill
	spanKinds
)

// spanCap bounds the spans kept per kind, so a million-step drill keeps a
// readable prefix rather than gigabytes.
const spanCap = 50_000

var spanNames = [spanKinds]string{
	spanRun:      "cluster.run",
	spanRoute:    "cluster.route",
	spanPull:     "cluster.pull",
	spanGrid:     "grid.unit",
	spanNew:      "serving.new",
	spanRunBatch: "serving.run_batch",
	spanDrill:    "serving.drill",
	spanStep:     "serving.step",
	spanSketch:   "stats.sketch_drill",
}

// span is one timed call. Times are nanoseconds since the trace epoch.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span, -1 at the root
	id         int32 // request or replica ID, -1 when neither applies
	kind       spanKind
}

// unitTrace records one traced unit: spans at every layer boundary the
// benchmark can see from outside, per-call durations for the percentiles,
// and — for the fleet-scale drill — each replica's routed sub-stream.
// Spans stay in memory; only the first traced unit keeps them.
type unitTrace struct {
	epoch  time.Time
	record bool
	spans  []span
	kept   [spanKinds]int
	open   int32 // innermost open span: the parent of new spans

	runNs, routeNs, pullNs, newNs int64
	routes, gaps                  []int64
	lastPull                      int64

	// subs[k] is what the router sent replica k, in routing order;
	// arrivals every routed arrival instant, in routing order.
	subs     [][]papi.Request
	arrivals []papi.Seconds
}

func newUnitTrace(epoch time.Time, record bool) *unitTrace {
	return &unitTrace{epoch: epoch, record: record, open: -1}
}

func (tr *unitTrace) now() int64 { return int64(time.Since(tr.epoch)) }

// keep reports whether a span of this kind is still recorded.
func (tr *unitTrace) keep(kind spanKind) bool {
	if !tr.record || tr.kept[kind] == spanCap {
		return false
	}
	tr.kept[kind]++
	return true
}

// leaf records a finished span under the innermost open one.
func (tr *unitTrace) leaf(kind spanKind, id int, start, end int64) {
	if tr.keep(kind) {
		tr.spans = append(tr.spans, span{start: start, end: end, parent: tr.open, id: int32(id), kind: kind})
	}
}

// begin opens a span; the returned function closes it and reports its
// duration.
func (tr *unitTrace) begin(kind spanKind) func() int64 {
	start, parent, idx := tr.now(), tr.open, int32(-1)
	if tr.keep(kind) {
		idx = int32(len(tr.spans))
		tr.spans = append(tr.spans, span{start: start, parent: parent, id: -1, kind: kind})
		tr.open = idx
	}
	return func() int64 {
		end := tr.now()
		if idx >= 0 {
			tr.spans[idx].end = end
			tr.open = parent
		}
		return end - start
	}
}

// source wraps a RunSeq request source so every pull is timed.
func (tr *unitTrace) source(next func() (papi.Request, bool)) func() (papi.Request, bool) {
	return func() (papi.Request, bool) {
		t0 := tr.now()
		if tr.lastPull > 0 {
			tr.gaps = append(tr.gaps, t0-tr.lastPull)
		}
		tr.lastPull = t0
		r, ok := next()
		t1 := tr.now()
		tr.pullNs += t1 - t0
		id := -1
		if ok {
			id = r.ID
		}
		tr.leaf(spanPull, id, t0, t1)
		return r, ok
	}
}

// router decorates a fleet's configured Router. It marks the unit's first
// simulated step — the first arrival is routed before any replica steps —
// and, when traced, times every decision and captures the routed
// sub-streams. Name passes through, so the fleet's outputs are unchanged.
type router struct {
	papi.Router
	mark func()
	tr   *unitTrace
}

func (r *router) Route(req papi.Request, reps []*cluster.Replica) int {
	if r.mark != nil {
		r.mark()
		r.mark = nil
	}
	if r.tr == nil {
		return r.Router.Route(req, reps)
	}
	tr := r.tr
	t0 := tr.now()
	idx := r.Router.Route(req, reps)
	t1 := tr.now()
	tr.routeNs += t1 - t0
	tr.routes = append(tr.routes, t1-t0)
	tr.leaf(spanRoute, req.ID, t0, t1)
	if idx >= 0 && idx < len(reps) {
		k := reps[idx].ID
		for len(tr.subs) <= k {
			tr.subs = append(tr.subs, nil)
		}
		tr.subs[k] = append(tr.subs[k], req)
		tr.arrivals = append(tr.arrivals, req.Arrival)
	}
	return idx
}

// spanLine is one span as written.
type spanLine struct {
	Span    int    `json:"span"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Request *int32 `json:"request,omitempty"`
	Replica *int32 `json:"replica,omitempty"`
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		line := spanLine{Span: i, Name: spanNames[s.kind], StartNs: s.start, EndNs: s.end, Parent: s.parent}
		switch s.kind {
		case spanRoute, spanPull:
			line.Request = &s.id
		case spanStep:
			line.Replica = &s.id
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
