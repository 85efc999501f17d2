package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// layer identifies the program layer a replayed call belongs to. The
// names are the repository's module names.
type layer uint8

const (
	layerQasm        layer = iota // qasm.Parse of a created session's source
	layerSim                      // sim stepping, rewinding and dialog probes
	layerVerify                   // the verification stepper's gate applications
	layerVisGraph                 // vis.FromVector / vis.FromMatrix
	layerVisSVG                   // vis.FrameSVG (layout and markup)
	layerWebStats                 // the frame's statistics walks and engine counters
	layerWebEncode                // JSON encoding of the response
	layerSnapEncode               // snapshot encoding of an evicted session
	layerSnapRestore              // store fetch, snapshot decode, re-parse, sim.Resume, store delete
	layerCLIParse                 // circuit file loading in a CLI job
	layerCLIEngine                // the engine run of a CLI job
	numLayers
)

var layerNames = [numLayers]string{
	"qasm.parse", "sim.step", "verify.apply", "vis.graph", "vis.svg",
	"web.stats", "web.encode", "snapshot.encode", "snapshot.restore",
	"cli.parse", "cli.engine",
}

// span is one recorded interval. Spans of one replayed request share
// req; parent is the index of the request's root span (-1 for a root).
type span struct {
	req    uint32
	parent int32
	name   layer // numLayers marks a request root
	start  int64 // ns since the tracer's epoch
	end    int64
}

// maxKeptSpans bounds the spans kept for the trace file; aggregates
// cover every span regardless.
const maxKeptSpans = 20000

// tracer records spans around the benchmark's calls into each layer.
// A nil *tracer records nothing and reads no clock, so the same replay
// code runs traced and untraced.
type tracer struct {
	epoch time.Time
	req   uint32
	root  int32
	spans []span

	// Self time per layer, over every recorded span.
	self [numLayers]time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), root: -1} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// beginReq opens a request root span.
func (t *tracer) beginReq() {
	if t == nil {
		return
	}
	t.req++
	start := t.now()
	t.root = -1
	if len(t.spans) < maxKeptSpans {
		t.root = int32(len(t.spans))
		t.spans = append(t.spans, span{req: t.req, parent: -1, name: numLayers, start: start})
	}
}

// endReq closes the current request root span.
func (t *tracer) endReq() {
	if t == nil {
		return
	}
	if t.root >= 0 {
		t.spans[t.root].end = t.now()
	}
}

// end closes a layer span opened at start (a value from now).
func (t *tracer) end(l layer, start int64) {
	if t == nil {
		return
	}
	stop := t.now()
	t.self[l] += time.Duration(stop - start)
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{req: t.req, parent: t.root, name: l, start: start, end: stop})
	}
}

// layerTotal returns the summed self time of all layers.
func (t *tracer) layerTotal() time.Duration {
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	return sum
}

// writeChrome writes the kept spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		name := "request"
		if s.name < numLayers {
			name = layerNames[s.name]
		}
		events = append(events, event{Name: name, Ph: "X", TS: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: 1,
			Args: map[string]int{"req": int(s.req), "parent": int(s.parent)}})
	}
	if err := json.NewEncoder(w).Encode(map[string]interface{}{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
