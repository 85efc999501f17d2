package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"quantumdd/internal/web"
)

// opKind classifies a timed operation.
type opKind uint8

const (
	opStep   opKind = iota // a session request other than a create
	opCreate               // parses a circuit and returns the first frame or result
	opScrape               // GET /metrics or /debug/sessions/top
	opJob                  // one CLI invocation
)

// opSample is one timed operation.
type opSample struct {
	wall  time.Duration // service time
	cpu   time.Duration // process CPU while the program served it
	bytes int           // response body or CLI output
	kind  opKind
}

// recorder collects the timed operations of a run and its failures.
type recorder struct {
	ops          []opSample
	passCPU      []float64
	passCPUPerOp []float64 // CPU ms per operation of each pass
	curCPU       time.Duration
	curOps       int
	posWall      [][]float64      // closed loops: service seconds of the i-th operation of each pass
	passKinds    []map[string]int // open loop: operations of each kind per completed pass
	curKinds     map[string]int
	late         []float64 // open loop: ms the generator ran behind schedule
	due          []float64 // open loop: ms from each request's due time to its response
	attempted    int
	failed       int
	unexpected   int // failures outside the documented defect
	knownDefects int
	messages     []string
	serviceWall  time.Duration
	serviceReqs  int
	scrapeWall   time.Duration
	scrapeBytes  int64
	scrapes      int
	kernelOps    uint64
	genericOps   uint64
	restores     float64              // sessions the server restored from its spill store
	reportWall   time.Duration        // CLI jobs: time from the first report line to the return
	byLabel      map[string][]float64 // service ms per session or job label
}

func newRecorder() *recorder { return &recorder{byLabel: make(map[string][]float64)} }

// label attributes the last recorded operation to a session or job.
func (r *recorder) label(l string) {
	if len(r.ops) > 0 {
		r.byLabel[l] = append(r.byLabel[l], float64(r.ops[len(r.ops)-1].wall)/1e6)
	}
}

// kind attributes the last recorded operation to a kind of request and
// counts it in the current pass; the open loop's passes do not repeat,
// so batch_s is built from their kinds (see typicalPassS).
func (r *recorder) kind(k string) {
	r.label(k)
	if r.curKinds == nil {
		r.curKinds = make(map[string]int)
	}
	r.curKinds[k]++
}

func (r *recorder) add(s opSample) {
	if r.curOps == len(r.posWall) {
		r.posWall = append(r.posWall, nil)
	}
	r.posWall[r.curOps] = append(r.posWall[r.curOps], s.wall.Seconds())
	r.ops = append(r.ops, s)
	r.attempted++
	r.curCPU += s.cpu
	r.curOps++
	if s.kind == opScrape {
		r.scrapeWall += s.wall
		r.scrapeBytes += int64(s.bytes)
		r.scrapes++
	} else {
		r.serviceWall += s.wall
		r.serviceReqs++
	}
}

func (r *recorder) endPass() {
	r.passCPU = append(r.passCPU, r.curCPU.Seconds())
	r.passCPUPerOp = append(r.passCPUPerOp, ratio(float64(r.curCPU)/1e6, float64(r.curOps)))
	r.curCPU, r.curOps = 0, 0
	if r.curKinds != nil {
		r.passKinds = append(r.passKinds, r.curKinds)
		r.curKinds = nil
	}
}

func (r *recorder) note(format string, args ...interface{}) {
	if len(r.messages) < 20 {
		r.messages = append(r.messages, fmt.Sprintf(format, args...))
	}
}

// fail counts an operation whose output did not match its reference.
func (r *recorder) fail(format string, args ...interface{}) {
	r.failed++
	r.unexpected++
	r.note(format, args...)
}

// defect counts a failed operation of the documented kind.
func (r *recorder) defect(format string, args ...interface{}) {
	r.failed++
	r.knownDefects++
	r.note(format, args...)
}

// client drives the real handler in process: requests are built and
// responses checked outside the timed interval, which covers
// ServeHTTP alone.
type client struct {
	h   http.Handler
	buf bytes.Buffer
	rec *recorder // nil: untimed (warm-up)
}

// do serves one request. In an open loop, due is the time the request
// was scheduled for; the latency from it is recorded beside the
// service time.
func (c *client) do(method, target, body string, kind opKind, due time.Time) (int, []byte) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	c.buf.Reset()
	w := &httptest.ResponseRecorder{HeaderMap: make(http.Header), Body: &c.buf, Code: http.StatusOK}
	cpu0 := cpuNow()
	t0 := time.Now()
	c.h.ServeHTTP(w, req)
	t1 := time.Now()
	cpu := cpuNow() - cpu0
	if c.rec != nil {
		c.rec.add(opSample{wall: t1.Sub(t0), cpu: cpu, bytes: c.buf.Len(), kind: kind})
		if !due.IsZero() {
			c.rec.due = append(c.rec.due, float64(t1.Sub(due))/1e6)
		}
	}
	return w.Code, c.buf.Bytes()
}

// apiResponse decodes every session response shape of the API.
type apiResponse struct {
	ID       string             `json:"id"`
	Frame    web.Frame          `json:"frame"`
	Event    string             `json:"event"`
	Error    string             `json:"error"`
	Pending  *web.PendingChoice `json:"pending"`
	AtEnd    bool               `json:"atEnd"`
	AtStart  bool               `json:"atStart"`
	Applied  string             `json:"applied"`
	Identity string             `json:"identity"`
	LeftPos  int                `json:"leftPos"`
	RightPos int                `json:"rightPos"`
}

var hashSeed = maphash.MakeSeed()

// digest is the checked content of a response: everything the user
// sees except the session id and the engine's table counters, which
// depend on the session's history rather than its state.
type digest struct {
	status            int
	svgHash           uint64
	svgLen            int
	nodes, pos, total int
	peak              int
	caption, event    string
	errMsg, applied   string
	identity          string
	classical         []int
	levelHist         []int
	probs             []float64
	pathCount         int64
	pending           *web.PendingChoice
	atEnd, atStart    bool
	leftPos, rightPos int
}

// decodeResponse parses a session response and digests it.
func decodeResponse(status int, body []byte) (digest, apiResponse, error) {
	var a apiResponse
	if err := json.Unmarshal(body, &a); err != nil {
		return digest{status: status}, a, fmt.Errorf("undecodable response (status %d): %v", status, err)
	}
	f := &a.Frame
	d := digest{
		status: status, svgHash: maphash.String(hashSeed, f.SVG), svgLen: len(f.SVG),
		nodes: f.Nodes, pos: f.Pos, total: f.Total, peak: f.PeakNodes,
		caption: f.Caption, event: a.Event, errMsg: a.Error, applied: a.Applied, identity: a.Identity,
		classical: f.Classical, levelHist: f.LevelHist, probs: f.Probs, pathCount: f.PathCount,
		pending: a.Pending, atEnd: a.AtEnd, atStart: a.AtStart, leftPos: a.LeftPos, rightPos: a.RightPos,
	}
	return d, a, nil
}

// diff describes the first difference between a response and its
// reference, or returns "" when they agree.
func (d digest) diff(want digest) string {
	switch {
	case d.status != want.status:
		return fmt.Sprintf("status %d, want %d (%s)", d.status, want.status, d.errMsg)
	case d.pos != want.pos || d.total != want.total:
		return fmt.Sprintf("position %d/%d, want %d/%d", d.pos, d.total, want.pos, want.total)
	case d.leftPos != want.leftPos || d.rightPos != want.rightPos:
		return fmt.Sprintf("side positions %d/%d, want %d/%d", d.leftPos, d.rightPos, want.leftPos, want.rightPos)
	case d.caption != want.caption || d.event != want.event || d.applied != want.applied || d.errMsg != want.errMsg:
		return fmt.Sprintf("caption %q event %q applied %q error %q, want %q %q %q %q",
			d.caption, d.event, d.applied, d.errMsg, want.caption, want.event, want.applied, want.errMsg)
	case d.nodes != want.nodes || d.peak != want.peak || d.pathCount != want.pathCount:
		return fmt.Sprintf("nodes %d peak %d paths %d, want %d %d %d", d.nodes, d.peak, d.pathCount, want.nodes, want.peak, want.pathCount)
	case d.identity != want.identity:
		return fmt.Sprintf("identity class %q, want %q", d.identity, want.identity)
	case d.atEnd != want.atEnd || d.atStart != want.atStart:
		return fmt.Sprintf("atEnd/atStart %v/%v, want %v/%v", d.atEnd, d.atStart, want.atEnd, want.atStart)
	case !equalInts(d.classical, want.classical) || !equalInts(d.levelHist, want.levelHist):
		return fmt.Sprintf("classical %v levels %v, want %v %v", d.classical, d.levelHist, want.classical, want.levelHist)
	case !closeFloats(d.probs, want.probs):
		return fmt.Sprintf("probabilities %v, want %v", d.probs, want.probs)
	case (d.pending == nil) != (want.pending == nil) || (d.pending != nil && *d.pending != *want.pending):
		return fmt.Sprintf("pending dialog %+v, want %+v", d.pending, want.pending)
	case d.svgHash != want.svgHash || d.svgLen != want.svgLen:
		return fmt.Sprintf("SVG differs (%d bytes, want %d)", d.svgLen, want.svgLen)
	}
	return ""
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// closeFloats compares probabilities to 1e-12: a restored session
// recomputes them on a freshly decoded package.
func closeFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}
