package main

// Reference models of the web tool's two session kinds, driven through
// the public functions of each layer (qasm, sim, dd, vis, snapshot and
// the web package's exported frame types). A model mirrors what the
// handler does for a request, so it serves twice: untraced, it
// produces the response every handler request is checked against;
// traced, it splits a request's cost by layer.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"quantumdd/internal/dd"
	"quantumdd/internal/qasm"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/snapshot"
	"quantumdd/internal/vis"
	"quantumdd/internal/web"
)

// shapeInterval is the web server's default structural-profiling
// stride, installed on every session package.
const shapeInterval = 32

const (
	initialCaption  = "initial state |0…0⟩"
	backwardCaption = "stepped backward"
	pendingCaption  = "awaiting dialog choice"
)

// replayStats accumulates what the replayed requests did.
type replayStats struct {
	reqs, frames, creates, jobs int
	svgBytes                    int64
	nodes, nodeSamples          int64
	revisits                    int
	peak                        int
	applyHits, applyLookups     uint64
	applyMHits, applyMLookups   uint64
	spills, restores            int
	spillBytes                  int64
	trajectories                int
	poolSeconds                 float64
}

// noteDiagram records a frame's or a CLI job's final diagram size and
// the peak size its session or job reached.
func (st *replayStats) noteDiagram(nodes, peak int) {
	st.nodes += int64(nodes)
	st.nodeSamples++
	if peak > st.peak {
		st.peak = peak
	}
}

// addEngine folds a finished session's package counters into the
// compute-table hit ratios.
func (st *replayStats) addEngine(p *dd.Pkg) {
	s := p.Stats()
	st.applyHits += s.ApplyCTHits
	st.applyLookups += s.ApplyCTLookups
	st.applyMHits += s.ApplyMCTHits
	st.applyMLookups += s.ApplyMCTLookups
}

// replayer runs models with one tracer and one stats sink.
type replayer struct {
	t   *tracer
	st  *replayStats
	cfg web.Config
	buf bytes.Buffer
}

// frameKey identifies a rendered frame by its canonical root edge and
// style; an equal key means an identical diagram.
type frameKey struct {
	node  interface{}
	w     complex128
	style string
}

func (r *replayer) noteFrame(seen map[frameKey]struct{}, k frameKey, svgLen int) {
	r.st.frames++
	r.st.svgBytes += int64(svgLen)
	if _, ok := seen[k]; ok {
		r.st.revisits++
	} else {
		seen[k] = struct{}{}
	}
}

// encode mirrors the server's JSON response writer; it ends the
// replayed request.
func (r *replayer) encode(v interface{}) []byte {
	t0 := r.t.now()
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("perfbench: encoding a replayed response: %v", err))
	}
	r.t.end(layerWebEncode, t0)
	r.t.endReq()
	return r.buf.Bytes()
}

// styleOf maps the style query parameter the way the server does.
func styleOf(name string) vis.Style {
	switch name {
	case "colored":
		return vis.Style{Mode: vis.Colored}
	case "modern":
		return vis.Style{Mode: vis.Modern}
	default:
		return vis.Style{Mode: vis.Classic}
	}
}

// engineStats mirrors the statistics panel's engine counters.
func engineStats(p *dd.Pkg) *web.EngineStats {
	st := p.Stats()
	return &web.EngineStats{
		LiveNodes:           p.LiveNodes(),
		UniqueLoadV:         st.UniqueLoadV,
		UniqueLoadM:         st.UniqueLoadM,
		UTCollisions:        st.UTCollisions,
		CTStores:            st.CTStores,
		CTEvictions:         st.CTEvictions,
		Recycled:            st.NodesRecycledV + st.NodesRecycledM,
		FreeNodes:           st.FreeNodesV + st.FreeNodesM,
		GCRuns:              st.GCRuns,
		ApplyLookups:        st.ApplyCTLookups,
		ApplyHits:           st.ApplyCTHits,
		ApplyEvictions:      st.ApplyCTEvictions,
		GatesFused:          st.GatesFused,
		GateDDCacheHits:     st.GateDDCacheHits,
		ApplyMLookups:       st.ApplyMCTLookups,
		ApplyMHits:          st.ApplyMCTHits,
		ApplyMEvictions:     st.ApplyMCTEvictions,
		ApplyMIdentitySkips: st.ApplyMIdentitySkips,
		KernelOps:           st.ApplyMOps,
		GenericOps:          st.MultMMOps,
	}
}

// stepResponse and verifyStepResponse mirror the handlers' payloads.
type stepResponse struct {
	Frame   web.Frame          `json:"frame"`
	Event   string             `json:"event,omitempty"`
	Error   string             `json:"error,omitempty"`
	Pending *web.PendingChoice `json:"pending,omitempty"`
	AtEnd   bool               `json:"atEnd"`
	AtStart bool               `json:"atStart"`
}

type verifyStepResponse struct {
	Frame    web.Frame `json:"frame"`
	Applied  string    `json:"applied,omitempty"`
	Error    string    `json:"error,omitempty"`
	Identity string    `json:"identity"`
	LeftPos  int       `json:"leftPos"`
	RightPos int       `json:"rightPos"`
}

func stepErrorCaption(err error) string {
	if errors.Is(err, dd.ErrResourceExhausted) {
		return "diagram too large — node budget exceeded"
	}
	return "step failed: " + err.Error()
}

// simModel mirrors one simulation session.
type simModel struct {
	r      *replayer
	src    string
	s      *sim.Simulator
	forced *int
	seen   map[frameKey]struct{}
	// lastPending is the dialog the last forward request answered
	// with, if any; the client resolves it with a choose request.
	lastPending *web.PendingChoice
}

func (m *simModel) chooser(op *qc.Op, q int, p0, p1 float64) int {
	if m.forced == nil {
		return 0
	}
	out := *m.forced
	m.forced = nil
	return out
}

// newSimModel mirrors POST /api/simulation.
func (r *replayer) newSimModel(src, style string) (*simModel, []byte, error) {
	t0 := r.t.now()
	circ, err := qasm.Parse(src)
	r.t.end(layerQasm, t0)
	if err != nil {
		return nil, nil, err
	}
	m := &simModel{r: r, src: src, seen: make(map[frameKey]struct{})}
	t0 = r.t.now()
	m.s = sim.New(circ, sim.WithSeed(r.cfg.Seed), sim.WithMaxNodes(r.cfg.MaxNodes), sim.WithChooser(m.chooser))
	m.s.Pkg().SetShapeInterval(shapeInterval)
	r.t.end(layerSim, t0)
	r.st.creates++
	r.st.reqs++
	f := m.frame(style, initialCaption)
	return m, r.encode(map[string]interface{}{"id": "sim-1", "frame": f}), nil
}

func (m *simModel) frame(style, caption string) web.Frame {
	t := m.r.t
	state, p := m.s.State(), m.s.Pkg()
	t0 := t.now()
	g := vis.FromVector(state)
	t.end(layerVisGraph, t0)
	t0 = t.now()
	svg := vis.FrameSVG(g, styleOf(style), caption)
	t.end(layerVisSVG, t0)
	t0 = t.now()
	f := web.Frame{
		SVG:       svg,
		Nodes:     dd.SizeV(state),
		Caption:   caption,
		Pos:       m.s.Pos(),
		Total:     len(m.s.Circuit().Ops),
		Classical: m.s.Classical(),
		Probs:     p.Probabilities(state),
		PathCount: dd.PathCount(state),
		PeakNodes: m.s.PeakNodes(),
		LevelHist: p.SizeByLevelV(state),
		Engine:    engineStats(p),
	}
	t.end(layerWebStats, t0)
	m.r.noteFrame(m.seen, frameKey{state.N, state.W, style}, len(svg))
	m.r.st.noteDiagram(f.Nodes, f.PeakNodes)
	return f
}

// pending mirrors the dialog protocol's check for a measurement or
// reset of a qubit in superposition.
func (m *simModel) pending() *web.PendingChoice {
	if m.forced != nil || m.s.AtEnd() {
		return nil
	}
	op := &m.s.Circuit().Ops[m.s.Pos()]
	if op.Kind != qc.KindMeasure && op.Kind != qc.KindReset {
		return nil
	}
	q := op.Targets[0]
	t0 := m.r.t.now()
	p1 := m.s.ProbOne(q)
	m.r.t.end(layerSim, t0)
	if p1 <= 1e-12 || 1-p1 <= 1e-12 {
		return nil
	}
	kind := "measure"
	if op.Kind == qc.KindReset {
		kind = "reset"
	}
	return &web.PendingChoice{OpIndex: m.s.Pos(), Kind: kind, Qubit: q, P0: 1 - p1, P1: p1}
}

func (m *simModel) respond(style, caption string) []byte {
	return m.r.encode(stepResponse{
		Frame:   m.frame(style, caption),
		Event:   caption,
		AtEnd:   m.s.AtEnd(),
		AtStart: m.s.AtStart(),
	})
}

func (m *simModel) forwardOnce(style string) []byte {
	t0 := m.r.t.now()
	ev, err := m.s.StepForwardCtx(context.Background())
	m.r.t.end(layerSim, t0)
	if err != nil {
		caption := stepErrorCaption(err)
		return m.r.encode(stepResponse{Frame: m.frame(style, caption), Event: caption, Error: err.Error(),
			AtEnd: m.s.AtEnd(), AtStart: m.s.AtStart()})
	}
	return m.respond(style, describeEvent(ev))
}

// step mirrors POST /api/simulation/{id}/step for forward, backward
// and start.
func (m *simModel) step(action, style string) []byte {
	m.r.st.reqs++
	m.lastPending = nil
	switch action {
	case "forward":
		if p := m.pending(); p != nil {
			m.lastPending = p
			return m.r.encode(stepResponse{Frame: m.frame(style, pendingCaption), Pending: p})
		}
		return m.forwardOnce(style)
	case "backward":
		m.forced = nil
		t0 := m.r.t.now()
		m.s.StepBackward()
		m.r.t.end(layerSim, t0)
		return m.respond(style, backwardCaption)
	case "start":
		m.forced = nil
		t0 := m.r.t.now()
		m.s.Rewind()
		m.r.t.end(layerSim, t0)
		return m.respond(style, initialCaption)
	}
	panic("perfbench: unknown sim action " + action)
}

// choose mirrors POST /api/simulation/{id}/choose on a pending dialog.
func (m *simModel) choose(outcome int, style string) []byte {
	m.r.st.reqs++
	if m.pending() == nil {
		panic("perfbench: choose without a pending dialog")
	}
	m.forced = &outcome
	return m.forwardOnce(style)
}

// get mirrors GET /api/simulation/{id}, the style switch.
func (m *simModel) get(style string) []byte {
	m.r.st.reqs++
	f := m.frame(style, "")
	return m.r.encode(stepResponse{Frame: f, Pending: m.pending(), AtEnd: m.s.AtEnd(), AtStart: m.s.AtStart()})
}

// spill mirrors the eviction hook: the session's durable form.
func (m *simModel) spill() []byte {
	t0 := m.r.t.now()
	blob := snapshot.EncodeSim(&snapshot.Sim{
		Source:    m.src,
		Seed:      m.r.cfg.Seed,
		Pos:       m.s.Pos(),
		Classical: m.s.Classical(),
		PeakNodes: m.s.PeakNodes(),
		State:     m.s.Pkg().AppendVectorBinary(nil, m.s.State()),
	})
	m.r.t.end(layerSnapEncode, t0)
	m.r.st.spills++
	m.r.st.spillBytes += int64(len(blob))
	m.r.st.addEngine(m.s.Pkg())
	return blob
}

// restore mirrors the transparent restore of a spilled session.
func (r *replayer) restoreSimModel(blob []byte) (*simModel, error) {
	t0 := r.t.now()
	defer r.t.end(layerSnapRestore, t0)
	snap, _, err := snapshot.Decode(blob)
	if err != nil {
		return nil, err
	}
	circ, err := qasm.Parse(snap.Source)
	if err != nil {
		return nil, err
	}
	m := &simModel{r: r, src: snap.Source, seen: make(map[frameKey]struct{})}
	m.s, err = sim.Resume(circ, snap.Pos, snap.Classical, snap.PeakNodes,
		func(p *dd.Pkg) (dd.VEdge, error) { return p.DecodeVectorBinary(snap.State) },
		sim.WithSeed(snap.Seed), sim.WithMaxNodes(r.cfg.MaxNodes), sim.WithChooser(m.chooser))
	if err != nil {
		return nil, err
	}
	m.s.Pkg().SetShapeInterval(shapeInterval)
	r.st.restores++
	return m, nil
}

func describeEvent(ev sim.Event) string {
	switch ev.Kind {
	case sim.EventEnd:
		return "end of circuit"
	case sim.EventBarrier:
		return "barrier (breakpoint)"
	case sim.EventMeasure:
		return fmt.Sprintf("measured q[%d] = %d (p0=%.3f, p1=%.3f)", ev.Op.Targets[0], ev.Outcome, ev.P0, ev.P1)
	case sim.EventReset:
		return fmt.Sprintf("reset q[%d] (pre-reset value %d)", ev.Op.Targets[0], ev.Outcome)
	case sim.EventCondSkip:
		return fmt.Sprintf("skipped %s (condition not met)", ev.Op.String())
	case sim.EventCondApply:
		return fmt.Sprintf("applied conditional %s", ev.Op.String())
	default:
		if ev.Op != nil {
			return "applied " + ev.Op.String()
		}
		return ""
	}
}

// verifyModel mirrors one verification session: G applied from the
// left, G′ inverted from the right, over an identity diagram.
type verifyModel struct {
	r           *replayer
	pkg         *dd.Pkg
	left, right *qc.Circuit
	x           dd.MEdge
	li, ri      int
	peak        int
	history     []verifySnap
	seen        map[frameKey]struct{}
}

type verifySnap struct {
	x      dd.MEdge
	li, ri int
}

// newVerifyModel mirrors POST /api/verification.
func (r *replayer) newVerifyModel(leftSrc, rightSrc, style string) (*verifyModel, []byte, error) {
	t0 := r.t.now()
	left, err := qasm.Parse(leftSrc)
	if err != nil {
		return nil, nil, err
	}
	right, err := qasm.Parse(rightSrc)
	r.t.end(layerQasm, t0)
	if err != nil {
		return nil, nil, err
	}
	if left.NQubits != right.NQubits {
		return nil, nil, fmt.Errorf("qubit counts differ: %d vs %d", left.NQubits, right.NQubits)
	}
	t0 = r.t.now()
	p := dd.New(left.NQubits)
	p.SetMaxNodes(r.cfg.MaxNodes)
	p.SetShapeInterval(shapeInterval)
	v := &verifyModel{r: r, pkg: p, left: left, right: right, x: p.Ident(), seen: make(map[frameKey]struct{})}
	p.IncRefM(v.x)
	v.peak = dd.SizeM(v.x)
	r.t.end(layerVerify, t0)
	r.st.creates++
	r.st.reqs++
	f := v.frame(style, "identity")
	return v, r.encode(map[string]interface{}{"id": "verify-1", "frame": f}), nil
}

func controls(op *qc.Op) []dd.Control {
	ctl := make([]dd.Control, len(op.Controls))
	for i, c := range op.Controls {
		ctl[i] = dd.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	return ctl
}

func (v *verifyModel) swapDD(op *qc.Op) dd.MEdge {
	return v.pkg.MakeSwapDD(op.Targets[0], op.Targets[1], controls(op)...)
}

// applyOp mirrors the web stepper: SWAP through the materialized gate
// and the generic multiply, every other gate through the matrix-apply
// kernel.
func (v *verifyModel) applyOp(op *qc.Op, side string) (dd.MEdge, error) {
	if op.Gate == qc.Swap {
		if side == "left" {
			return v.pkg.MultMMChecked(v.swapDD(op), v.x)
		}
		return v.pkg.MultMMChecked(v.x, v.swapDD(op))
	}
	if side == "left" {
		u := dd.GateMatrix(qc.Matrix2(op.Gate, op.Params))
		return v.pkg.ApplyGateMLChecked(v.x, u, op.Targets[0], controls(op)...)
	}
	g, params := qc.InverseGate(op.Gate, op.Params)
	return v.pkg.ApplyGateMRChecked(v.x, dd.GateMatrix(qc.Matrix2(g, params)), op.Targets[0], controls(op)...)
}

func (v *verifyModel) side(side string) (*qc.Circuit, *int) {
	if side == "right" {
		return v.right, &v.ri
	}
	return v.left, &v.li
}

func (v *verifyModel) stepSide(side string) (string, error) {
	circ, pos := v.side(side)
	for *pos < len(circ.Ops) && circ.Ops[*pos].Kind == qc.KindBarrier {
		*pos++
	}
	if *pos >= len(circ.Ops) {
		return "", nil
	}
	op := &circ.Ops[*pos]
	next, err := v.applyOp(op, side)
	if err != nil {
		return "", err
	}
	if n := dd.SizeM(next); n > v.peak {
		v.peak = n
	}
	v.history = append(v.history, verifySnap{x: v.x, li: v.li, ri: v.ri})
	v.pkg.IncRefM(v.x)
	v.pkg.IncRefM(next)
	v.pkg.DecRefM(v.x)
	v.x = next
	v.pkg.MaybeShapeM(v.x)
	*pos++
	return op.String(), nil
}

func (v *verifyModel) runToBarrier(side string) (int, error) {
	applied := 0
	for {
		circ, pos := v.side(side)
		if *pos >= len(circ.Ops) {
			return applied, nil
		}
		if circ.Ops[*pos].Kind == qc.KindBarrier {
			if applied > 0 {
				return applied, nil
			}
			*pos++
			continue
		}
		if _, err := v.stepSide(side); err != nil {
			return applied, err
		}
		applied++
	}
}

func (v *verifyModel) stepBack() bool {
	if len(v.history) == 0 {
		return false
	}
	snap := v.history[len(v.history)-1]
	v.history = v.history[:len(v.history)-1]
	v.pkg.DecRefM(v.x)
	v.x = snap.x
	v.li, v.ri = snap.li, snap.ri
	return true
}

func (v *verifyModel) identity() string {
	switch v.pkg.CheckIdentity(v.x) {
	case dd.IdentityExact:
		return "identity"
	case dd.IdentityUpToPhase:
		return "identity-up-to-phase"
	default:
		return "not-identity"
	}
}

func gatesBefore(c *qc.Circuit, pos int) int {
	n := 0
	for i := 0; i < pos && i < len(c.Ops); i++ {
		if c.Ops[i].Kind == qc.KindGate {
			n++
		}
	}
	return n
}

func (v *verifyModel) frame(style, caption string) web.Frame {
	t := v.r.t
	t0 := t.now()
	g := vis.FromMatrix(v.x)
	t.end(layerVisGraph, t0)
	t0 = t.now()
	svg := vis.FrameSVG(g, styleOf(style), caption)
	t.end(layerVisSVG, t0)
	t0 = t.now()
	f := web.Frame{
		SVG:       svg,
		Nodes:     dd.SizeM(v.x),
		Caption:   caption,
		Pos:       gatesBefore(v.left, v.li) + gatesBefore(v.right, v.ri),
		Total:     v.left.NumGates() + v.right.NumGates(),
		PeakNodes: v.peak,
		LevelHist: v.pkg.SizeByLevelM(v.x),
		Engine:    engineStats(v.pkg),
	}
	t.end(layerWebStats, t0)
	v.r.noteFrame(v.seen, frameKey{v.x.N, v.x.W, style}, len(svg))
	v.r.st.noteDiagram(f.Nodes, f.PeakNodes)
	return f
}

// step mirrors POST /api/verification/{id}/step.
func (v *verifyModel) step(side, action, style string) []byte {
	v.r.st.reqs++
	applied := ""
	var err error
	t0 := v.r.t.now()
	switch action {
	case "forward":
		applied, err = v.stepSide(side)
	case "barrier":
		var n int
		n, err = v.runToBarrier(side)
		applied = fmt.Sprintf("%d gate(s)", n)
	case "backward":
		if v.stepBack() {
			applied = "undone"
		}
	default:
		panic("perfbench: unknown verify action " + action)
	}
	v.r.t.end(layerVerify, t0)
	if err != nil {
		caption := stepErrorCaption(err)
		return v.r.encode(verifyStepResponse{Frame: v.frame(style, caption), Error: err.Error(),
			Identity: v.identityTimed(), LeftPos: v.li, RightPos: v.ri})
	}
	f := v.frame(style, applied)
	return v.r.encode(verifyStepResponse{Frame: f, Applied: applied, Identity: v.identityTimed(),
		LeftPos: v.li, RightPos: v.ri})
}

func (v *verifyModel) identityTimed() string {
	t0 := v.r.t.now()
	id := v.identity()
	v.r.t.end(layerVerify, t0)
	return id
}
