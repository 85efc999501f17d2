package main

// The two closed-loop interactive workloads: sim-step steps example
// algorithms one operation per request, the way the paper's tool is
// used; verify-step drives the verification tab on equivalent pairs.

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/obs"
	"quantumdd/internal/qasm"
	"quantumdd/internal/qc"
	"quantumdd/internal/verify"
	"quantumdd/internal/web"
)

// benchConfig is the server configuration every web workload starts
// from: the shipped defaults, with a metrics registry of the server's
// own so that repeated set-ups in one process share no counters.
func benchConfig() web.Config {
	cfg := web.DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	return cfg
}

// step is one request of a session script with its reference response.
type step struct {
	method, path, body string
	kind               opKind
	want               digest
	raw                uint64 // hash of the checked response bytes, once seen
}

// script builds the request list of one session from a model run.
type script struct {
	label string
	steps []step
	// The matrix-kernel and generic-multiply counts of the session's
	// last frame, read from the handler's responses.
	kernelOps, genericOps uint64
}

// add records a request and the model's response to it. With a nil
// script the replay skips the decode.
func (s *script) add(method, path, body string, kind opKind, resp []byte) error {
	if s == nil {
		return nil
	}
	d, _, err := decodeResponse(http.StatusOK, resp)
	if err != nil {
		return err
	}
	s.steps = append(s.steps, step{method: method, path: path, body: body, kind: kind, want: d})
	return nil
}

func styleQuery(style string) string {
	if style == "" {
		return ""
	}
	return "?style=" + style
}

func jsonBody(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// runScript sends a session's requests in order and checks each
// response against its reference. Responses repeat byte for byte from
// pass to pass (every pass starts fresh sessions), so after one full
// check a response is compared by a hash of its bytes, and decoded
// again only if that differs.
func runScript(c *client, rec *recorder, s *script) {
	id := ""
	for k := range s.steps {
		st := &s.steps[k]
		path := strings.Replace(st.path, "{id}", id, 1)
		code, body := c.do(st.method, path, st.body, st.kind, time.Time{})
		if rec == nil {
			if st.kind == opCreate {
				var a apiResponse
				if json.Unmarshal(body, &a) == nil {
					id = a.ID
				}
			}
			continue
		}
		rec.label(s.label)
		raw := rawHash(code, body)
		if st.raw != 0 && raw == st.raw && st.kind != opCreate {
			continue
		}
		d, a, err := decodeResponse(code, body)
		if err != nil {
			rec.fail("%s request %d (%s %s): %v", s.label, k, st.method, path, err)
			continue
		}
		if st.kind == opCreate {
			id = a.ID
		}
		if e := a.Frame.Engine; e != nil && k == len(s.steps)-1 && strings.HasPrefix(st.path, "/api/verification") {
			s.kernelOps, s.genericOps = e.KernelOps, e.GenericOps
		}
		if diff := d.diff(st.want); diff != "" {
			rec.fail("%s request %d (%s %s): %s", s.label, k, st.method, path, diff)
			continue
		}
		st.raw = raw
	}
	if rec != nil {
		rec.kernelOps += s.kernelOps
		rec.genericOps += s.genericOps
	}
}

// rawHash hashes a response with its status.
func rawHash(status int, body []byte) uint64 {
	return maphash.Bytes(hashSeed, body) ^ uint64(status)
}

// ---- sim-step ----

type simAction struct {
	kind  string // forward, backward, start or get (the style switch)
	style string
}

type simSession struct {
	label   string
	src     string
	ops     int
	actions []simAction
	salt    uint64 // seeds the dialog outcomes
}

type simStep struct {
	srv      *web.Server
	cli      client
	sessions []simSession
	scripts  []*script
}

// simSessionsLive caps live simulation sessions. Each pass abandons
// its sessions to the cap's LRU eviction; a cap of a few users' worth
// keeps the live heap, and the collector's work on it, at the size of
// the sessions being stepped rather than of 256 stale ones.
const simSessionsLive = 32

func newSimStep(o options) (bench, error) {
	b := &simStep{sessions: simSessions(o.seed, o.small)}
	cfg := benchConfig()
	cfg.MaxSessions = simSessionsLive
	b.srv = web.NewServerWithConfig(cfg)
	b.cli.h = b.srv.Handler()
	// Warm-up: create each session and send one forward per operation
	// (a pending dialog stops it), untimed.
	for _, s := range b.sessions {
		warm := &script{label: "warm-up"}
		warm.steps = append(warm.steps, step{method: "POST", path: "/api/simulation", body: jsonBody(map[string]string{"code": s.src}), kind: opCreate})
		for i := 0; i < s.ops; i++ {
			warm.steps = append(warm.steps, step{method: "POST", path: "/api/simulation/{id}/step", body: `{"action":"forward"}`})
		}
		runScript(&b.cli, nil, warm)
	}
	return b, nil
}

// simSessions generates the scaled example algorithms of one pass.
// The seed picks inputs, marked elements, phases, angles, revisit
// points and dialog outcomes; it does not change circuit sizes.
func simSessions(seed int64, small bool) []simSession {
	rng := rand.New(rand.NewSource(seed))
	nQFT, nGrover, nGHZ, qpeBits := 8, 5, 16, 5
	if small {
		nQFT, nGrover, nGHZ, qpeBits = 3, 3, 4, 3
	}
	qft := qc.New(nQFT, 0)
	for q := 0; q < nQFT; q++ {
		if rng.Intn(2) == 1 {
			qft.X(q)
		}
	}
	qft.Ops = append(qft.Ops, algorithms.QFT(nQFT).Ops...)
	circs := []struct {
		label string
		c     *qc.Circuit
	}{
		{fmt.Sprintf("qft%d", nQFT), qft},
		{fmt.Sprintf("grover%d", nGrover), algorithms.Grover(nGrover, uint64(rng.Intn(1<<nGrover)))},
		{fmt.Sprintf("ghz%d", nGHZ), algorithms.GHZ(nGHZ)},
		{fmt.Sprintf("qpe%d", qpeBits), algorithms.QPE(qpeBits, float64(2*rng.Intn(1<<(qpeBits-1))+1)/float64(int(1)<<qpeBits))},
		{"teleport", algorithms.Teleport(rng.Float64()*math.Pi, rng.Float64()*2*math.Pi)},
	}
	var out []simSession
	for _, c := range circs {
		out = append(out, simSession{label: c.label, src: c.c.QASM(), ops: len(c.c.Ops), actions: simActions(len(c.c.Ops), rng), salt: rng.Uint64()})
	}
	return out
}

// simActions is one session's click sequence: forward through the
// circuit with two back-and-forth revisits on the way, then a style
// switch, a few steps in the new style, a jump to the start and a few
// steps from there.
func simActions(ops int, rng *rand.Rand) []simAction {
	const k = 3
	r1 := 1 + rng.Intn((ops+1)/2)
	r2 := (ops+1)/2 + 1 + rng.Intn(ops/2)
	var a []simAction
	rep := func(kind, style string, n int) {
		for i := 0; i < n; i++ {
			a = append(a, simAction{kind, style})
		}
	}
	for pos := 1; pos <= ops; pos++ {
		rep("forward", "", 1)
		if pos == r1 || pos == r2 {
			n := k
			if pos < n {
				n = pos
			}
			rep("backward", "", n)
			rep("forward", "", n)
		}
	}
	rep("get", "colored", 1)
	rep("backward", "colored", 2)
	rep("forward", "colored", 2)
	rep("start", "", 1)
	rep("forward", "", 3)
	return a
}

// outcome picks a dialog's measurement result.
func (s *simSession) outcome(opIndex int) int {
	return int(mix64(s.salt^uint64(opIndex)) & 1)
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runSim plays a session's actions on a model; with a non-nil script
// it records the requests and reference responses.
func runSim(r *replayer, s *simSession, out *script) (*simModel, error) {
	r.t.beginReq()
	m, resp, err := r.newSimModel(s.src, "")
	if err != nil {
		return nil, err
	}
	if err := out.add("POST", "/api/simulation", jsonBody(map[string]string{"code": s.src}), opCreate, resp); err != nil {
		return nil, err
	}
	for _, a := range s.actions {
		path := "/api/simulation/{id}/step" + styleQuery(a.style)
		r.t.beginReq()
		switch a.kind {
		case "get":
			err = out.add("GET", "/api/simulation/{id}"+styleQuery(a.style), "", opStep, m.get(a.style))
		default:
			err = out.add("POST", path, jsonBody(map[string]string{"action": a.kind}), opStep, m.step(a.kind, a.style))
			if err == nil && m.lastPending != nil {
				o := s.outcome(m.lastPending.OpIndex)
				r.t.beginReq()
				err = out.add("POST", "/api/simulation/{id}/choose"+styleQuery(a.style), jsonBody(map[string]int{"outcome": o}), opStep, m.choose(o, a.style))
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (b *simStep) prepare() error {
	r := &replayer{st: &replayStats{}, cfg: benchConfig()}
	for i := range b.sessions {
		s := &script{label: "sim-step " + b.sessions[i].label}
		if _, err := runSim(r, &b.sessions[i], s); err != nil {
			return err
		}
		b.scripts = append(b.scripts, s)
	}
	return nil
}

func (b *simStep) pass(rec *recorder) error {
	b.cli.rec = rec
	for _, s := range b.scripts {
		runScript(&b.cli, rec, s)
	}
	rec.endPass()
	return nil
}

func (b *simStep) replay(r *replayer) error {
	for i := range b.sessions {
		m, err := runSim(r, &b.sessions[i], nil)
		if err != nil {
			return err
		}
		r.st.addEngine(m.s.Pkg())
	}
	return nil
}

func (b *simStep) finish(rec *recorder) {}
func (b *simStep) close()               { b.srv.Close() }

// ---- verify-step ----

type verifyAction struct {
	side, kind string // kind: forward, barrier or backward
}

type verifyPair struct {
	label       string
	left, right string // QASM sources
	actions     []verifyAction
}

type verifyStep struct {
	srv     *web.Server
	cli     client
	pairs   []verifyPair
	scripts []*script
}

// verifySessions caps live verification sessions: each pass abandons
// its sessions, and the cap evicts them so memory stays bounded.
const verifySessions = 4

func newVerifyStep(o options) (bench, error) {
	b := &verifyStep{pairs: verifyPairs(o.seed, o.small)}
	cfg := benchConfig()
	cfg.MaxSessions = verifySessions
	b.srv = web.NewServerWithConfig(cfg)
	b.cli.h = b.srv.Handler()
	for _, p := range b.pairs {
		warm := &script{label: "warm-up"}
		warm.steps = append(warm.steps, step{method: "POST", path: "/api/verification", body: jsonBody(map[string]string{"left": p.left, "right": p.right}), kind: opCreate})
		for i := 0; i < 3; i++ {
			warm.steps = append(warm.steps, step{method: "POST", path: "/api/verification/{id}/step", body: `{"side":"left","action":"forward"}`})
		}
		runScript(&b.cli, nil, warm)
	}
	return b, nil
}

// verifyPairs builds QFT(n) against its compiled form on both sides.
// The QFT side steps one gate per request and takes SWAPs on the
// generic path; the compiled side has a barrier after each lowered
// gate, so "barrier" applies one original gate. The seed picks where
// the user steps the compiled side gate by gate and where they undo.
func verifyPairs(seed int64, small bool) []verifyPair {
	rng := rand.New(rand.NewSource(seed))
	n, lead := 6, 24
	if small {
		n, lead = 3, 2
	}
	qft, compiled := algorithms.QFT(n), algorithms.QFTCompiled(n)
	groups := groupSizes(compiled)
	mk := func(label string, left, right *qc.Circuit, qftSide string) verifyPair {
		return verifyPair{label: label, left: left.QASM(), right: right.QASM(),
			actions: verifyActions(groups, lead, qftSide, rng)}
	}
	return []verifyPair{
		mk(fmt.Sprintf("qft%d-vs-compiled", n), qft, compiled, "left"),
		mk(fmt.Sprintf("compiled-vs-qft%d", n), compiled, qft, "right"),
	}
}

// groupSizes counts the gates between consecutive barriers.
func groupSizes(c *qc.Circuit) []int {
	var sizes []int
	n := 0
	for _, op := range c.Ops {
		if op.Kind == qc.KindBarrier {
			sizes = append(sizes, n)
			n = 0
		} else {
			n++
		}
	}
	if n > 0 {
		sizes = append(sizes, n)
	}
	return sizes
}

// verifyActions: the QFT side leads by lead gates, then the two sides
// alternate one original gate each until both are done. Four of the
// compiled side's groups are stepped one lowered gate at a time, and
// in three the user undoes up to two steps and redoes them. Those
// groups sit at fixed fractions of the circuit, moved by the seed by
// at most one group, so the seed barely changes the frames rendered.
func verifyActions(groups []int, lead int, qftSide string, rng *rand.Rand) []verifyAction {
	gates := len(groups)
	other := "right"
	if qftSide == "right" {
		other = "left"
	}
	spread := func(k int) map[int]bool {
		m := map[int]bool{}
		for i := 0; i < k; i++ {
			g := (2*i+1)*gates/(2*k) + rng.Intn(3) - 1
			if g >= 0 && g < gates {
				m[g] = true
			}
		}
		return m
	}
	single, undo := spread(4), spread(3)
	var a []verifyAction
	for i := 0; i < lead && i < gates; i++ {
		a = append(a, verifyAction{qftSide, "forward"})
	}
	for g := 0; g < gates; g++ {
		if g+lead < gates {
			a = append(a, verifyAction{qftSide, "forward"})
		}
		if single[g] {
			// The group's last gate comes from the barrier action: a
			// forward past it would skip the barrier into the next group.
			for i := 1; i < groups[g]; i++ {
				a = append(a, verifyAction{other, "forward"})
			}
		}
		a = append(a, verifyAction{other, "barrier"})
		if undo[g] {
			// Undo within the group just completed, then finish it again.
			for i := 0; i < 2 && i < groups[g]; i++ {
				a = append(a, verifyAction{"", "backward"})
			}
			a = append(a, verifyAction{other, "barrier"})
		}
	}
	return a
}

func runVerify(r *replayer, p *verifyPair, out *script) (*verifyModel, error) {
	r.t.beginReq()
	v, resp, err := r.newVerifyModel(p.left, p.right, "")
	if err != nil {
		return nil, err
	}
	if err := out.add("POST", "/api/verification", jsonBody(map[string]string{"left": p.left, "right": p.right}), opCreate, resp); err != nil {
		return nil, err
	}
	for _, a := range p.actions {
		body := jsonBody(map[string]string{"side": a.side, "action": a.kind})
		r.t.beginReq()
		if err := out.add("POST", "/api/verification/{id}/step", body, opStep, v.step(a.side, a.kind, "")); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func (b *verifyStep) prepare() error {
	r := &replayer{st: &replayStats{}, cfg: benchConfig()}
	for i := range b.pairs {
		p := &b.pairs[i]
		s := &script{label: "verify-step " + p.label}
		v, err := runVerify(r, p, s)
		if err != nil {
			return err
		}
		// The session must end where the equivalence checker's
		// verdict says it does.
		left, err := qasm.Parse(p.left)
		if err != nil {
			return err
		}
		right, err := qasm.Parse(p.right)
		if err != nil {
			return err
		}
		res, err := verify.Check(left, right, verify.Proportional)
		if err != nil {
			return err
		}
		want := "not-identity"
		switch {
		case res.Equivalent && res.UpToGlobalPhase:
			want = "identity-up-to-phase"
		case res.Equivalent:
			want = "identity"
		}
		if gatesBefore(v.left, v.li) != v.left.NumGates() || gatesBefore(v.right, v.ri) != v.right.NumGates() || v.identity() != want {
			return fmt.Errorf("%s: script ends at %d/%d with %q, verify.Check says %q",
				p.label, v.li, v.ri, v.identity(), want)
		}
		b.scripts = append(b.scripts, s)
	}
	return nil
}

func (b *verifyStep) pass(rec *recorder) error {
	b.cli.rec = rec
	for _, s := range b.scripts {
		runScript(&b.cli, rec, s)
	}
	rec.endPass()
	return nil
}

func (b *verifyStep) replay(r *replayer) error {
	for i := range b.pairs {
		v, err := runVerify(r, &b.pairs[i], nil)
		if err != nil {
			return err
		}
		r.st.addEngine(v.pkg)
	}
	return nil
}

func (b *verifyStep) finish(rec *recorder) {}
func (b *verifyStep) close()               { b.srv.Close() }
