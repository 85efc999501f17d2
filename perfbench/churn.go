package main

// The session-churn workload: an open loop at a fixed rate over more
// simulation sessions than the server keeps live, with spill-to-disk
// enabled, so step requests to cold sessions restore them and creates
// evict (and spill) others. Metrics and top-sessions scrapes run at a
// fixed cadence.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/obs"
	"quantumdd/internal/qc"
	"quantumdd/internal/snapshot"
	"quantumdd/internal/web"
)

// churnShape sizes the workload.
type churnShape struct {
	maxSessions int // the server's live-session cap
	hot, cold   int // session slots; hot ones take most requests
	hotShare    float64
	interval    time.Duration // open-loop spacing of requests
	block       int           // requests per pass
}

func churnSizes(small bool) churnShape {
	if small {
		return churnShape{maxSessions: 4, hot: 3, cold: 3, hotShare: 0.8, interval: time.Millisecond, block: 100}
	}
	return churnShape{maxSessions: 24, hot: 16, cold: 24, hotShare: 0.8, interval: 2 * time.Millisecond, block: 1000}
}

// churnTemplate is a circuit with the reference frame of every
// position: after a create, after a forward step, after a backward one.
type churnTemplate struct {
	label  string
	src    string
	ops    int
	create digest
	fwd    []digest // fwd[p]: landed on p by a forward step (p ≥ 1)
	back   []digest // back[p]: landed on p by a backward step (p < ops)
}

type churnSlot struct {
	tmpl       int
	id         string
	pos        int
	furthest   int // the furthest position reached: the session's peak
	restoredAt int // position of the session's last restore from a spill; -1: none since its create
	forward    bool
	needCreate bool
}

// churnOp is one scheduled request.
type churnOp struct {
	kind   string // create, step, metrics or top
	slot   int
	action string // forward or backward
}

// churnPlan generates the request sequence. The loop and the replay
// each run their own plan from the same seed.
type churnPlan struct {
	shape churnShape
	rng   *rand.Rand
	slots []churnSlot
	k     int
}

func newChurnPlan(seed int64, shape churnShape, templates int) *churnPlan {
	d := &churnPlan{shape: shape, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < shape.hot+shape.cold; i++ {
		d.slots = append(d.slots, churnSlot{tmpl: i % templates, forward: true, needCreate: true})
	}
	return d
}

func (d *churnPlan) next(ops func(tmpl int) int) churnOp {
	d.k++
	switch {
	// Scrapes stay well under 1% of requests, so that req_p99_ms
	// measures the session requests rather than the scrape boundary.
	case d.k%500 == 125:
		return churnOp{kind: "metrics"}
	case d.k%500 == 375:
		return churnOp{kind: "top"}
	}
	for i := range d.slots {
		if d.slots[i].needCreate {
			return churnOp{kind: "create", slot: i}
		}
	}
	if d.k%50 == 0 {
		return churnOp{kind: "create", slot: d.rng.Intn(len(d.slots))}
	}
	i := d.rng.Intn(d.shape.hot)
	if d.rng.Float64() >= d.shape.hotShare {
		i = d.shape.hot + d.rng.Intn(d.shape.cold)
	}
	s := &d.slots[i]
	if s.pos >= ops(s.tmpl) {
		s.forward = false
	}
	if s.pos <= 0 {
		s.forward = true
	}
	if s.forward {
		return churnOp{kind: "step", slot: i, action: "forward"}
	}
	return churnOp{kind: "step", slot: i, action: "backward"}
}

// created resets a slot after a create.
func (d *churnPlan) created(i int, id string) {
	d.slots[i] = churnSlot{tmpl: d.slots[i].tmpl, id: id, restoredAt: -1, forward: true}
}

func (d *churnPlan) moved(i, pos int) {
	s := &d.slots[i]
	s.pos = pos
	if pos > s.furthest {
		s.furthest = pos
	}
}

type churn struct {
	shape     churnShape
	seed      int64
	srv       *web.Server
	reg       *obs.Registry
	restores  *obs.Counter // the server's session_restores_total{kind="sim"}
	cli       client
	templates []churnTemplate
	plan      *churnPlan
	start     time.Time
	sent      int
	dir       string // the server's spill directory lies under it

	// Replay state: its own plan, and the model sessions with the
	// registry's LRU policy mirrored over them.
	rplan                   *churnPlan
	rstore                  *snapshot.Store // the replay's own spill directory
	rdir                    string
	lru                     map[int]*churnEntry // by session serial
	slotS                   []int               // slot → session serial
	serial, clock, resident int
}

type churnEntry struct {
	model   *simModel // nil while spilled
	lastUse int
}

func churnTemplates(seed int64, small bool) []churnTemplate {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ghz, qftN, grover, w := 10, 6, 4, 6
	if small {
		ghz, qftN, grover, w = 3, 3, 2, 3
	}
	qft := qc.New(qftN, 0)
	for q := 0; q < qftN; q++ {
		if rng.Intn(2) == 1 {
			qft.X(q)
		}
	}
	qft.Ops = append(qft.Ops, algorithms.QFT(qftN).Ops...)
	circs := []struct {
		label string
		c     *qc.Circuit
	}{
		{fmt.Sprintf("ghz%d", ghz), algorithms.GHZ(ghz)},
		{fmt.Sprintf("qft%d", qftN), qft},
		{fmt.Sprintf("grover%d", grover), algorithms.Grover(grover, uint64(rng.Intn(1<<grover)))},
		{fmt.Sprintf("wstate%d", w), algorithms.WState(w)},
	}
	var out []churnTemplate
	for _, c := range circs {
		out = append(out, churnTemplate{label: c.label, src: c.c.QASM(), ops: len(c.c.Ops)})
	}
	return out
}

func newChurn(o options) (bench, error) {
	shape := churnSizes(o.small)
	b := &churn{shape: shape, seed: o.seed, templates: churnTemplates(o.seed, o.small), rdir: filepath.Join(o.workDir, "replay-spill")}
	cfg := benchConfig()
	cfg.MaxSessions = shape.maxSessions
	dir, err := os.MkdirTemp(o.workDir, "spill-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	cfg.SpillDir = filepath.Join(dir, "spill")
	b.reg = cfg.Metrics
	b.srv = web.NewServerWithConfig(cfg)
	b.restores = b.reg.Counter("session_restores_total", "", obs.L("kind", "sim"))
	b.cli.h = b.srv.Handler()
	if b.srv.SpillStore() == nil {
		return nil, fmt.Errorf("spill store did not open in %s", cfg.SpillDir)
	}
	// Warm-up: one session of each template stepped a little, untimed.
	for _, t := range b.templates {
		warm := &script{label: "warm-up"}
		warm.steps = append(warm.steps, step{method: "POST", path: "/api/simulation", body: jsonBody(map[string]string{"code": t.src}), kind: opCreate})
		for i := 0; i < 3; i++ {
			warm.steps = append(warm.steps, step{method: "POST", path: "/api/simulation/{id}/step", body: `{"action":"forward"}`})
		}
		runScript(&b.cli, nil, warm)
	}
	b.cli.do("GET", "/metrics", "", opScrape, time.Time{})
	return b, nil
}

// prepare renders every template position through the models: a
// forward sweep and a backward sweep cover every frame a session in
// this workload can show.
func (b *churn) prepare() error {
	r := &replayer{st: &replayStats{}, cfg: benchConfig()}
	for i := range b.templates {
		t := &b.templates[i]
		m, resp, err := r.newSimModel(t.src, "")
		if err != nil {
			return err
		}
		if t.create, _, err = decodeResponse(http.StatusOK, resp); err != nil {
			return err
		}
		t.fwd = make([]digest, t.ops+1)
		t.back = make([]digest, t.ops+1)
		for p := 1; p <= t.ops; p++ {
			if t.fwd[p], _, err = decodeResponse(http.StatusOK, m.step("forward", "")); err != nil {
				return err
			}
		}
		for p := t.ops - 1; p >= 0; p-- {
			if t.back[p], _, err = decodeResponse(http.StatusOK, m.step("backward", "")); err != nil {
				return err
			}
		}
	}
	b.plan = newChurnPlan(b.seed, b.shape, len(b.templates))
	return nil
}

func (b *churn) ops(tmpl int) int { return b.templates[tmpl].ops }

// peakAt is the peak node count of a session that has been as far as
// position furthest.
func (b *churn) peakAt(tmpl, furthest int) int {
	t := &b.templates[tmpl]
	if furthest == 0 {
		return t.create.peak
	}
	return t.fwd[furthest].peak
}

func (b *churn) pass(rec *recorder) error {
	b.cli.rec = rec
	if b.start.IsZero() {
		b.start = time.Now()
	}
	for n := 0; n < b.shape.block; n++ {
		due := b.start.Add(time.Duration(b.sent) * b.shape.interval)
		b.sent++
		// Timers fire up to a millisecond late, so the generator sleeps
		// to within 1.5 ms of the due time and spins from there.
		if wait := time.Until(due); wait > 2*time.Millisecond {
			time.Sleep(wait - 1500*time.Microsecond)
		}
		for time.Now().Before(due) {
		}
		rec.late = append(rec.late, float64(time.Since(due))/1e6)
		op := b.plan.next(b.ops)
		kind := strings.TrimSpace(op.kind + " " + op.action)
		if b.do(rec, op, due) {
			kind += " restored"
		}
		rec.kind(kind)
	}
	rec.endPass()
	return nil
}

// do sends one scheduled request and checks its response. It reports
// whether the request restored a spilled session.
func (b *churn) do(rec *recorder, op churnOp, due time.Time) bool {
	switch op.kind {
	case "metrics":
		code, body := b.cli.do("GET", "/metrics", "", opScrape, due)
		if code != http.StatusOK || !strings.Contains(string(body), "http_requests_total") {
			rec.fail("GET /metrics: status %d, %d bytes", code, len(body))
		}
	case "top":
		code, body := b.cli.do("GET", "/debug/sessions/top", "", opScrape, due)
		var top struct {
			Sessions []json.RawMessage `json:"sessions"`
		}
		if code != http.StatusOK || json.Unmarshal(body, &top) != nil || len(top.Sessions) == 0 {
			rec.fail("GET /debug/sessions/top: status %d, %d bytes", code, len(body))
		}
	case "create":
		t := &b.templates[b.plan.slots[op.slot].tmpl]
		code, body := b.cli.do("POST", "/api/simulation", jsonBody(map[string]string{"code": t.src}), opCreate, due)
		d, a, err := decodeResponse(code, body)
		if err == nil {
			if diff := d.diff(t.create); diff != "" {
				err = fmt.Errorf("%s", diff)
			}
		}
		if err != nil {
			rec.fail("create %s: %v", t.label, err)
		}
		b.plan.created(op.slot, a.ID)
		if err != nil {
			b.plan.slots[op.slot].needCreate = true
		}
	case "step":
		return b.step(rec, op, due)
	}
	return false
}

func (b *churn) step(rec *recorder, op churnOp, due time.Time) (restored bool) {
	s := &b.plan.slots[op.slot]
	t := &b.templates[s.tmpl]
	restores := b.restores.Value()
	code, body := b.cli.do("POST", "/api/simulation/"+s.id+"/step", jsonBody(map[string]string{"action": op.action}), opStep, due)
	if b.restores.Value() > restores {
		restored = true
		s.restoredAt = s.pos // this request restored the session
	}
	d, _, err := decodeResponse(code, body)
	if err != nil {
		rec.fail("%s %s: %v", t.label, op.action, err)
		s.needCreate = true
		return
	}
	var to int
	var want digest
	if op.action == "forward" {
		to = s.pos + 1
		want = t.fwd[to]
	} else {
		to = s.pos - 1
		want = t.back[to]
	}
	furthest := s.furthest
	if to > furthest {
		furthest = to
	}
	want.peak = b.peakAt(s.tmpl, furthest)
	if diff := d.diff(want); diff != "" {
		if op.action == "backward" && d.status == http.StatusOK && d.pos == s.pos && s.restoredAt == s.pos {
			// The documented defect: a session restored from a spill
			// has no undo history from before the restore, so backward
			// at the restore point answers "stepped backward" without
			// moving. The user reloads the session.
			rec.defect("%s: backward at position %d after a restore did not move (%s)", t.label, s.pos, diff)
		} else {
			rec.fail("%s %s at position %d: %s", t.label, op.action, s.pos, diff)
		}
		s.needCreate = true
		return
	}
	b.plan.moved(op.slot, to)
	return
}

// finish reads the server's restore counter.
func (b *churn) finish(rec *recorder) {
	b.reg.VisitSeries(func(p obs.SeriesPoint) {
		if p.Name == "session_restores_total" {
			rec.restores += p.Value
		}
	})
}

// replay runs one block of the workload's request sequence through the
// models: step and create requests as in the other workloads, plus a
// snapshot encode for every session the live-session cap evicts and a
// decode and resume for every request to a spilled session.
func (b *churn) replay(r *replayer) error {
	if b.rplan == nil {
		store, err := snapshot.OpenStore(b.rdir, 0, nil)
		if err != nil {
			return err
		}
		b.rstore = store
		b.rplan = newChurnPlan(b.seed, b.shape, len(b.templates))
		b.lru = make(map[int]*churnEntry)
		b.slotS = make([]int, len(b.rplan.slots))
	}
	for _, e := range b.lru {
		if e.model != nil {
			e.model.r = r
		}
	}
	for n := 0; n < b.shape.block; n++ {
		op := b.rplan.next(b.ops)
		switch op.kind {
		case "create":
			r.t.beginReq()
			m, _, err := r.newSimModel(b.templates[b.rplan.slots[op.slot].tmpl].src, "")
			if err != nil {
				return err
			}
			b.serial++
			if err := b.admit(r, b.serial, &churnEntry{model: m}); err != nil {
				return err
			}
			b.slotS[op.slot] = b.serial
			b.rplan.created(op.slot, "")
		case "step":
			r.t.beginReq()
			e, err := b.acquire(r, b.slotS[op.slot])
			if err != nil {
				return err
			}
			before := e.model.s.Pos()
			e.model.step(op.action, "")
			if after := e.model.s.Pos(); after == before {
				b.rplan.slots[op.slot].needCreate = true // the restore defect, as in the loop
			} else {
				b.rplan.moved(op.slot, after)
			}
		}
	}
	return nil
}

// acquire returns a resident session, restoring a spilled one: fetch
// from the store, decode and resume, and drop the stale snapshot.
func (b *churn) acquire(r *replayer, serial int) (*churnEntry, error) {
	e := b.lru[serial]
	b.clock++
	if e.model == nil {
		id := strconv.Itoa(serial)
		t0 := r.t.now()
		blob, err := b.rstore.Get(id)
		r.t.end(layerSnapRestore, t0)
		if err != nil {
			return nil, err
		}
		m, err := r.restoreSimModel(blob)
		if err != nil {
			return nil, err
		}
		t0 = r.t.now()
		err = b.rstore.Delete(id)
		r.t.end(layerSnapRestore, t0)
		if err != nil {
			return nil, err
		}
		delete(b.lru, serial)
		if err := b.admit(r, serial, &churnEntry{model: m}); err != nil {
			return nil, err
		}
		e = b.lru[serial]
	}
	e.lastUse = b.clock
	return e, nil
}

// admit makes a session resident, spilling the least recently used
// one when the cap is reached, as the server's registry does. The
// server writes the snapshot in the background, off the request path,
// so the store write is not part of any span.
func (b *churn) admit(r *replayer, serial int, e *churnEntry) error {
	b.clock++
	if b.resident >= b.shape.maxSessions {
		victim, oldest := -1, 0
		for s, x := range b.lru {
			if x.model != nil && (victim < 0 || x.lastUse < oldest) {
				victim, oldest = s, x.lastUse
			}
		}
		v := b.lru[victim]
		if err := b.rstore.Put(strconv.Itoa(victim), v.model.spill()); err != nil {
			return err
		}
		v.model = nil
		b.resident--
	}
	e.lastUse = b.clock
	b.lru[serial] = e
	b.resident++
	return nil
}

func (b *churn) close() {
	b.srv.Close()
	os.RemoveAll(b.dir)
}
