package main

// The cli-batch workload: a closed loop over ddsim and ddverify jobs
// run through the CLI entry points, where the DD engine does nearly
// all the work and nothing is rendered.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/cli"
	"quantumdd/internal/core"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
)

type cliJob struct {
	label   string
	verify  bool     // ddverify on files[0] vs files[1]; otherwise ddsim on files[0]
	files   []string // circuit files, written at set-up
	seed    int64
	noise   float64 // > 0: trajectory mode
	traj    int
	workers int
	want    []string // reference lines the job's output must contain
}

func (j *cliJob) args() []string {
	if j.verify {
		return []string{j.files[0], j.files[1]}
	}
	a := []string{"-seed", strconv.FormatInt(j.seed, 10)}
	if j.noise > 0 {
		a = append(a, "-noise", strconv.FormatFloat(j.noise, 'g', -1, 64),
			"-trajectories", strconv.Itoa(j.traj), "-workers", strconv.Itoa(j.workers))
	}
	return append(a, j.files[0])
}

// header is the number of lines the tool prints before its engine
// runs: ddsim's circuit summary, ddverify's two circuit lines.
func (j *cliJob) header() int {
	switch {
	case j.verify:
		return 2
	case j.noise > 0:
		return 0
	}
	return 1
}

// reportWriter is a CLI job's standard output. It notes when the tool
// starts printing past its header: from then until the tool returns,
// it renders its report.
type reportWriter struct {
	buf    bytes.Buffer
	header int
	lines  int
	start  time.Time // the first write past the header; zero until then
}

func (w *reportWriter) reset(header int) {
	w.buf.Reset()
	w.header, w.lines, w.start = header, 0, time.Time{}
}

func (w *reportWriter) Write(p []byte) (int, error) {
	if w.start.IsZero() && w.lines >= w.header {
		w.start = time.Now()
	}
	w.lines += bytes.Count(p, []byte{'\n'})
	return w.buf.Write(p)
}

type cliBatch struct {
	dir  string // the job files
	jobs []*cliJob
	out  reportWriter
	errb bytes.Buffer
}

// batchJobs generates the job list. The seed picks marked elements,
// inputs, random circuits and sampling seeds, not sizes. The jobs span two orders of magnitude; the four small random
// circuits stay below the two verification jobs, so the median job is
// always one of those two.
func batchJobs(seed int64, small bool) []struct {
	job   *cliJob
	circs []*qc.Circuit
} {
	ent, entLayers, grover, qft, rnd, rndLayers, vqft, noisyN, traj := 12, 2, 10, 16, 7, 6, []int{8, 10}, 8, 400
	if small {
		ent, entLayers, grover, qft, rnd, rndLayers, vqft, noisyN, traj = 6, 2, 4, 5, 4, 3, []int{3, 4}, 4, 40
	}
	s := uint64(seed)
	next := func() uint64 { s = mix64(s); return s }
	roundTrip := func(c *qc.Circuit) *qc.Circuit {
		inv, err := c.Inverse()
		if err != nil {
			panic(err)
		}
		c.Ops = append(c.Ops, inv.Ops...)
		return c
	}
	qftIn := qc.New(qft, 0)
	for q := 0; q < qft; q++ {
		if next()&1 == 1 {
			qftIn.X(q)
		}
	}
	qftIn.Ops = append(qftIn.Ops, roundTrip(algorithms.QFT(qft)).Ops...)
	type entry = struct {
		job   *cliJob
		circs []*qc.Circuit
	}
	sim := func(label string, c *qc.Circuit) entry {
		return entry{&cliJob{label: label, seed: int64(next() >> 1)}, []*qc.Circuit{c}}
	}
	jobs := []entry{
		// The compute-uncompute instance keeps fixed angles: its cost
		// swings by more than half between angle draws, which would
		// drown any engine change in seed noise.
		sim(fmt.Sprintf("entangled%d-roundtrip", ent), roundTrip(algorithms.Entangled(ent, entLayers, 1))),
		sim(fmt.Sprintf("grover%d", grover), algorithms.Grover(grover, next()%(1<<grover))),
		sim(fmt.Sprintf("qft%d-roundtrip", qft), qftIn),
	}
	for i := 0; i < 4; i++ {
		jobs = append(jobs, sim(fmt.Sprintf("random%d-%d", rnd, i), algorithms.RandomCircuit(rnd, rndLayers, int64(next()>>1))))
	}
	for _, n := range vqft {
		jobs = append(jobs, entry{&cliJob{label: fmt.Sprintf("verify-qft%d", n), verify: true},
			[]*qc.Circuit{algorithms.QFT(n), algorithms.QFTCompiled(n)}})
	}
	// Enough noise that the report always lists its full top-16 outcome
	// table.
	noisy := sim(fmt.Sprintf("noisy-ghz%d", noisyN), algorithms.GHZ(noisyN))
	noisy.job.noise, noisy.job.traj, noisy.job.workers = 0.05, traj, 2
	return append(jobs, noisy)
}

func newCLIBatch(o options) (bench, error) {
	dir, err := os.MkdirTemp(o.workDir, "jobs-")
	if err != nil {
		return nil, err
	}
	b := &cliBatch{dir: dir}
	for i, e := range batchJobs(o.seed, o.small) {
		for k, c := range e.circs {
			path := filepath.Join(dir, fmt.Sprintf("job%d-%d.qasm", i, k))
			if err := os.WriteFile(path, []byte(c.QASM()), 0o644); err != nil {
				return nil, err
			}
			e.job.files = append(e.job.files, path)
		}
		b.jobs = append(b.jobs, e.job)
	}
	// Warm-up: one small job, untimed.
	warm := filepath.Join(dir, "warm.qasm")
	if err := os.WriteFile(warm, []byte(algorithms.GHZ(3).QASM()), 0o644); err != nil {
		return nil, err
	}
	if code := cli.RunDdsim([]string{warm}, &b.out.buf, &b.errb); code != 0 {
		return nil, fmt.Errorf("warm-up ddsim exited %d: %s", code, b.errb.String())
	}
	return b, nil
}

// prepare computes each job's expected report lines from the engines
// directly: the final and peak node counts and classical register of
// a simulation, the equivalence verdict and its statistics, and the
// outcome histogram of a noisy run at one worker, which the trajectory
// pool reproduces exactly at any width.
func (b *cliBatch) prepare() error {
	for _, j := range b.jobs {
		want, err := runJob(nil, &replayStats{}, j, 1)
		if err != nil {
			return err
		}
		j.want = want
	}
	return nil
}

// runJob runs a job through the layers' public functions — load the
// circuit files and run the engine, with a span around each — and
// renders the report lines ddsim or ddverify prints.
func runJob(t *tracer, st *replayStats, j *cliJob, workers int) ([]string, error) {
	st.jobs++
	t.beginReq()
	defer t.endReq()
	t0 := t.now()
	circ, err := core.LoadCircuitFile(j.files[0], "")
	var right *qc.Circuit
	if err == nil && j.verify {
		right, err = core.LoadCircuitFile(j.files[1], "")
	}
	t.end(layerCLIParse, t0)
	if err != nil {
		return nil, err
	}
	var lines []string
	t0 = t.now()
	switch {
	case j.verify:
		p := dd.New(circ.NQubits)
		res, err := verify.CheckOnCtx(context.Background(), p, circ, right, verify.Proportional)
		t.end(layerCLIEngine, t0)
		if err != nil {
			return nil, err
		}
		if !res.Equivalent {
			return nil, fmt.Errorf("%s: the verifier finds the pair not equivalent", j.label)
		}
		st.addEngine(p)
		st.noteDiagram(res.FinalNodes, res.PeakNodes)
		result := "result: EQUIVALENT"
		if res.UpToGlobalPhase {
			result += " up to a global phase"
		}
		lines = []string{fmt.Sprintf("strategy: %s, peak %d nodes, final %d nodes, %d multiplications (%d kernel, %d generic)",
			res.Strategy, res.PeakNodes, res.FinalNodes, res.MultOps, res.KernelOps, res.GenericOps), result}
	case j.noise > 0:
		start := time.Now()
		res, err := sim.RunNoisy(circ, sim.NoiseModel{Depolarizing: j.noise}, j.traj, j.seed, sim.WithWorkers(workers))
		t.end(layerCLIEngine, t0)
		if err != nil {
			return nil, err
		}
		st.trajectories += j.traj
		st.poolSeconds += time.Since(start).Seconds()
		lines = []string{fmt.Sprintf("noisy simulation: %d trajectories on %d workers, depolarizing p=%g, %d error events, mean %d-qubit DD %.1f nodes",
			res.Trajectories, j.workers, j.noise, res.ErrorEvents, circ.NQubits, res.MeanNodes)}
		lines = append(lines, histogramLines(res.Counts, res.Trajectories, circ.NQubits)...)
	default:
		s := sim.New(circ, sim.WithSeed(j.seed))
		for !s.AtEnd() {
			if _, err := s.StepForwardCtx(context.Background()); err != nil {
				return nil, err
			}
		}
		t.end(layerCLIEngine, t0)
		st.addEngine(s.Pkg())
		st.noteDiagram(dd.SizeV(s.State()), s.PeakNodes())
		lines = []string{fmt.Sprintf("final DD: %d nodes, peak %d nodes (dense state would hold %d amplitudes)",
			dd.SizeV(s.State()), s.PeakNodes(), int64(1)<<uint(circ.NQubits))}
		if circ.NClbits > 0 {
			line := "classical register (c[i], -1 = never measured):"
			for i, bit := range s.Classical() {
				line += fmt.Sprintf(" c[%d]=%d", i, bit)
			}
			lines = append(lines, line)
		}
	}
	return lines, nil
}

// histogramLines renders the most frequent outcomes the way ddsim
// reports a trajectory ensemble.
func histogramLines(counts map[int64]int, total, nq int) []string {
	type kv struct {
		idx int64
		n   int
	}
	var rows []kv
	for idx, n := range counts {
		rows = append(rows, kv{idx, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].idx < rows[j].idx
	})
	var out []string
	for i, r := range rows {
		if i == 16 {
			break
		}
		out = append(out, fmt.Sprintf("  |%0*b>  %6d  (%.2f%%)", nq, r.idx, r.n, 100*float64(r.n)/float64(total)))
	}
	return out
}

func (b *cliBatch) pass(rec *recorder) error {
	for _, j := range b.jobs {
		b.out.reset(j.header())
		b.errb.Reset()
		run := cli.RunDdsim
		if j.verify {
			run = cli.RunDdverify
		}
		args := j.args()
		cpu0 := cpuNow()
		t0 := time.Now()
		code := run(args, &b.out, &b.errb)
		end := time.Now()
		cpu := cpuNow() - cpu0
		rec.add(opSample{wall: end.Sub(t0), cpu: cpu, bytes: b.out.buf.Len(), kind: opJob})
		if !b.out.start.IsZero() {
			rec.reportWall += end.Sub(b.out.start)
		}
		rec.label(j.label)
		if code != 0 {
			rec.fail("%s: exit %d: %s", j.label, code, strings.TrimSpace(b.errb.String()))
			continue
		}
		lines := map[string]bool{}
		for _, l := range strings.Split(b.out.buf.String(), "\n") {
			lines[l] = true
		}
		for _, w := range j.want {
			if !lines[w] {
				rec.fail("%s: output lacks the reference line %q", j.label, w)
				break
			}
		}
	}
	rec.endPass()
	return nil
}

// replay runs each job's phases through the layers at the pool
// width the job asks for.
func (b *cliBatch) replay(r *replayer) error {
	for _, j := range b.jobs {
		if _, err := runJob(r.t, r.st, j, j.workers); err != nil {
			return err
		}
	}
	return nil
}

func (b *cliBatch) finish(rec *recorder) {}
func (b *cliBatch) close()               { os.RemoveAll(b.dir) }
