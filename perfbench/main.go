// Command perfbench is the repository's end-to-end benchmark. Each
// workload drives scripted sessions through the web tool's real HTTP
// handler (in process, no sockets) or runs jobs through the real CLI
// entry points, checks every response and result against a reference
// computed through the layers' public functions, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload sim-step --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced replay of the same script splits the cost by layer. See
// README.md in this directory for the metrics, workloads and layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // minimal sizes, for the self-test
	workDir  string // scratch directory for spill files and CLI inputs
	traceOut string // Chrome trace-event file for the replay's spans ("" = none)
}

// bench is one workload instance, set up and ready to run.
type bench interface {
	// prepare computes the reference outputs; it is not timed.
	prepare() error
	// pass runs the workload's script once against the real entry
	// points, timing each operation and checking its output.
	pass(rec *recorder) error
	// replay runs the script once through the layers' public functions.
	replay(r *replayer) error
	// finish reads the program's own counters after the timed loop.
	finish(rec *recorder)
	close()
}

type workloadDef struct {
	name  string
	cli   bool // jobs through the CLI entry points rather than the web handler
	setup func(o options) (bench, error)
}

var workloads = []workloadDef{
	{name: "sim-step", setup: newSimStep},
	{name: "verify-step", setup: newVerifyStep},
	{name: "cli-batch", cli: true, setup: newCLIBatch},
	{name: "session-churn", setup: newChurn},
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sim-step, verify-step, cli-batch or session-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's circuits and scripts are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time of the run")
	flag.IntVar(&traced, "trace", 0, "1: report the per-layer split from a traced replay instead of the end-to-end metrics")
	flag.Parse()
	o.trace = traced == 1
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.workDir = dir
	if o.trace {
		if st, err := os.Stat(".bench_build"); err == nil && st.IsDir() {
			o.traceOut = filepath.Join(".bench_build", "perfbench-trace-"+o.workload+".json")
		}
	}
	out, err := run(o)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// A run sets its workload up at least minSetups times and until
// setupBudget has been spent in set-ups; setup_s is the median. A
// few-millisecond set-up is then timed hundreds of times, so that the
// VM's stalls move single samples rather than the median.
const (
	minSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

func run(o options) (*output, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	repeats, budget := minSetups, setupBudget.Seconds()
	if o.small {
		repeats, budget = 2, 0
	}
	var setups []float64
	var spent float64
	var b bench
	for len(setups) < repeats || spent < budget {
		if b != nil {
			b.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		nb, err := def.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		d := time.Since(start).Seconds()
		setups = append(setups, d)
		spent += d
		b = nb
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d set-ups, median %.4f ms, quartiles %.4f–%.4f ms\n",
		o.workload, len(setups), median(setups)*1e3, quantile(setups, 0.25)*1e3, quantile(setups, 0.75)*1e3)
	defer b.close()
	if err := b.prepare(); err != nil {
		return nil, fmt.Errorf("%s reference: %w", o.workload, err)
	}

	rec := newRecorder()
	loop := o.seconds
	if o.trace {
		loop /= 2 // the other half replays the script traced
	}
	deadline := time.Now().Add(time.Duration(loop * float64(time.Second)))
	for passes := 0; passes < 1 || time.Now().Before(deadline); passes++ {
		if err := b.pass(rec); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
	}
	b.finish(rec)
	var labels []string
	for l := range rec.byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		xs := rec.byLabel[l]
		fmt.Fprintf(os.Stderr, "perfbench: %s: %-28s %6d ops  median %.4f ms  p99 %.4f ms\n",
			o.workload, l, len(xs), median(xs), quantile(xs, 0.99))
	}
	for _, m := range rec.messages {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, m)
	}
	if rec.knownDefects > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d operation(s) hit the documented backward-after-restore defect\n",
			o.workload, rec.knownDefects)
	}
	out := &output{Correct: rec.unexpected == 0, Attempted: rec.attempted, Failed: rec.failed}
	if !o.trace {
		out.Metrics = endToEnd(rec, setups)
		// The client's samples grow with the operations a run manages;
		// they are not the program's memory.
		rec.ops, rec.byLabel, rec.late, rec.due, rec.posWall, rec.passKinds = nil, nil, nil, nil, nil, nil
		out.Metrics["heap_live_mb"] = metricValue{liveHeapMiB(), "MiB"}
		return out, nil
	}
	m, err := traceLayers(o, def, b, rec)
	if err != nil {
		return nil, err
	}
	out.Metrics = m
	return out, nil
}

// liveHeapMiB is the live heap after a forced collection, while the
// workload's server and sessions are still alive.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func endToEnd(rec *recorder, setups []float64) map[string]metricValue {
	var all, creates []float64
	var bytes int64
	for _, s := range rec.ops {
		ms := float64(s.wall) / 1e6
		all = append(all, ms)
		if s.kind == opCreate || s.kind == opJob {
			creates = append(creates, ms)
		}
		bytes += int64(s.bytes)
	}
	n := float64(len(rec.ops))
	return map[string]metricValue{
		"setup_s":         {median(setups), "s"},
		"req_p50_ms":      {quantile(all, 0.5), "ms"},
		"create_p50_ms":   {quantile(creates, 0.5), "ms"},
		"cpu_ms_per_req":  {median(rec.passCPUPerOp), "ms"},
		"resp_kb_per_req": {ratio(float64(bytes)/1024, n), "KiB"},
		"batch_s":         {typicalPassS(rec), "s"},
		"batch_cpu_s":     {median(rec.passCPU), "s"},
	}
}

// typicalPassS is the service time of a typical pass: the sum, over a
// pass's operations, of the median service time of the same operation
// over the run. A VM stall of milliseconds then moves one sample of one
// operation rather than the pass it fell in. In the closed loops every
// pass runs the same script, and the same operation is the one at the
// same place in it. The open loop's passes never repeat: there the same
// operation is one of the same kind (a restoring step is a kind of its
// own), and the figure is the median over passes.
func typicalPassS(rec *recorder) float64 {
	if len(rec.passKinds) == 0 {
		var s float64
		for _, xs := range rec.posWall {
			s += median(xs)
		}
		return s
	}
	kindMedian := make(map[string]float64, len(rec.byLabel))
	for k, ms := range rec.byLabel {
		kindMedian[k] = median(ms) / 1e3
	}
	var passes []float64
	for _, kinds := range rec.passKinds {
		var s float64
		for k, n := range kinds {
			s += float64(n) * kindMedian[k]
		}
		passes = append(passes, s)
	}
	return median(passes)
}

// p99Window is the number of operations each p99 is taken over: ten
// samples lie beyond it.
const p99Window = 1000

// windowedP99 is the median of the p99s of consecutive windows of
// p99Window operations (in the order they ran), or the plain p99 of a
// run too short for two windows. The VM a run shares stalls for
// milliseconds at times; a burst of stalls then sets the tail of one
// window rather than of the whole run.
func windowedP99(ms []float64) float64 {
	if len(ms) < 2*p99Window {
		return quantile(append([]float64(nil), ms...), 0.99)
	}
	var p99s []float64
	for i := 0; i+p99Window <= len(ms); i += p99Window {
		p99s = append(p99s, quantile(append([]float64(nil), ms[i:i+p99Window]...), 0.99))
	}
	return median(p99s)
}

// traceLayers replays the script through the layers, alternating
// traced and untraced passes for the rest of the run, and derives the
// per-layer metrics.
func traceLayers(o options, def *workloadDef, b bench, rec *recorder) (map[string]metricValue, error) {
	cfg := benchConfig()
	t := newTracer()
	traced := &replayer{t: t, st: &replayStats{}, cfg: cfg}
	var tracedWall, plainWall time.Duration
	var tracedReqs, plainReqs int
	deadline := time.Now().Add(time.Duration(o.seconds / 2 * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		r := traced
		if i%2 == 1 {
			r = &replayer{st: &replayStats{}, cfg: cfg}
		}
		before := r.st.reqs + r.st.jobs
		start := time.Now()
		if err := b.replay(r); err != nil {
			return nil, fmt.Errorf("%s replay: %w", o.workload, err)
		}
		d, n := time.Since(start), r.st.reqs+r.st.jobs-before
		if i%2 == 1 {
			plainWall += d
			plainReqs += n
		} else {
			tracedWall += d
			tracedReqs += n
		}
	}
	if o.traceOut != "" {
		if err := t.writeChrome(o.traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		}
	}
	st := traced.st
	us := func(l layer, per int) float64 { return ratio(float64(t.self[l])/1e3, float64(per)) }
	ms := func(l layer, per int) float64 { return ratio(float64(t.self[l])/1e6, float64(per)) }
	v := map[string]float64{
		"vis.graph_us_per_frame":          us(layerVisGraph, st.frames),
		"vis.svg_us_per_frame":            us(layerVisSVG, st.frames),
		"vis.svg_kb_per_frame":            ratio(float64(st.svgBytes)/1024, float64(st.frames)),
		"web.stats_us_per_frame":          us(layerWebStats, st.frames),
		"web.encode_us_per_frame":         us(layerWebEncode, st.frames),
		"web.revisit_frac":                ratio(float64(st.revisits), float64(st.frames)),
		"sim.step_us_per_req":             us(layerSim, st.reqs),
		"sim.pool_traj_per_s":             ratio(float64(st.trajectories), st.poolSeconds),
		"qasm.parse_us_per_create":        us(layerQasm, st.creates),
		"verify.apply_us_per_req":         us(layerVerify, st.reqs),
		"dd.nodes_per_frame":              ratio(float64(st.nodes), float64(st.nodeSamples)),
		"dd.peak_nodes":                   float64(st.peak),
		"dd.apply_ct_hit_ratio":           ratio(float64(st.applyHits), float64(st.applyLookups)),
		"dd.applym_ct_hit_ratio":          ratio(float64(st.applyMHits), float64(st.applyMLookups)),
		"cli.parse_ms_per_job":            ms(layerCLIParse, st.jobs),
		"cli.engine_ms_per_job":           ms(layerCLIEngine, st.jobs),
		"cli.report_ms_per_job":           ratio(float64(rec.reportWall)/1e6, float64(rec.serviceReqs)),
		"snapshot.encode_us_per_spill":    us(layerSnapEncode, st.spills),
		"snapshot.restore_us_per_restore": us(layerSnapRestore, st.restores),
		"snapshot.kb_per_spill":           ratio(float64(st.spillBytes)/1024, float64(st.spills)),
		"obs.scrape_ms":                   ratio(float64(rec.scrapeWall)/1e6, float64(rec.scrapes)),
		"obs.scrape_kb":                   ratio(float64(rec.scrapeBytes)/1024, float64(rec.scrapes)),
		"failed_frac":                     ratio(float64(rec.failed), float64(rec.attempted)),
		"trace.overhead_frac":             ratio(ratio(float64(tracedWall), float64(tracedReqs)), ratio(float64(plainWall), float64(plainReqs))) - 1,
		"verify.kernel_ops_per_req":       ratio(float64(rec.kernelOps), float64(rec.serviceReqs)),
		"web.restores_per_req":            ratio(rec.restores, float64(rec.serviceReqs)),
		"verify.generic_ops_per_req":      ratio(float64(rec.genericOps), float64(rec.serviceReqs)),
	}
	lat := make([]float64, len(rec.ops))
	for i, s := range rec.ops {
		lat[i] = float64(s.wall) / 1e6
	}
	v["req_p99_ms"] = windowedP99(lat)
	// 0 in a closed loop.
	v["loadgen.late_p99_ms"] = quantile(rec.late, 0.99)
	v["loadgen.due_p50_ms"] = quantile(rec.due, 0.5)
	v["loadgen.due_p99_ms"] = quantile(rec.due, 0.99)
	// The handler's time per request, less what the replayed layers
	// account for, is routing, middleware, the session registry,
	// metrics, the flight recorder and the engine's tracer hooks.
	if def.cli {
		v["web.handler_us_per_req"], v["web.unattributed_us_per_req"], v["web.unattributed_frac"] = 0, 0, 0
	} else {
		handler := ratio(float64(rec.serviceWall)/1e3, float64(rec.serviceReqs))
		replayed := ratio(float64(t.layerTotal())/1e3, float64(st.reqs))
		v["web.handler_us_per_req"] = handler
		v["web.unattributed_us_per_req"] = handler - replayed
		v["web.unattributed_frac"] = ratio(handler-replayed, handler)
	}
	out := make(map[string]metricValue, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not computed", d.name)
		}
		out[d.name] = metricValue{x, d.unit}
	}
	return out, nil
}
