package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables are
// the benchmark's contract: a run with -trace 0 prints exactly the
// end-to-end table, a run with -trace 1 exactly the per-layer table,
// on every workload. BENCHMARK.json at the repository root lists the
// same names; the self-test checks that they agree.
type metricDef struct {
	name string
	unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"req_p50_ms", "ms"},
	{"create_p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"resp_kb_per_req", "KiB"},
	{"batch_s", "s"},
	{"batch_cpu_s", "s"},
	{"heap_live_mb", "MiB"},
}

var perLayerMetrics = []metricDef{
	{"vis.graph_us_per_frame", "us"},
	{"vis.svg_us_per_frame", "us"},
	{"vis.svg_kb_per_frame", "KiB"},
	{"web.stats_us_per_frame", "us"},
	{"web.encode_us_per_frame", "us"},
	{"web.revisit_frac", "frac"},
	{"web.handler_us_per_req", "us"},
	{"web.unattributed_us_per_req", "us"},
	{"web.unattributed_frac", "frac"},
	{"web.restores_per_req", "count"},
	{"sim.step_us_per_req", "us"},
	{"sim.pool_traj_per_s", "1/s"},
	{"qasm.parse_us_per_create", "us"},
	{"verify.apply_us_per_req", "us"},
	{"verify.kernel_ops_per_req", "count"},
	{"verify.generic_ops_per_req", "count"},
	{"dd.nodes_per_frame", "count"},
	{"dd.peak_nodes", "count"},
	{"dd.apply_ct_hit_ratio", "frac"},
	{"dd.applym_ct_hit_ratio", "frac"},
	{"cli.parse_ms_per_job", "ms"},
	{"cli.engine_ms_per_job", "ms"},
	{"cli.report_ms_per_job", "ms"},
	{"snapshot.encode_us_per_spill", "us"},
	{"snapshot.restore_us_per_restore", "us"},
	{"snapshot.kb_per_spill", "KiB"},
	{"obs.scrape_ms", "ms"},
	{"obs.scrape_kb", "KiB"},
	{"req_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.due_p50_ms", "ms"},
	{"loadgen.due_p99_ms", "ms"},
	{"failed_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuNow returns the process's user plus system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work on
// the workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
