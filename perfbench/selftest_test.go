package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSelfTest runs every workload at minimal size, untraced and
// traced, and fails on any check failure or missing metric. It takes a
// few seconds:
//
//	go -C perfbench test ./...
func TestSelfTest(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 7, seconds: 0.2, trace: traced, small: true, workDir: t.TempDir()}
			out, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, out.Correct, out.Attempted, out.Failed)
			}
			// Only session-churn may fail operations: the documented
			// backward-after-restore defect.
			if out.Failed > 0 && w.name != "session-churn" {
				t.Errorf("%s trace=%v: %d failed operations", w.name, traced, out.Failed)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := out.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, traced, d.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if _, err := json.Marshal(out); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", w.name, traced, err)
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the
// repository root declares exactly the workloads and metrics this
// program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestTypicalPass checks that a stall in one operation of one pass does
// not count as work, in the closed loops and in the open loop.
func TestTypicalPass(t *testing.T) {
	closed := newRecorder()
	for pass := 0; pass < 3; pass++ {
		for op := 0; op < 2; op++ {
			wall := time.Duration(op+1) * time.Millisecond
			if pass == 1 && op == 0 {
				wall = 50 * time.Millisecond // a stall
			}
			closed.add(opSample{wall: wall})
		}
		closed.endPass()
	}
	if got := typicalPassS(closed); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("closed loop: typical pass %v s, want 0.003", got)
	}
	open := newRecorder()
	for pass := 0; pass < 3; pass++ {
		for op, kind := range []string{"step", "step", "step restored"} {
			wall := time.Millisecond
			if kind == "step restored" {
				wall = 4 * time.Millisecond
			}
			if pass == 2 && op == 0 {
				wall = 50 * time.Millisecond
			}
			open.add(opSample{wall: wall})
			open.kind(kind)
		}
		open.endPass()
	}
	if got := typicalPassS(open); math.Abs(got-0.006) > 1e-12 {
		t.Errorf("open loop: typical pass %v s, want 0.006", got)
	}
}
