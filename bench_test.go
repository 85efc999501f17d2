package quantumdd_test

// One benchmark per paper artifact (see DESIGN.md's per-experiment
// index): each BenchmarkE*/BenchmarkA* drives the corresponding
// experiment from internal/bench, so `go test -bench=.` regenerates
// every figure/example of the paper and times it. The Benchmark*Micro
// functions additionally time the hot primitives of the DD engine.

import (
	"io"
	"math/rand"
	"strconv"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/bench"
	"quantumdd/internal/dd"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkE1BellStateDD(b *testing.B)             { runExperiment(b, "E1") }
func BenchmarkE2GateDDs(b *testing.B)                 { runExperiment(b, "E2") }
func BenchmarkE3Kron(b *testing.B)                    { runExperiment(b, "E3") }
func BenchmarkE4Simulation(b *testing.B)              { runExperiment(b, "E4") }
func BenchmarkE5QFTFunctionality(b *testing.B)        { runExperiment(b, "E5") }
func BenchmarkE6AlternatingVerification(b *testing.B) { runExperiment(b, "E6") }
func BenchmarkE7Visualization(b *testing.B)           { runExperiment(b, "E7") }
func BenchmarkE8Scaling(b *testing.B)                 { runExperiment(b, "E8") }
func BenchmarkE9Sampling(b *testing.B)                { runExperiment(b, "E9") }
func BenchmarkE10Teleport(b *testing.B)               { runExperiment(b, "E10") }
func BenchmarkA1ToleranceAblation(b *testing.B)       { runExperiment(b, "A1") }
func BenchmarkA2CacheAblation(b *testing.B)           { runExperiment(b, "A2") }
func BenchmarkA3StrategyAblation(b *testing.B)        { runExperiment(b, "A3") }
func BenchmarkA4NormalizationAblation(b *testing.B)   { runExperiment(b, "A4") }
func BenchmarkA5ApproximationSweep(b *testing.B)      { runExperiment(b, "A5") }
func BenchmarkA6VariableOrderSifting(b *testing.B)    { runExperiment(b, "A6") }
func BenchmarkK1KernelVsGeneric(b *testing.B)         { runExperiment(b, "K1") }
func BenchmarkK2PeepholeFusion(b *testing.B)          { runExperiment(b, "K2") }

// --- micro benchmarks of the DD engine primitives ---

// BenchmarkMicroGHZSimulation measures DD simulation of a structured
// 20-qubit state, where diagrams stay linear in n.
func BenchmarkMicroGHZSimulation(b *testing.B) {
	circ := algorithms.GHZ(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(circ)
		if _, err := s.RunToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroDDvsDense race: DD simulation of QFT(10) against the
// dense in-place baseline — the crossover study behind E8.
func BenchmarkMicroQFT10DD(b *testing.B) {
	circ := algorithms.QFT(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(circ)
		if _, err := s.RunToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroQFT10Dense(b *testing.B) {
	circ := algorithms.QFT(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := linalg.ZeroState(circ.NQubits)
		for j := range circ.Ops {
			op := &circ.Ops[j]
			if op.Kind != qc.KindGate {
				continue
			}
			var pos []int
			for _, c := range op.Controls {
				pos = append(pos, c.Qubit)
			}
			if op.Gate == qc.Swap {
				x := qc.Matrix2(qc.X, nil)
				a, t := op.Targets[0], op.Targets[1]
				linalg.ApplyControlledGate(v, x, t, append(append([]int{}, pos...), a), nil)
				linalg.ApplyControlledGate(v, x, a, append(append([]int{}, pos...), t), nil)
				linalg.ApplyControlledGate(v, x, t, append(append([]int{}, pos...), a), nil)
				continue
			}
			linalg.ApplyControlledGate(v, qc.Matrix2(op.Gate, op.Params), op.Targets[0], pos, nil)
		}
	}
}

// BenchmarkMicroMultMV times a single gate application on a wide
// structured state.
func BenchmarkMicroMultMV(b *testing.B) {
	p := dd.New(24)
	circ := algorithms.GHZ(24)
	s := sim.New(circ)
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	state := s.State()
	pkg := s.Pkg()
	h := pkg.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.H, nil)), 12)
	_ = p
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pkg.MultMV(h, state)
	}
}

// BenchmarkMicroApplyGate times the direct gate-application kernel on
// the same wide structured state as BenchmarkMicroMultMV — the same
// logical operation without the matrix diagram.
func BenchmarkMicroApplyGate(b *testing.B) {
	s := sim.New(algorithms.GHZ(24))
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	state := s.State()
	pkg := s.Pkg()
	h := dd.GateMatrix(qc.Matrix2(qc.H, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pkg.ApplyGate(state, h, 12)
	}
}

// BenchmarkMicroGateDDMultMV is the full generic baseline the kernel
// replaces: fetch (or build) the gate diagram, then multiply.
func BenchmarkMicroGateDDMultMV(b *testing.B) {
	s := sim.New(algorithms.GHZ(24))
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	state := s.State()
	pkg := s.Pkg()
	h := dd.GateMatrix(qc.Matrix2(qc.H, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pkg.MultMV(pkg.MakeGateDD(h, 12), state)
	}
}

// rotationLadderCirc mirrors the compiled-circuit shape of the K2
// experiment: per layer an rz·ry·rz Euler run on every qubit, then a
// CX ring.
func rotationLadderCirc(n, layers int) *qc.Circuit {
	c := qc.New(n, 0)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			a := 0.3 + 0.1*float64(l*n+q)
			c.Gate(qc.RZ, []float64{a}, q)
			c.Gate(qc.RY, []float64{a / 2}, q)
			c.Gate(qc.RZ, []float64{a / 3}, q)
		}
		for q := 0; q < n; q++ {
			c.CX(q, (q+1)%n)
		}
	}
	return c
}

// BenchmarkMicroSimRotations / ...Fused time the rotation ladder with
// and without peephole fusion.
func BenchmarkMicroSimRotations(b *testing.B) {
	circ := rotationLadderCirc(12, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(circ)
		if _, err := s.RunToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroSimRotationsFused(b *testing.B) {
	circ := rotationLadderCirc(12, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(circ, sim.WithFusion())
		if _, err := s.RunToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroSimGHZGeneric pins the pre-kernel simulation path so
// the GHZ pair (with BenchmarkMicroGHZSimulation, which now uses the
// kernel) tracks the hot-path speedup end to end.
func BenchmarkMicroSimGHZGeneric(b *testing.B) {
	circ := algorithms.GHZ(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(circ, sim.WithGenericApply())
		if _, err := s.RunToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroAddV times vector addition of two structurally
// distinct wide states (GHZ ± phase layer), the second hot primitive
// of DD simulation next to MultMV.
func BenchmarkMicroAddV(b *testing.B) {
	s := sim.New(algorithms.GHZ(24))
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	pkg := s.Pkg()
	a := s.State()
	t := pkg.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.T, nil)), 7)
	c := pkg.MultMV(t, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pkg.AddV(a, c)
	}
}

// BenchmarkMicroSample times single-path weak simulation on GHZ(24).
func BenchmarkMicroSample(b *testing.B) {
	s := sim.New(algorithms.GHZ(24))
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	state := s.State()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dd.Sample(state, rng)
	}
}

// BenchmarkMicroVerifyQFT6 times the proportional alternating check.
func BenchmarkMicroVerifyQFT6(b *testing.B) {
	qft := algorithms.QFT(6)
	comp := algorithms.QFTCompiled(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := verify.Check(qft, comp, verify.Proportional)
		if err != nil || !res.Equivalent {
			b.Fatalf("verification failed: %v %v", res, err)
		}
	}
}

// BenchmarkMicroVerifyQFT6Generic is the same check on the generic
// MultMM oracle — the baseline of the matrix-apply kernel pair.
func BenchmarkMicroVerifyQFT6Generic(b *testing.B) {
	qft := algorithms.QFT(6)
	comp := algorithms.QFTCompiled(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := verify.Check(qft, comp, verify.Proportional, verify.WithGenericMM())
		if err != nil || !res.Equivalent {
			b.Fatalf("verification failed: %v %v", res, err)
		}
	}
}

// BenchmarkMicroRenderQFT times layout + SVG of the 21-node QFT DD.
func BenchmarkMicroRenderQFT(b *testing.B) {
	p := dd.New(3)
	u, _, err := verify.BuildFunctionality(p, algorithms.QFT(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := vis.FromMatrix(u)
		_ = g.SVG(vis.Style{Mode: vis.Colored})
	}
}

// BenchmarkMicroRenderFrames times vis.FrameSVG (layout and markup) at
// the frame sizes the web tool serves, in Classic style with a
// caption: the 1365-node QFT(6) functionality of the verification tab
// and every state of a QFT(8) simulation stepped op by op.
func BenchmarkMicroRenderFrames(b *testing.B) {
	style := vis.Style{Mode: vis.Classic}
	b.Run("QFT6Matrix", func(b *testing.B) {
		u, _, err := verify.BuildFunctionality(dd.New(6), algorithms.QFT(6))
		if err != nil {
			b.Fatal(err)
		}
		g := vis.FromMatrix(u)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = vis.FrameSVG(g, style, "functionality of qft_6")
		}
	})
	b.Run("QFT8States", func(b *testing.B) {
		s := sim.New(algorithms.QFT(8))
		graphs := []*vis.Graph{vis.FromVector(s.State())}
		for !s.AtEnd() {
			if _, err := s.StepForward(); err != nil {
				b.Fatal(err)
			}
			graphs = append(graphs, vis.FromVector(s.State()))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, g := range graphs {
				_ = vis.FrameSVG(g, style, "op "+strconv.Itoa(k))
			}
		}
	})
}
