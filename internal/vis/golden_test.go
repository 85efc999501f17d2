package vis

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.svg from the current renderer")

// stepState runs the first n operations of circ and returns the state.
func stepState(t *testing.T, circ *qc.Circuit, n int) dd.VEdge {
	t.Helper()
	s := sim.New(circ, sim.WithSeed(1))
	for i := 0; i < n; i++ {
		if _, err := s.StepForward(); err != nil {
			t.Fatal(err)
		}
	}
	return s.State()
}

// TestGoldenSVG pins the renderer's output byte for byte: every style,
// captions with and without markup characters, complex and non-unit
// weights, a matrix diagram, the zero vector and the colour wheel.
// Run with -update to regenerate the files after an intended change.
func TestGoldenSVG(t *testing.T) {
	// Teleport up to the Bell measurement: complex, non-unit weights
	// from the U(θ,φ) payload spread over three levels.
	teleport := FromVector(stepState(t, algorithms.Teleport(1.1, 0.7), 7))
	// QPE(3) before its measurements: phases on every counting qubit.
	qpe := FromVector(stepState(t, algorithms.QPE(3, 0.3), 14))
	p := dd.New(3)
	qft, _, err := verify.BuildFunctionality(p, algorithms.QFT(3))
	if err != nil {
		t.Fatal(err)
	}
	qft3 := FromMatrix(qft)
	zero := FromVector(dd.VZero())

	on := true
	styles := []struct {
		name  string
		style Style
	}{
		{"classic", Style{Mode: Classic}},
		{"colored", Style{Mode: Colored}},
		{"modern", Style{Mode: Modern}},
		{"colored_labels", Style{Mode: Colored, ShowEdgeLabels: &on}},
	}
	graphs := []struct {
		name    string
		g       *Graph
		caption string
	}{
		{"teleport", teleport, "op 6: h q[2]"},
		{"qpe3", qpe, `if (c<2 && c>0) "x" & 'y'`},
		{"qft3", qft3, ""},
		{"zero", zero, "zero vector"},
	}
	cases := map[string]string{"colorwheel_160": ColorWheelSVG(160)}
	for _, gr := range graphs {
		for _, st := range styles {
			cases[gr.name+"_"+st.name] = FrameSVG(gr.g, st.style, gr.caption)
		}
	}
	for name, got := range cases {
		path := filepath.Join("testdata", name+".svg")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run go test -run TestGoldenSVG -update)", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: SVG differs from %s (%d vs %d bytes)", name, path, len(got), len(want))
		}
	}
}
