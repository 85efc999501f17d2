package vis

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/verify"
)

func bell(t testing.TB) (*dd.Pkg, dd.VEdge) {
	t.Helper()
	p := dd.New(2)
	h := p.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.H, nil)), 1)
	cx := p.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.X, nil)), 0, dd.Control{Qubit: 1})
	return p, p.MultMV(cx, p.MultMV(h, p.ZeroState()))
}

func TestFromVectorStructure(t *testing.T) {
	_, e := bell(t)
	g := FromVector(e)
	// 3 DD nodes + terminal (Fig. 2(a)).
	if g.NodeCount() != 3 {
		t.Fatalf("graph has %d non-terminal nodes, want 3", g.NodeCount())
	}
	if len(g.Nodes) != 4 {
		t.Fatalf("graph has %d nodes incl. terminal, want 4", len(g.Nodes))
	}
	// Bell DD has 4 non-zero edges and 2 zero stubs.
	var zero, solid int
	for _, e := range g.Edges {
		if e.Zero {
			zero++
		} else {
			solid++
		}
	}
	if zero != 2 || solid != 4 {
		t.Fatalf("edges: %d solid, %d stubs; want 4 and 2", solid, zero)
	}
	if g.Levels != 2 {
		t.Fatalf("levels = %d", g.Levels)
	}
}

func TestFromMatrixStructure(t *testing.T) {
	p := dd.New(2)
	cx := p.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.X, nil)), 0, dd.Control{Qubit: 1})
	g := FromMatrix(cx)
	if g.NodeCount() != 3 {
		t.Fatalf("CNOT graph has %d nodes, want 3 (Fig. 2(c))", g.NodeCount())
	}
	// Port counts must be 4 for matrix nodes.
	for _, e := range g.Edges {
		if e.NPorts != 4 {
			t.Fatalf("matrix edge with %d ports", e.NPorts)
		}
	}
}

func TestZeroVectorGraph(t *testing.T) {
	g := FromVector(dd.VZero())
	if len(g.Nodes) != 1 || !g.Nodes[0].Terminal {
		t.Fatalf("zero vector graph malformed: %+v", g.Nodes)
	}
	svg := g.SVG(Style{})
	if !strings.Contains(svg, "<svg") {
		t.Fatal("zero graph does not render")
	}
}

func TestLayoutProducesDistinctPositions(t *testing.T) {
	p := dd.New(3)
	u, _, err := verify.BuildFunctionality(p, algorithms.QFT(3))
	if err != nil {
		t.Fatal(err)
	}
	g := FromMatrix(u)
	w, h := g.Layout()
	if w <= 0 || h <= 0 {
		t.Fatal("degenerate canvas")
	}
	seen := map[[2]int]bool{}
	for _, n := range g.Nodes {
		key := [2]int{int(n.X * 10), int(n.Y * 10)}
		if seen[key] {
			t.Fatalf("two nodes at the same position %v", key)
		}
		seen[key] = true
		if n.X < 0 || n.X > w || n.Y < 0 || n.Y > h {
			t.Fatalf("node outside canvas: (%v,%v) vs %vx%v", n.X, n.Y, w, h)
		}
	}
	// Levels must map to strictly increasing rows top-down.
	yByLevel := map[int]float64{}
	for _, n := range g.Nodes {
		if prev, ok := yByLevel[n.Level]; ok && prev != n.Y {
			t.Fatalf("level %d spread over rows %v and %v", n.Level, prev, n.Y)
		}
		yByLevel[n.Level] = n.Y
	}
	if !(yByLevel[2] < yByLevel[1] && yByLevel[1] < yByLevel[0] && yByLevel[0] < yByLevel[-1]) {
		t.Fatalf("rows not ordered: %v", yByLevel)
	}
}

func TestClassicSVGConventions(t *testing.T) {
	_, e := bell(t)
	g := FromVector(e)
	svg := g.SVG(Style{Mode: Classic})
	// Dashed root edge (weight 1/√2 ≠ 1) and its label.
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Fatal("classic style draws non-unit weights dashed")
	}
	if !strings.Contains(svg, "1/√2") {
		t.Fatal("classic style labels edge weights")
	}
	// 0-stubs drawn as retracted ticks labelled 0.
	if !strings.Contains(svg, ">0</text>") {
		t.Fatal("classic style renders 0-stubs")
	}
	// Node labels q0/q1 and terminal box.
	for _, want := range []string{">q0<", ">q1<", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
}

func TestColoredSVGConventions(t *testing.T) {
	p := dd.New(1)
	// S|+>: phase i on the |1> branch → non-trivial hue.
	h := p.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.H, nil)), 0)
	s := p.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.S, nil)), 0)
	e := p.MultMV(s, p.MultMV(h, p.ZeroState()))
	g := FromVector(e)
	svg := g.SVG(Style{Mode: Colored})
	if strings.Contains(svg, "stroke-dasharray") {
		t.Fatal("colored style must not dash edges")
	}
	if strings.Contains(svg, "1/√2") {
		t.Fatal("colored style must not label weights")
	}
	// Phase i = π/2 → hue 90° → #80ff00.
	if !strings.Contains(svg, PhaseColor(complex(0, 1))) {
		t.Fatalf("svg missing phase color %s:\n%s", PhaseColor(complex(0, 1)), svg)
	}
}

func TestModernSVGHasBars(t *testing.T) {
	_, e := bell(t)
	g := FromVector(e)
	svg := g.SVG(Style{Mode: Modern})
	if !strings.Contains(svg, "rx=\"8\"") {
		t.Fatal("modern style uses rounded nodes")
	}
	if strings.Count(svg, "#35507a") < 2 {
		t.Fatal("modern style draws probability bars")
	}
}

func TestPhaseColorWheel(t *testing.T) {
	cases := []struct {
		w    complex128
		want string
	}{
		{1, "#ff0000"},               // phase 0 → red
		{complex(0, 1), "#80ff00"},   // π/2 → chartreuse
		{-1, "#00ffff"},              // π → cyan
		{complex(0, -1), "#8000ff"},  // 3π/2 → violet
		{complex(0.5, 0), "#ff0000"}, // magnitude ignored
	}
	for _, c := range cases {
		if got := PhaseColor(c.w); got != c.want {
			t.Errorf("PhaseColor(%v) = %s, want %s", c.w, got, c.want)
		}
	}
}

func TestMagnitudeWidth(t *testing.T) {
	if w := MagnitudeWidth(1); math.Abs(w-3) > 1e-9 {
		t.Fatalf("width(1) = %v", w)
	}
	if w1, wHalf := MagnitudeWidth(1), MagnitudeWidth(0.5); wHalf >= w1 {
		t.Fatal("width not monotone in magnitude")
	}
	if w := MagnitudeWidth(1e-6); w < 0.5 {
		t.Fatal("faint edges must keep a visible floor")
	}
	if w := MagnitudeWidth(cmplx.Exp(complex(0, 1)) * 5); w > 3.01 {
		t.Fatal("width must clamp at magnitude 1")
	}
}

func TestColorWheelSVG(t *testing.T) {
	svg := ColorWheelSVG(160)
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "π/2") {
		t.Fatal("color wheel legend malformed")
	}
	if strings.Count(svg, "<path") < 36 {
		t.Fatal("wheel has too few segments")
	}
}

func TestDOTOutput(t *testing.T) {
	_, e := bell(t)
	g := FromVector(e)
	dot := g.DOT(Style{Mode: Classic})
	for _, want := range []string{"digraph dd", "rank=same", "shape=circle", "shape=box", "style=dashed", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot missing %q:\n%s", want, dot)
		}
	}
	colored := g.DOT(Style{Mode: Colored})
	if !strings.Contains(colored, "penwidth") || !strings.Contains(colored, "color=\"#") {
		t.Fatal("colored dot missing attributes")
	}
}

func TestDOTDeterministic(t *testing.T) {
	ghz := algorithms.GHZ(4)
	g := FromVector(stepState(t, ghz, len(ghz.Ops)))
	first := g.DOT(Style{Mode: Classic})
	if n := strings.Count(first, "rank=same"); n < 3 {
		t.Fatalf("GHZ(4) dot has %d rank groups, want at least 3:\n%s", n, first)
	}
	for i := 0; i < 20; i++ {
		if got := g.DOT(Style{Mode: Classic}); got != first {
			t.Fatalf("call %d differs from the first:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestFrameCaption(t *testing.T) {
	_, e := bell(t)
	g := FromVector(e)
	svg := FrameSVG(g, Style{}, "after cx q[1],q[0]")
	if !strings.Contains(svg, "after cx q[1],q[0]") {
		t.Fatal("caption not rendered")
	}
	// Captions must be escaped.
	svg = FrameSVG(g, Style{}, "a<b&c")
	if !strings.Contains(svg, "a&lt;b&amp;c") {
		t.Fatal("caption not escaped")
	}
}

func TestSharedNodeRenderedOnce(t *testing.T) {
	// |++> has one node per level with both edges to the same child:
	// sharing must produce 2 nodes, not 3.
	p := dd.New(2)
	h0 := p.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.H, nil)), 0)
	h1 := p.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.H, nil)), 1)
	e := p.MultMV(h1, p.MultMV(h0, p.ZeroState()))
	g := FromVector(e)
	if g.NodeCount() != 2 {
		t.Fatalf("|++> graph has %d nodes, want 2 (sharing)", g.NodeCount())
	}
	// Both edges of the root go to the same child.
	var roots []Edge
	for _, ed := range g.Edges {
		if ed.From == g.Root {
			roots = append(roots, ed)
		}
	}
	if len(roots) != 2 || roots[0].To != roots[1].To {
		t.Fatalf("root edges not shared: %+v", roots)
	}
}

func TestTextRenderer(t *testing.T) {
	_, e := bell(t)
	g := FromVector(e)
	text := g.Text()
	// Note: under 2-norm normalization the 1/√2 lives on the q1 node's
	// outgoing edges (root weight 1); Fig. 2(a) draws the equivalent
	// max-norm variant with 1/√2 on the root. Amplitudes agree.
	for _, want := range []string{"root --(1)-->", "--(1/√2)-->", "q1", "q0", "[1]", "] 0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text render missing %q:\n%s", want, text)
		}
	}
	// One printed block per non-terminal node: sharing must hold.
	if got := strings.Count(text, "\n#"); got != g.NodeCount()-1 {
		// The root node line does not start with \n# if it is first...
		// count lines starting with '#'
		lines := 0
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(l, "#") {
				lines++
			}
		}
		if lines != g.NodeCount() {
			t.Fatalf("text prints %d node blocks, want %d:\n%s", lines, g.NodeCount(), text)
		}
	}
	if got := FromVector(dd.VZero()).Text(); !strings.Contains(got, "root") {
		t.Fatalf("zero diagram text: %q", got)
	}
	// Matrix diagrams render with 4 ports.
	p := dd.New(2)
	cx := p.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.X, nil)), 0, dd.Control{Qubit: 1})
	mtext := FromMatrix(cx).Text()
	if !strings.Contains(mtext, "[3]") {
		t.Fatalf("matrix text missing port 3:\n%s", mtext)
	}
}

func TestAnimationSVG(t *testing.T) {
	_, e := bell(t)
	g := FromVector(e)
	f1 := g.SVG(Style{Mode: Classic})
	f2 := g.SVG(Style{Mode: Colored})
	anim, err := AnimationSVG([]string{f1, f2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(anim, "<set attributeName=\"visibility\"") != 2 {
		t.Fatalf("animation frame count wrong:\n%s", anim[:200])
	}
	if !strings.Contains(anim, "anim0") || !strings.Contains(anim, "dur=\"0.50s\"") {
		t.Fatal("animation timing missing")
	}
	// A single self-contained <svg> document.
	if strings.Count(anim, "<svg") != 1 || strings.Count(anim, "</svg>") != 1 {
		t.Fatal("nested svg documents leaked into the animation")
	}
	if _, err := AnimationSVG(nil, 1); err == nil {
		t.Fatal("empty frame list accepted")
	}
	if _, err := AnimationSVG([]string{"not svg"}, 1); err == nil {
		t.Fatal("malformed frame accepted")
	}
}
