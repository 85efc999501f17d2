package vis

import (
	"unsafe"

	"quantumdd/internal/cnum"
)

// Mode selects one of the tool's visualization styles (Fig. 7).
type Mode int

const (
	// Classic mimics research-paper figures: weight labels on edges,
	// dashed lines for non-unit weights, 0-stubs retracted into nodes.
	Classic Mode = iota
	// Colored drops the labels and encodes magnitude as thickness and
	// phase as an HLS hue (Fig. 7(c), Fig. 6).
	Colored
	// Modern uses rounded nodes with branch-probability bars for a
	// more approachable look (Fig. 8/9 screenshots).
	Modern
)

// Style bundles the render options of the settings panel.
type Style struct {
	Mode Mode
	// ShowEdgeLabels forces/suppresses weight labels (Classic defaults
	// to true, others to false).
	ShowEdgeLabels *bool
}

func (s Style) labels() bool {
	if s.ShowEdgeLabels != nil {
		return *s.ShowEdgeLabels
	}
	return s.Mode == Classic
}

// svgBuilder appends SVG markup to a byte slice. Numbers go through
// appendFixed rather than fmt: see appendFixed for why.
type svgBuilder struct {
	buf []byte
}

// open writes the <svg> element, the white background and, when the
// caption is non-empty, the caption line (e.g. the last executed gate).
func (b *svgBuilder) open(w, h float64, caption string) {
	b.str("<svg xmlns=\"http://www.w3.org/2000/svg\"")
	b.attr("width", w, 0)
	b.attr("height", h, 0)
	b.str(" viewBox=\"0 0 ")
	b.num(w, 0)
	b.str(" ")
	b.num(h, 0)
	b.str("\" font-family=\"Helvetica,Arial,sans-serif\">\n")
	b.str("<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n")
	if caption != "" {
		b.str("<text x=\"8\" y=\"16\" font-size=\"12\" fill=\"#555\">")
		b.buf = appendEscaped(b.buf, caption)
		b.str("</text>\n")
	}
}

func (b *svgBuilder) close() { b.str("</svg>\n") }

// String returns the accumulated markup without copying it; the
// builder must not be written to afterwards.
func (b *svgBuilder) String() string { return unsafe.String(unsafe.SliceData(b.buf), len(b.buf)) }

func (b *svgBuilder) str(s string) { b.buf = append(b.buf, s...) }

// num writes v as fmt's %.<prec>f would.
func (b *svgBuilder) num(v float64, prec int) { b.buf = appendFixed(b.buf, v, prec) }

// attr writes ` name="v"` with v at the given precision.
func (b *svgBuilder) attr(name string, v float64, prec int) {
	b.buf = append(b.buf, ' ')
	b.buf = append(b.buf, name...)
	b.buf = append(b.buf, '=', '"')
	b.buf = appendFixed(b.buf, v, prec)
	b.buf = append(b.buf, '"')
}

func (b *svgBuilder) line(x1, y1, x2, y2 float64, stroke string, width float64, dashed bool) {
	b.str("<line")
	b.attr("x1", x1, 1)
	b.attr("y1", y1, 1)
	b.attr("x2", x2, 1)
	b.attr("y2", y2, 1)
	b.str(" stroke=\"")
	b.str(stroke)
	b.str("\"")
	b.attr("stroke-width", width, 2)
	if dashed {
		b.str(" stroke-dasharray=\"5,3\"")
	}
	b.str("/>\n")
}

func (b *svgBuilder) text(x, y float64, s string, size float64, anchor string) {
	b.str("<text")
	b.attr("x", x, 1)
	b.attr("y", y, 1)
	b.attr("font-size", size, 0)
	b.str(" text-anchor=\"")
	b.str(anchor)
	b.str("\">")
	b.buf = appendEscaped(b.buf, s)
	b.str("</text>\n")
}

// rect writes a rectangle's geometry; the caller closes the element
// with its paint attributes.
func (b *svgBuilder) rect(x, y, w, h float64) {
	b.str("<rect")
	b.attr("x", x, 1)
	b.attr("y", y, 1)
	b.attr("width", w, 1)
	b.attr("height", h, 1)
}

// appendEscaped appends s with &, < and > replaced by their entities.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// SVG renders the graph (which must have been laid out by the caller
// or will be laid out here) in the given style.
func (g *Graph) SVG(style Style) string { return g.svg(style, "") }

// FrameSVG renders a diagram with a caption line above it; exported
// for the web UI and the animation exporter.
func FrameSVG(g *Graph, style Style, caption string) string { return g.svg(style, caption) }

func (g *Graph) svg(style Style, caption string) string {
	w, h := g.Layout()
	b := svgBuilder{buf: make([]byte, 0, g.svgSizeHint(style, caption))}
	b.open(w, h, caption)

	portX := func(n *Node, port, nports int) float64 {
		span := nodeRadius * 1.6
		return n.X - span/2 + span*(float64(port)+0.5)/float64(nports)
	}

	// Root arrow.
	if g.Root != noNode {
		rn := &g.Nodes[g.Root]
		b.line(rn.X, rn.Y-levelGap, rn.X, rn.Y-nodeRadius-2, edgeColor(style, g.RootWeight), edgeWidth(style, g.RootWeight), dashedFor(style, g.RootWeight))
		if style.labels() && !cnum.IsOne(g.RootWeight, 1e-9) {
			b.text(rn.X+6, rn.Y-levelGap+14, cnum.FormatComplex(g.RootWeight), 11, "start")
		}
		b.arrowHead(rn.X, rn.Y-nodeRadius-2)
	}

	// Edges beneath nodes.
	for _, e := range g.Edges {
		from := &g.Nodes[e.From]
		x1 := portX(from, e.Port, e.NPorts)
		y1 := from.Y + nodeRadius - 2
		if e.Zero {
			// Retracted 0-stub: a short tick with a tiny "0".
			if style.Mode != Colored {
				b.line(x1, y1, x1, y1+8, "#999999", 1, false)
				b.text(x1, y1+17, "0", 8, "middle")
			}
			continue
		}
		to := &g.Nodes[e.To]
		x2, y2 := to.X, to.Y-nodeRadius+2
		if to.Terminal {
			y2 = to.Y - terminalSize/2 - 1
		}
		b.line(x1, y1, x2, y2, edgeColor(style, e.Weight), edgeWidth(style, e.Weight), dashedFor(style, e.Weight))
		if style.labels() && !cnum.IsOne(e.Weight, 1e-9) {
			mx, my := (x1+x2)/2, (y1+y2)/2
			b.text(mx+5, my, cnum.FormatComplex(e.Weight), 10, "start")
		}
	}

	// Nodes on top.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch {
		case n.Terminal:
			b.rect(n.X-terminalSize/2, n.Y-terminalSize/2, terminalSize, terminalSize)
			b.str(" fill=\"white\" stroke=\"black\" stroke-width=\"1.4\"/>\n")
			b.text(n.X, n.Y+4, "1", 12, "middle")
		case style.Mode == Modern:
			wBox, hBox := nodeRadius*2.4, nodeRadius*1.8
			b.rect(n.X-wBox/2, n.Y-hBox/2, wBox, hBox)
			b.str(" rx=\"8\" fill=\"#eef4ff\" stroke=\"#35507a\" stroke-width=\"1.4\"/>\n")
			b.text(n.X, n.Y-2, n.Label, 11, "middle")
			// Probability bars for vector nodes: the squared branch
			// weights (the values the measurement dialog shows).
			if g.Kind == KindVector && len(n.Probs) == 2 {
				barW := wBox/2 - 6
				for k, p := range n.Probs {
					x := n.X - wBox/2 + 4 + float64(k)*(barW+4)
					b.bar(x, n.Y+5, barW, "#d4ddec")
					b.bar(x, n.Y+5, barW*clamp01(p), "#35507a")
				}
			}
		default:
			b.str("<circle")
			b.attr("cx", n.X, 1)
			b.attr("cy", n.Y, 1)
			b.attr("r", nodeRadius, 1)
			b.str(" fill=\"white\" stroke=\"black\" stroke-width=\"1.4\"/>\n")
			b.text(n.X, n.Y+4, n.Label, 12, "middle")
		}
	}
	b.close()
	return b.String()
}

// svgSizeHint estimates the markup size from the element counts, on
// the high side of typical frames so that one allocation holds the
// whole document: each cost is an element's markup length at typical
// coordinate widths, rounded up, with room for a short edge label.
func (g *Graph) svgSizeHint(style Style, caption string) int {
	perNode, perEdge := 170, 100
	if style.Mode == Modern {
		perNode = 190
		if g.Kind == KindVector {
			perNode += 4 * 70 // probability bars
		}
	}
	if style.Mode == Classic {
		perEdge += 25 // stroke-dasharray
	}
	if style.labels() {
		perEdge += 80
	}
	return 512 + 5*len(caption) + perNode*len(g.Nodes) + perEdge*len(g.Edges)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// bar writes one 4-unit-high bar of the modern style's probability bars.
func (b *svgBuilder) bar(x, y, w float64, fill string) {
	b.str("<rect")
	b.attr("x", x, 1)
	b.attr("y", y, 1)
	b.attr("width", w, 1)
	b.str(" height=\"4\" fill=\"")
	b.str(fill)
	b.str("\"/>\n")
}

func (b *svgBuilder) arrowHead(x, y float64) {
	b.str("<path d=\"M")
	b.num(x, 1)
	b.str(",")
	b.num(y, 1)
	b.str(" l-4,-7 l8,0 Z\" fill=\"black\"/>\n")
}

func edgeColor(s Style, w complex128) string {
	if s.Mode == Colored {
		return PhaseColor(w)
	}
	return "black"
}

func edgeWidth(s Style, w complex128) float64 {
	if s.Mode == Colored {
		return MagnitudeWidth(w)
	}
	return 1.4
}

// dashedFor implements the classic-style convention: edges with a
// weight different from 1 are dashed.
func dashedFor(s Style, w complex128) bool {
	if s.Mode != Classic {
		return false
	}
	return !cnum.IsOne(w, 1e-9)
}
