package vis

import (
	"fmt"
	"math"
	"math/cmplx"
)

// PhaseColor maps the complex phase of a weight onto the HLS color
// wheel of Fig. 7(b): hue equals the phase angle (0 = red at phase 0,
// green at 2π/3, blue at 4π/3), with full saturation and mid
// lightness. Returns a #rrggbb string.
func PhaseColor(w complex128) string {
	phase := cmplx.Phase(w) // (-π, π]
	if phase < 0 {
		phase += 2 * math.Pi
	}
	hue := phase / (2 * math.Pi) * 360
	r, g, b := hlsToRGB(hue, 0.5, 1.0)
	const hex = "0123456789abcdef"
	return string([]byte{'#', hex[r>>4], hex[r&15], hex[g>>4], hex[g&15], hex[b>>4], hex[b&15]})
}

// hlsToRGB converts hue (degrees), lightness and saturation in [0,1]
// to 8-bit RGB.
func hlsToRGB(h, l, s float64) (uint8, uint8, uint8) {
	c := (1 - math.Abs(2*l-1)) * s
	hp := h / 60
	x := c * (1 - math.Abs(math.Mod(hp, 2)-1))
	var r, g, b float64
	switch {
	case hp < 1:
		r, g, b = c, x, 0
	case hp < 2:
		r, g, b = x, c, 0
	case hp < 3:
		r, g, b = 0, c, x
	case hp < 4:
		r, g, b = 0, x, c
	case hp < 5:
		r, g, b = x, 0, c
	default:
		r, g, b = c, 0, x
	}
	m := l - c/2
	to8 := func(v float64) uint8 {
		v = (v + m) * 255
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		return uint8(math.Round(v))
	}
	return to8(r), to8(g), to8(b)
}

// MagnitudeWidth maps a weight magnitude onto a stroke width in
// pixels: magnitude 1 draws at 3px, thinner for smaller amplitudes,
// with a floor so faint edges stay visible.
func MagnitudeWidth(w complex128) float64 {
	mag := cmplx.Abs(w)
	if mag > 1 {
		mag = 1
	}
	width := 3 * mag
	if width < 0.6 {
		width = 0.6
	}
	return width
}

// ColorWheelSVG renders the HLS color-wheel legend of Fig. 7(b) as a
// standalone SVG: a ring of phase-colored segments with axis labels
// 0, π/2, π, 3π/2.
func ColorWheelSVG(size int) string {
	if size <= 0 {
		size = 160
	}
	cx := float64(size) / 2
	cy := float64(size) / 2
	rOuter := float64(size)*0.42 - 1
	rInner := rOuter * 0.55
	const segments = 72
	var b svgBuilder
	b.open(float64(size), float64(size), "")
	for i := 0; i < segments; i++ {
		a0 := float64(i) / segments * 2 * math.Pi
		a1 := float64(i+1)/segments*2*math.Pi + 0.005
		color := PhaseColor(cmplx.Exp(complex(0, a0)))
		b.buf = fmt.Appendf(b.buf, "<path d=\"M%.2f,%.2f L%.2f,%.2f A%.2f,%.2f 0 0 1 %.2f,%.2f L%.2f,%.2f A%.2f,%.2f 0 0 0 %.2f,%.2f Z\" fill=\"%s\" stroke=\"none\"/>\n",
			cx+rInner*math.Cos(a0), cy-rInner*math.Sin(a0),
			cx+rOuter*math.Cos(a0), cy-rOuter*math.Sin(a0),
			rOuter, rOuter,
			cx+rOuter*math.Cos(a1), cy-rOuter*math.Sin(a1),
			cx+rInner*math.Cos(a1), cy-rInner*math.Sin(a1),
			rInner, rInner,
			cx+rInner*math.Cos(a0), cy-rInner*math.Sin(a0),
			color)
	}
	labels := []struct {
		angle float64
		text  string
	}{
		{0, "0"}, {math.Pi / 2, "π/2"}, {math.Pi, "π"}, {3 * math.Pi / 2, "3π/2"},
	}
	for _, l := range labels {
		x := cx + (rOuter+10)*math.Cos(l.angle)
		y := cy - (rOuter+10)*math.Sin(l.angle)
		b.text(x, y, l.text, 11, "middle")
	}
	b.close()
	return b.String()
}
