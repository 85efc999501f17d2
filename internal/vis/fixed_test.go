package vis

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func checkFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	want := strconv.FormatFloat(v, 'f', prec, 64)
	if got := string(appendFixed(nil, v, prec)); got != want {
		t.Fatalf("appendFixed(%v (bits %#x), %d) = %q, want %q", v, math.Float64bits(v), prec, got, want)
	}
}

// TestAppendFixedMatchesStrconv checks appendFixed against strconv on
// random magnitudes and bit patterns, on exact decimal ties and values
// a hair either side of them, and on the special values.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var inputs []float64
	for i := 0; i < 50000; i++ {
		v := rng.Float64() * math.Pow(10, float64(rng.Intn(11)-5)) // up to 1e5
		if rng.Intn(2) == 0 {
			v = -v
		}
		inputs = append(inputs, v)
	}
	for i := 0; i < 5000; i++ {
		inputs = append(inputs, math.Float64frombits(rng.Uint64()))
	}
	ties := func(k int64) []float64 {
		return []float64{float64(k) / 2, float64(k) / 20, float64(k) / 200}
	}
	var near []float64
	for k := int64(-4000); k <= 4000; k++ {
		near = append(near, ties(k)...)
	}
	for i := 0; i < 5000; i++ { // ties up to 1e5
		near = append(near, ties(rng.Int63n(2e7))...)
	}
	for _, tie := range near {
		inputs = append(inputs, tie, tie+1e-12, tie-1e-12, math.Nextafter(tie, math.Inf(1)), math.Nextafter(tie, math.Inf(-1)))
	}
	inputs = append(inputs, 0, math.Copysign(0, -1), -0.04, 0.15, 0.25, 0.125, 0.375,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, 5e-324, 999999999.5, 1e9, 1e9-0.4, math.MaxFloat64)
	for _, v := range inputs {
		for prec := 0; prec <= 2; prec++ {
			checkFixed(t, v, prec)
		}
	}
}

func FuzzAppendFixed(f *testing.F) {
	for _, v := range []float64{0, -0.04, 0.15, 0.25, 2.5, 1e300, 136.05, math.Inf(-1)} {
		f.Add(v, uint8(1))
	}
	f.Fuzz(func(t *testing.T, v float64, prec uint8) {
		checkFixed(t, v, int(prec%3))
	})
}
