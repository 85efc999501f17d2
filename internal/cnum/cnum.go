// Package cnum provides a tolerance-based unique table for complex
// numbers, following the design of "How to Efficiently Handle Complex
// Values? Implementing Decision Diagrams for Quantum Computing"
// (Zulehner, Hillmich, Wille; ICCAD 2019).
//
// Decision diagrams for quantum computing annotate edges with complex
// weights. Floating-point arithmetic introduces tiny representation
// errors, so two weights that are mathematically equal may differ in
// their bit patterns. Without countermeasures this destroys node
// sharing (the whole point of a decision diagram) and compute-table
// hits. The fix is to funnel every weight through a unique table that
// maps all values within a tolerance of each other onto one canonical
// representative. Canonical values are bit-identical and may therefore
// be used directly as Go map keys.
package cnum

import (
	"fmt"
	"math"
	"math/cmplx"
	"strconv"
)

// DefaultTolerance is the radius within which two real values are
// identified. It matches the default of the JKQ/MQT DD package.
const DefaultTolerance = 1e-10

// Commonly used canonical constants. Zero and One are canonical in
// every Table because the table seeds its buckets with them.
const (
	// SqrtHalf is 1/sqrt(2), the ubiquitous Hadamard amplitude.
	SqrtHalf = 0.70710678118654752440084436210484903928
)

// Table is a unique table of real numbers with tolerance-based lookup.
// Complex values are canonicalized component-wise. A Table is not safe
// for concurrent use; decision-diagram packages own exactly one.
//
// The store is an open-addressed hash table over half-open buckets of
// width 2·tol (the complex-table layout of Zulehner et al., ICCAD
// 2019): a value's bucket index is floor(v/(2·tol)), and a lookup
// probes the value's own bucket plus its two neighbours, so any stored
// representative within tol is found. Open addressing with linear
// probing replaces the earlier Go map because canonical-value lookups
// sit on the hot path of every DD node normalization.
type Table struct {
	tol     float64
	inv     float64 // 1/bucket width
	slots   []slot  // power-of-two open-addressed bucket store
	mask    uint64
	used    int // occupied slots
	lookups uint64
	hits    uint64
}

// slot holds one bucket: all canonical representatives whose bucket
// index equals key. Most buckets hold exactly one value.
type slot struct {
	key  int64
	vals []float64
}

// NewTable returns a table using DefaultTolerance.
func NewTable() *Table { return NewTableTol(DefaultTolerance) }

// minSlots keeps even tiny tables collision-light after seeding.
const minSlots = 256

// NewTableTol returns a table identifying reals within tol of each
// other. tol must be positive.
func NewTableTol(tol float64) *Table {
	if tol <= 0 {
		panic(fmt.Sprintf("cnum: tolerance must be positive, got %g", tol))
	}
	t := &Table{
		tol:   tol,
		inv:   1 / (2 * tol),
		slots: make([]slot, minSlots),
		mask:  minSlots - 1,
	}
	// Seed with the values that must be exactly representable so that
	// IsZero/IsOne tests on canonical values are exact comparisons.
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, SqrtHalf, -SqrtHalf} {
		t.LookupReal(v)
	}
	return t
}

// findSlot returns the slot holding bucket key, or the empty slot
// where that bucket would be inserted.
func (t *Table) findSlot(key int64) *slot {
	i := hashInt64(key) & t.mask
	for {
		s := &t.slots[i]
		if s.vals == nil || s.key == key {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the slot array and rehashes the occupied buckets.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]slot, 2*len(old))
	t.mask = uint64(len(t.slots)) - 1
	for i := range old {
		if old[i].vals == nil {
			continue
		}
		*t.findSlot(old[i].key) = old[i]
	}
}

// Tolerance reports the identification radius of the table.
func (t *Table) Tolerance() float64 { return t.tol }

// Stats reports the number of lookups performed and how many of them
// hit an existing canonical value.
func (t *Table) Stats() (lookups, hits uint64) { return t.lookups, t.hits }

// LookupReal returns the canonical representative for v: if a value
// within the tolerance is already stored it is returned, otherwise v
// itself becomes canonical.
func (t *Table) LookupReal(v float64) float64 {
	t.lookups++
	if math.IsNaN(v) {
		panic("cnum: NaN cannot be canonicalized")
	}
	key := int64(math.Floor(v * t.inv))
	// The candidate may fall in the bucket of v or a neighbour.
	for _, k := range [3]int64{key, key - 1, key + 1} {
		s := t.findSlot(k)
		if s.vals == nil {
			continue
		}
		for _, c := range s.vals {
			if math.Abs(c-v) <= t.tol {
				t.hits++
				return c
			}
		}
	}
	s := t.findSlot(key)
	if s.vals == nil {
		t.used++
		if 4*t.used > 3*len(t.slots) {
			t.grow()
			s = t.findSlot(key)
		}
		s.key = key
	}
	s.vals = append(s.vals, v)
	return v
}

// Lookup returns the canonical representative of c, canonicalizing the
// real and imaginary parts independently.
func (t *Table) Lookup(c complex128) complex128 {
	return complex(t.LookupReal(real(c)), t.LookupReal(imag(c)))
}

// Size reports the number of distinct canonical reals stored.
func (t *Table) Size() int {
	n := 0
	for i := range t.slots {
		n += len(t.slots[i].vals)
	}
	return n
}

// Multiply-xor mixing constants (golden-ratio multipliers of the
// splitmix64 finalizer), shared by the hash helpers below and the
// decision-diagram unique tables built on top of them. These replace
// a byte-wise FNV loop: the hashes sit on the hot path of every
// canonical-value lookup, where a handful of multiply/shift
// instructions beat sixteen loop iterations.
const (
	mixMul1 = 0x9e3779b97f4a7c15
	mixMul2 = 0xbf58476d1ce4e5b9
	mixMul3 = 0x94d049bb133111eb
)

// mix64 finalizes a 64-bit value with the splitmix64 avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= mixMul2
	x ^= x >> 27
	x *= mixMul3
	x ^= x >> 31
	return x
}

// hashInt64 scrambles a bucket index into a table slot hash.
func hashInt64(k int64) uint64 {
	return mix64(uint64(k) * mixMul1)
}

// HashReal returns the bucket hash of a canonical real value: a mixed
// digest of its bit pattern. Canonical values produced by the same
// Table are bit-identical, so this hash is stable and may be
// precomputed and combined (see HashComplex) to key hash tables over
// canonical weights without ever comparing floats tolerantly again.
func HashReal(v float64) uint64 {
	return mix64(math.Float64bits(v) * mixMul1)
}

// HashComplex returns the bucket hash of a canonical complex value,
// mixing the components asymmetrically so that conjugates and
// swapped components land in different buckets.
func HashComplex(c complex128) uint64 {
	return mix64(math.Float64bits(real(c))*mixMul1 ^ math.Float64bits(imag(c))*mixMul2)
}

// ApproxEqual reports whether a and b are component-wise within tol.
func ApproxEqual(a, b complex128, tol float64) bool {
	return math.Abs(real(a)-real(b)) <= tol && math.Abs(imag(a)-imag(b)) <= tol
}

// IsZero reports whether c is component-wise within tol of zero.
func IsZero(c complex128, tol float64) bool { return ApproxEqual(c, 0, tol) }

// IsOne reports whether c is component-wise within tol of one.
func IsOne(c complex128, tol float64) bool { return ApproxEqual(c, 1, tol) }

// Phase returns the argument of c in (-π, π].
func Phase(c complex128) float64 { return cmplx.Phase(c) }

// Omega returns e^{iπk/d}, the 2d-th root of unity raised to k, used
// e.g. in the QFT functionality matrix (ω = e^{iπ/4} for three qubits).
func Omega(k, d int) complex128 {
	return cmplx.Exp(complex(0, math.Pi*float64(k)/float64(d)))
}

// piFractions lists denominators tried when pretty-printing angles.
var piFractions = []int{1, 2, 3, 4, 6, 8, 12, 16, 32}

// FormatAngle renders an angle in radians as a π-fraction where one
// exists within tolerance ("π/4", "-3π/8", …) and as a decimal
// otherwise. This mirrors the edge-weight labels in the paper's
// "classic" visualization style.
func FormatAngle(theta float64) string {
	if math.Abs(theta) <= DefaultTolerance {
		return "0"
	}
	for _, d := range piFractions {
		ratio := theta * float64(d) / math.Pi
		n := math.Round(ratio)
		if n != 0 && math.Abs(ratio-n) <= 1e-9 {
			return formatPi(int(n), d)
		}
	}
	return strconv.FormatFloat(theta, 'g', 6, 64)
}

func formatPi(num, den int) string {
	sign := ""
	if num < 0 {
		sign = "-"
		num = -num
	}
	switch {
	case den == 1 && num == 1:
		return sign + "π"
	case den == 1:
		return sign + strconv.Itoa(num) + "π"
	case num == 1:
		return sign + "π/" + strconv.Itoa(den)
	default:
		return sign + strconv.Itoa(num) + "π/" + strconv.Itoa(den)
	}
}

// FormatComplex renders a complex number compactly for DD edge labels:
// real-only values print as reals, magnitude-one phases print as e^(iθ)
// with θ as a π-fraction, and general values as "a+bi".
func FormatComplex(c complex128) string {
	const tol = 1e-9
	re, im := real(c), imag(c)
	switch {
	case math.Abs(im) <= tol:
		return trimFloat(re)
	case math.Abs(re) <= tol:
		return trimFloat(im) + "i"
	}
	if math.Abs(cmplx.Abs(c)-1) <= tol {
		return "e^(i" + FormatAngle(cmplx.Phase(c)) + ")"
	}
	if im < 0 {
		return trimFloat(re) + "-" + trimFloat(-im) + "i"
	}
	return trimFloat(re) + "+" + trimFloat(im) + "i"
}

func trimFloat(v float64) string {
	const tol = 1e-9
	// Common DD amplitudes print symbolically.
	switch {
	case math.Abs(v-SqrtHalf) <= tol:
		return "1/√2"
	case math.Abs(v+SqrtHalf) <= tol:
		return "-1/√2"
	case math.Abs(v-0.5) <= tol:
		return "1/2"
	case math.Abs(v+0.5) <= tol:
		return "-1/2"
	}
	if math.Abs(v-math.Round(v)) <= tol {
		return strconv.FormatInt(int64(math.Round(v)), 10)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
