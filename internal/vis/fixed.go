package vis

import (
	"math"
	"strconv"
)

// pow10 holds the scale factors for the precisions appendFixed serves.
var pow10 = [...]float64{1, 10, 100}

// appendFixed appends v formatted exactly as strconv.FormatFloat(v,
// 'f', prec, 64), and so as fmt's %.<prec>f, for prec 0 to 2.
//
// strconv's shortest-digit Ryū path serves only the 'e' and 'g'
// formats; every 'f' precision goes through its multiprecision
// decimal conversion, which dominated the renderer's CPU time. Here
// v·10^prec is rounded in integer arithmetic instead. Below 1e9 the
// product carries an error under 1e-7, so its rounding direction is
// the exact value's unless the fraction lies within 1e-6 of one half.
// Those near-ties, where the exact binary value decides (0.15 is
// slightly below 0.15 and prints "0.1"; 0.125 is exact and rounds to
// even), and non-finite or huge values go to strconv itself.
func appendFixed(dst []byte, v float64, prec int) []byte {
	scaled := math.Abs(v) * pow10[prec]
	if !(scaled < 1e9) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	n := uint64(scaled)
	frac := scaled - float64(n)
	if math.Abs(frac-0.5) < 1e-6 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	if frac > 0.5 {
		n++
	}
	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	if prec == 0 {
		return strconv.AppendUint(dst, n, 10)
	}
	unit := uint64(pow10[prec])
	dst = strconv.AppendUint(dst, n/unit, 10)
	dst = append(dst, '.')
	for d, f := unit/10, n%unit; d > 0; d /= 10 {
		dst = append(dst, byte('0'+f/d%10))
	}
	return dst
}
