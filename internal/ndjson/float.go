package ndjson

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// appendFloat matches encoding/json's float64 encoding: the shortest
// decimal that parses back to f, in fixed notation for 0 and for
// magnitudes in [1e-6, 1e21), and in exponent notation with the
// "e-0X" → "e-X" cleanup outside that band. Every value the model
// produces falls in the fixed-notation band, and appendShortest renders
// it; exponent notation keeps strconv, because its layout rules
// (mantissa point, exponent sign and width) would be a second formatter
// for values no stream carries. Non-finite values (which encoding/json
// rejects and the model never produces) render as null rather than
// corrupting the stream.
func appendFloat(b []byte, f float64) []byte {
	switch abs := math.Abs(f); {
	case abs >= 1e-6 && abs < 1e21:
		return appendShortest(b, f)
	case abs == 0:
		if math.Signbit(f) {
			return append(b, '-', '0')
		}
		return append(b, '0')
	case math.IsNaN(f) || math.IsInf(f, 0):
		return append(b, "null"...)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// The binary64 layout (mantissa field width, exponent bias), the IEEE
// exponents of [2^-20, 2^70), the binades that hold [1e-6, 1e21), and
// the power of ten pow10g starts at.
const (
	mantBits   = 52
	expBias    = 1023
	minBandExp = expBias - 20 // 1003
	maxBandExp = expBias + 69 // 1092
	minPow10   = -5
)

// appendShortest appends f in fixed notation with the fewest digits that
// parse back to f, choosing the closest such decimal (ties to an even
// last digit): the bytes strconv.AppendFloat(b, f, 'f', -1, 64) writes.
// f must be finite and nonzero with an IEEE exponent in
// [minBandExp, maxBandExp].
//
// An exact integer below 2^53 is its own shortest decimal. Every other
// value takes Schubfach's digit selection (R. Giulietti, "The Schubfach
// way to render doubles", 2020): with f = c·2^q and k = ⌊log10 2^q⌋,
// three 64×128-bit products by an approximation of 10^-k give f and the
// ends of its rounding interval scaled by 4·10^-k, rounded to odd. The
// interval, narrower than 10^(k+1), holds at most one multiple of
// 10^(k+1); if it does, that is the answer, else it is whichever of
// ⌊f/10^k⌋ and the next integer the interval holds, or the nearer when
// it holds both. The interval's ends are included exactly when c is
// even, as round-half-even parsing reads them. The routine uses integer
// arithmetic only, so its bytes cannot depend on whether a host fuses
// multiply-adds.
func appendShortest(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	q := int(u>>mantBits&0x7ff) - expBias - mantBits
	c := u&(1<<mantBits-1) | 1<<mantBits
	if -mantBits <= q && q <= 0 && c&(1<<uint(-q)-1) == 0 {
		return appendDecimal(b, c>>uint(-q), 0)
	}

	// The rounding interval is [c-1/2, c+1/2]·2^q, except at a power of
	// two, where the next value down is half as far: [c-1/4, c+1/2]·2^q.
	// cb, cbl and cbr are f and the interval's ends in units of 2^(q-2).
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	pow2 := c == 1<<mantBits
	if pow2 {
		cbl = cb - 1
	}
	k, h := scale(q, pow2)
	g := &pow10g[-k-minPow10]
	vb := rop(g, cb<<h)
	vbl := rop(g, cbl<<h)
	vbr := rop(g, cbr<<h)

	s := vb >> 2 // ⌊f/10^k⌋
	if s10 := s / 10; vbl+out <= s10*40 {
		if (s10+1)*40+out > vbr {
			return appendDecimal(b, s10, k+1)
		}
	} else if (s10+1)*40+out <= vbr {
		return appendDecimal(b, s10+1, k+1)
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return appendDecimal(b, s, k)
		}
		return appendDecimal(b, t, k)
	}
	// Both are in the interval: take the nearer, or the even one on a tie.
	if mid := (s + t) << 1; vb < mid || vb == mid && s&1 == 0 {
		return appendDecimal(b, s, k)
	}
	return appendDecimal(b, t, k)
}

// scale returns the decimal exponent k that appendShortest selects
// digits at for a value c·2^q, ⌊log10 2^q⌋, or ⌊log10 (3/4·2^q)⌋ for a
// power of two, whose interval is narrower, and the shift h that aligns
// rop's 2^-127 with units of 10^k/4: 10^-k ≈ g·2^(β-125) with
// β = ⌊log2 10^-k⌋, so g·c·2^(q+β+2)/2^127 ≈ 4·c·2^q/10^k. The
// multiply-shift logarithms are exact far beyond the band.
func scale(q int, pow2 bool) (k int, h uint) {
	if pow2 {
		k = (q*661_971_961_083 - 274_743_187_321) >> 41
	} else {
		k = q * 661_971_961_083 >> 41
	}
	return k, uint(q + (-k*913_124_641_741)>>38 + 2)
}

// rop returns ⌊g·cp/2^127⌋ rounded to odd, where g = g[0]·2^63 + g[1]
// and cp < 2^63: the lowest bit is set when the fraction's leading 63
// bits are not all zero, which Schubfach proves is enough to keep every
// comparison appendShortest makes exact.
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// pow10g[e-minPow10] holds g = ⌊10^e·2^(125-β)⌋ + 1 with β = ⌊log2 10^e⌋,
// so 2^125 ≤ g < 2^126, as the pair {g >> 63, g mod 2^63}. e spans
// [-5, 22], the values of -k that exponents in [minBandExp, maxBandExp]
// reach. TestPow10Table recomputes every entry with math/big.
var pow10g = [...][2]uint64{
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 1e-5
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 1e-4
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 1e-3
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 1e-2
	{0x6666666666666666, 0x3333333333333334}, // 1e-1
	{0x4000000000000000, 0x0000000000000001}, // 1e0
	{0x5000000000000000, 0x0000000000000001}, // 1e1
	{0x6400000000000000, 0x0000000000000001}, // 1e2
	{0x7d00000000000000, 0x0000000000000001}, // 1e3
	{0x4e20000000000000, 0x0000000000000001}, // 1e4
	{0x61a8000000000000, 0x0000000000000001}, // 1e5
	{0x7a12000000000000, 0x0000000000000001}, // 1e6
	{0x4c4b400000000000, 0x0000000000000001}, // 1e7
	{0x5f5e100000000000, 0x0000000000000001}, // 1e8
	{0x7735940000000000, 0x0000000000000001}, // 1e9
	{0x4a817c8000000000, 0x0000000000000001}, // 1e10
	{0x5d21dba000000000, 0x0000000000000001}, // 1e11
	{0x746a528800000000, 0x0000000000000001}, // 1e12
	{0x48c2739500000000, 0x0000000000000001}, // 1e13
	{0x5af3107a40000000, 0x0000000000000001}, // 1e14
	{0x71afd498d0000000, 0x0000000000000001}, // 1e15
	{0x470de4df82000000, 0x0000000000000001}, // 1e16
	{0x58d15e1762800000, 0x0000000000000001}, // 1e17
	{0x6f05b59d3b200000, 0x0000000000000001}, // 1e18
	{0x4563918244f40000, 0x0000000000000001}, // 1e19
	{0x56bc75e2d6310000, 0x0000000000000001}, // 1e20
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // 1e21
	{0x43c33c1937564800, 0x0000000000000001}, // 1e22
}

// appendDecimal appends d·10^e in fixed notation with no trailing
// fractional zeros. 0 < d < 10^17.
func appendDecimal(b []byte, d uint64, e int) []byte {
	for d%10 == 0 {
		d /= 10
		e++
	}
	n := decimalLen(d)
	i := len(b)
	switch dp := n + e; {
	case dp >= n: // an integer: the digits, then dp-n zeros
		b = append(b, zeros[:dp]...)
		putDigits(b[i:i+n], d)
	case dp > 0: // the point falls among the digits
		b = append(b, zeros[:n+1]...)
		putDigits(b[i+1:], d)
		for j := range dp {
			b[i+j] = b[i+j+1]
		}
		b[i+dp] = '.'
	default: // "0.", -dp zeros, the digits
		b = append(b, zeros[:2-dp+n]...)
		b[i+1] = '.'
		putDigits(b[i+2-dp:], d)
	}
	return b
}

// zeros holds the longest fixed-notation layout of the band: "0.",
// six zeros and 17 digits below 10^-6. Its longest integer, 1e21, is 22
// bytes.
const zeros = "0000000000000000000000000"

// pow10u[i] = 10^i.
var pow10u = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // ⌊log10 2^len⌋, one short or exact
	if d >= pow10u[n] {
		n++
	}
	return n
}

// putDigits writes the decimal digits of d into dst, which is exactly as
// long as d has digits, eight at a time from the right.
func putDigits(dst []byte, d uint64) {
	i := len(dst)
	for d >= 1e8 {
		q := d / 1e8
		put8(dst[i-8:i], uint32(d-q*1e8))
		d, i = q, i-8
	}
	var lead [8]byte
	put8(lead[:], uint32(d))
	copy(dst[:i], lead[8-i:])
}

// put8 writes the eight digits of x < 10^8, zero-padded, into dst[:8]
// with one store. It splits x into 4-digit halves in 32-bit lanes, the
// halves into 2-digit 16-bit lanes and those into digit bytes, dividing
// every lane at once by a multiply and shift that is exact below 10^4
// (÷100) and 10^2 (÷10).
func put8(dst []byte, x uint32) {
	hi := x / 10000
	v := uint64(hi) | uint64(x-hi*10000)<<32
	t := v * 10486 >> 20 & 0x0000007f_0000007f
	v = t | (v-t*100)<<16
	t = v * 103 >> 10 & 0x000f000f_000f000f
	v = t | (v-t*10)<<8
	binary.LittleEndian.PutUint64(dst, v|0x30303030_30303030)
}
