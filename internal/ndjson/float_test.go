package ndjson

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/scenario"
)

// fixedChecker compares the fixed-notation path with strconv's shortest
// 'f' formatting, the bytes encoding/json writes in that band.
type fixedChecker struct {
	t         *testing.T
	got, want []byte
	n         int
}

// check renders f through appendFloat when it is zero or in the JSON
// band and through appendShortest in the rest of the band's binades.
func (c *fixedChecker) check(f float64) {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		c.got = appendFloat(c.got[:0], f)
	} else {
		c.got = appendShortest(c.got[:0], f)
	}
	c.want = strconv.AppendFloat(c.want[:0], f, 'f', -1, 64)
	c.n++
	if !bytes.Equal(c.got, c.want) {
		c.t.Fatalf("%#016x: got %s, strconv %s", math.Float64bits(f), c.got, c.want)
	}
}

// fromBits returns the float with IEEE exponent exp and the given mantissa
// field and sign.
func fromBits(neg bool, exp int, mant uint64) float64 {
	u := uint64(exp)<<mantBits | mant&(1<<mantBits-1)
	if neg {
		u |= 1 << 63
	}
	return math.Float64frombits(u)
}

// The routine writes strconv's bytes over every binade of the band, its
// edges, its integers, and the neighbours of the powers of two and ten
// where the rounding interval and the digit count change: over 4×10^6
// values, in sections that run in parallel because the race detector
// makes each formatting call cost microseconds.
func TestShortestMatchesStrconv(t *testing.T) {
	sections := []struct {
		name string
		gen  func(rng *rand.Rand, check func(float64))
	}{
		{"binades 2^-20 to 2^24", binades(minBandExp, expBias+24)},
		{"binades 2^25 to 2^69", binades(expBias+25, maxBandExp)},
		{"log-uniform", func(rng *rand.Rand, check func(float64)) {
			// Uniform over the bit patterns of [1e-6, 1e21): log-uniform
			// in value to within a binade.
			lo, hi := math.Float64bits(1e-6), math.Float64bits(1e21)
			for range 1_250_000 {
				check(math.Float64frombits(lo + rng.Uint64N(hi-lo)))
			}
		}},
		{"integers", func(rng *rand.Rand, check func(float64)) {
			// Integers of every length below 2^53, and the same over 1,000.
			for range 250_000 {
				n := float64(1 + rng.Uint64N(1<<53-1)>>rng.UintN(53))
				check(n)
				check(n / 1000)
			}
			check(0)
			check(math.Copysign(0, -1))
		}},
		{"powers of two", func(rng *rand.Rand, check func(float64)) {
			// The 4,096 mantissas around each power of two, whose own
			// interval is narrower below than above.
			for exp := minBandExp; exp <= maxBandExp; exp++ {
				p := math.Float64bits(fromBits(false, exp, 0))
				for d := range uint64(2049) {
					check(math.Float64frombits(p + d))
					if exp > minBandExp && d > 0 {
						check(math.Float64frombits(p - d))
					}
				}
			}
		}},
		{"powers of ten", func(rng *rand.Rand, check func(float64)) {
			// 2,000 ulps either side of each power of ten in the band.
			for e := -6; e <= 20; e++ {
				p := math.Float64bits(math.Pow10(e))
				for d := range uint64(2001) {
					check(math.Float64frombits(p + d))
					check(math.Float64frombits(p - d))
				}
			}
			// The edges of the JSON band and of the routine's binades.
			for _, f := range []float64{
				1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), -math.Nextafter(1e21, 0), 1e21,
				fromBits(false, minBandExp, 0), fromBits(true, maxBandExp, 1<<mantBits-1),
			} {
				check(f)
			}
		}},
	}
	var n atomic.Int64
	t.Run("sections", func(t *testing.T) {
		for i, sec := range sections {
			t.Run(sec.name, func(t *testing.T) {
				t.Parallel()
				c := &fixedChecker{t: t}
				sec.gen(rand.New(rand.NewPCG(uint64(i), 0x5c4bfac7)), c.check)
				n.Add(int64(c.n))
			})
		}
	})
	if n.Load() < 4_000_000 {
		t.Errorf("checked %d values, want at least 4,000,000", n.Load())
	}
}

// binades checks random mantissas and signs at each IEEE exponent in
// [lo, hi].
func binades(lo, hi int) func(*rand.Rand, func(float64)) {
	return func(rng *rand.Rand, check func(float64)) {
		for exp := lo; exp <= hi; exp++ {
			for range 20_000 {
				check(fromBits(rng.IntN(2) == 0, exp, rng.Uint64()))
			}
		}
	}
}

// Every entry of pow10g is ⌊10^e·2^(125-β)⌋ + 1 recomputed exactly, and
// every exponent of the band, at a power of two or not, selects an
// entry in the table with a shift that keeps rop's operand below 2^63.
func TestPow10Table(t *testing.T) {
	ten := big.NewInt(10)
	pow := func(e int) *big.Rat { // 10^e exactly
		r := new(big.Rat).SetInt(new(big.Int).Exp(ten, big.NewInt(int64(abs(e))), nil))
		if e < 0 {
			r.Inv(r)
		}
		return r
	}
	pow2 := func(e int) *big.Rat { // 2^e exactly
		r := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(abs(e))))
		if e < 0 {
			r.Inv(r)
		}
		return r
	}
	// floorLog2 returns ⌊log2 r⌋ for r > 0.
	floorLog2 := func(r *big.Rat) int {
		b := r.Num().BitLen() - r.Denom().BitLen()
		if r.Cmp(pow2(b)) < 0 {
			b--
		}
		return b
	}
	for i, got := range pow10g {
		e := i + minPow10
		beta := floorLog2(pow(e))
		g := new(big.Int).Quo(
			new(big.Int).Mul(pow(e).Num(), new(big.Int).Lsh(big.NewInt(1), uint(125-beta))),
			pow(e).Denom())
		g.Add(g, big.NewInt(1))
		mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(1))
		want := [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), new(big.Int).And(g, mask).Uint64()}
		if g.BitLen() != 126 || got != want {
			t.Errorf("pow10g[%d] (1e%d) = %#x, want %#x (%d bits)", i, e, got, want, g.BitLen())
		}
	}

	for exp := minBandExp; exp <= maxBandExp; exp++ {
		q := exp - expBias - mantBits
		for _, p2 := range []bool{false, true} {
			k, h := scale(q, p2)
			// 10^k ≤ 2^q < 10^(k+1), or 10^k ≤ 3/4·2^q < 10^(k+1) at a power of two.
			x := pow2(q)
			if p2 {
				x.Mul(x, big.NewRat(3, 4))
			}
			if x.Cmp(pow(k)) < 0 || x.Cmp(pow(k+1)) >= 0 {
				t.Errorf("exponent %d (power of two %v): k = %d is not ⌊log10⌋", exp, p2, k)
			}
			if i := -k - minPow10; i < 0 || i >= len(pow10g) {
				t.Errorf("exponent %d (power of two %v): k = %d indexes outside the table", exp, p2, k)
			}
			if want := uint(q + floorLog2(pow(-k)) + 2); h != want || (uint64(1<<(mantBits+1)-1)*4+2)<<h >= 1<<63 {
				t.Errorf("exponent %d (power of two %v): h = %d, want %d with the largest operand below 2^63", exp, p2, h, want)
			}
		}
	}
}

// put8's lane divisions are exact over every value a lane holds, and it
// writes each 8-digit group zero-padded.
func TestPut8(t *testing.T) {
	for x := uint64(0); x < 10000; x++ {
		if x*10486>>20 != x/100 {
			t.Fatalf("%d·10486 >> 20 = %d, want %d", x, x*10486>>20, x/100)
		}
	}
	for x := uint64(0); x < 100; x++ {
		if x*103>>10 != x/10 {
			t.Fatalf("%d·103 >> 10 = %d, want %d", x, x*103>>10, x/10)
		}
	}
	var got [8]byte
	for x := uint32(0); x < 1e8; x += 9_973 {
		put8(got[:], x)
		if want := fmt.Sprintf("%08d", x); string(got[:]) != want {
			t.Fatalf("put8(%d) = %s, want %s", x, got[:], want)
		}
	}
}

// BenchmarkAppendFloat formats the eight floats of every full-cartesian
// outcome through appendFloat, and through strconv's shortest 'f'
// formatting, which encoding/json and the encoder's earlier path call,
// and reports ns per float.
func BenchmarkAppendFloat(b *testing.B) {
	sp, err := scenario.ByName("full-cartesian")
	if err != nil {
		b.Fatal(err)
	}
	outs, err := sp.Run(engine.New(platform.NewPurley().Socket(0), 0))
	if err != nil {
		b.Fatal(err)
	}
	var fs []float64
	for _, o := range outs {
		r := o.Result
		fs = append(fs, o.Scale, r.Time.Seconds(), r.FoMValue, r.Slowdown,
			r.AvgDRAMRead.GBpsValue(), r.AvgDRAMWrite.GBpsValue(), r.AvgNVMRead.GBpsValue(), r.AvgNVMWrite.GBpsValue())
	}
	for _, bc := range []struct {
		name   string
		append func([]byte, float64) []byte
	}{
		{"ndjson", appendFloat},
		{"strconv", func(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'f', -1, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			for b.Loop() {
				for _, f := range fs {
					buf = bc.append(buf[:0], f)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fs)), "ns/float")
		})
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
