package ndjson_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/memsys"
	"repro/internal/ndjson"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// intoBand moves a float64 bit pattern's exponent field into the binades
// of encoding/json's fixed notation, 2^-20 to 2^70, keeping those
// already there. A random pattern lands there only ~4% of the time.
func intoBand(u uint64) uint64 {
	const lo, n = 1023 - 20, 90
	if exp := int(u >> 52 & 0x7ff); exp < lo || exp >= lo+n {
		u = u&^(0x7ff<<52) | uint64(lo+exp%n)<<52
	}
	return u
}

// FuzzOutcomeLine holds a whole outcome line to encoding/json for a
// fuzzed app, thread count and eight float bit patterns. The even slots
// move into the fixed-notation band, the odd ones stay as given, so both
// notations and their edges are reached; time_s and fom sharing their
// bits takes the encoder's reuse path.
func FuzzOutcomeLine(f *testing.F) {
	for i, x := range edgeFloats {
		u, fom := math.Float64bits(x), math.Float64bits(-x)
		if i%2 == 1 {
			fom = u
		}
		f.Add(edgeStrings[i%len(edgeStrings)], 8*i-3, u, u, fom, u, u, ^u, u>>1, u+1)
	}
	f.Fuzz(func(t *testing.T, app string, threads int, scale, time, fom, slowdown, dr, dw, nr, nw uint64) {
		v := [...]uint64{scale, time, fom, slowdown, dr, dw, nr, nw}
		var x [len(v)]float64
		for i, u := range v {
			if i%2 == 0 {
				u = intoBand(u)
			}
			x[i] = math.Float64frombits(u)
		}
		o := scenario.Outcome{
			Meta: scenario.Meta{App: app, Mode: memsys.Mode(threads & 3), Threads: threads, Scale: x[0]},
			Result: workload.Result{
				Workload:     &workload.Workload{},
				Time:         units.Duration(x[1]),
				FoMValue:     x[2],
				Slowdown:     x[3],
				AvgDRAMRead:  units.GBps(x[4]),
				AvgDRAMWrite: units.GBps(x[5]),
				AvgNVMRead:   units.GBps(x[6]),
				AvgNVMWrite:  units.GBps(x[7]),
			},
		}
		o.Result.Workload.FoM.Unit = app
		for _, y := range []float64{
			o.Scale, o.Result.Time.Seconds(), o.Result.FoMValue, o.Result.Slowdown,
			o.Result.AvgDRAMRead.GBpsValue(), o.Result.AvgDRAMWrite.GBpsValue(),
			o.Result.AvgNVMRead.GBpsValue(), o.Result.AvgNVMWrite.GBpsValue(),
		} {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				t.Skip("encoding/json rejects non-finite floats")
			}
		}
		want, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		var enc ndjson.Encoder
		if got := enc.Outcome(o); !bytes.Equal(got, want) {
			t.Errorf("encoding drifted from encoding/json:\n got  %s\n want %s", got, want)
		}
	})
}
