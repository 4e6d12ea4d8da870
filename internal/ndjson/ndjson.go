// Package ndjson is the zero-allocation streaming encoder behind
// nvmserve's outcome and plan-point NDJSON endpoints. An Encoder renders
// one newline-terminated JSON line per evaluation point into a buffer it
// reuses across calls: after the buffer warms up, encoding a point
// performs no allocation at all (pinned by an AllocsPerRun test), where
// the encoding/json path allocated per point — the difference between
// streaming a handful of outcomes and re-serving a million-point store.
//
// The emitted bytes are pinned to be exactly what encoding/json produces
// for the same value (scenario.Outcome's and planner.PlannedPoint's
// MarshalJSON schemas, including omitempty behavior, float formatting
// and string escaping), so switching an endpoint to this encoder is
// invisible to consumers; property and fuzz tests compare the two
// encoders byte-for-byte over real sweep and plan records and
// adversarial values, and nvmserve's stream tests compare whole served
// streams with encoding/json's.
//
// Floats are most of a line's bytes and of its cost. The model's
// values all lie in encoding/json's fixed-notation band, 0 and
// magnitudes in [1e-6, 1e21), and the encoder renders that band with its
// own shortest-digit routine instead of strconv's general one: the
// exact-integer shortcut, or Schubfach's selection from three 64×128-bit
// products by a 28-entry table of 10^e for e in [-5, 22] (the powers the
// band reaches), and the digits written eight at a time into the line.
// Its bytes equal strconv's shortest 'f' formatting, which
// tests check over millions of seeded values and the table against
// math/big. It uses integer arithmetic only, so its bytes cannot depend
// on whether a host fuses multiply-adds. Exponent notation, outside the
// band, keeps strconv: no shipped workload produces such a value, and a
// second layout for it would be code no stream runs. A line whose figure
// of merit is its run time (five of the eight dwarfs) copies time_s's
// bytes for fom instead of rendering the same float twice.
package ndjson

import (
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/planner"
	"repro/internal/scenario"
)

// Encoder renders NDJSON lines into a reused buffer. The zero value is
// ready to use. Each call returns a slice into the encoder's internal
// buffer, valid until the next call — write it out (or copy it) before
// encoding the next point. Not safe for concurrent use; give each
// stream its own Encoder.
type Encoder struct {
	buf []byte
}

// Outcome renders one sweep outcome line, byte-identical to
// scenario.Outcome's MarshalJSON plus a trailing newline.
func (e *Encoder) Outcome(o scenario.Outcome) []byte {
	b := e.buf[:0]
	b = append(b, `{"app":`...)
	b = appendString(b, o.App)
	b = append(b, `,"mode":`...)
	b = appendString(b, o.Mode.String())
	b = append(b, `,"threads":`...)
	b = strconv.AppendInt(b, int64(o.Threads), 10)
	b = append(b, `,"scale":`...)
	b = appendFloat(b, o.Scale)
	b = append(b, `,"time_s":`...)
	t := o.Result.Time.Seconds()
	ts := len(b)
	b = appendFloat(b, t)
	te := len(b)
	b = append(b, `,"fom":`...)
	// A dwarf whose figure of merit is its run time reports the same
	// float as time_s: reuse the bytes just rendered.
	if math.Float64bits(o.Result.FoMValue) == math.Float64bits(t) {
		b = append(b, b[ts:te]...)
	} else {
		b = appendFloat(b, o.Result.FoMValue)
	}
	if o.Result.Workload != nil && o.Result.Workload.FoM.Unit != "" {
		b = append(b, `,"fom_unit":`...)
		b = appendString(b, o.Result.Workload.FoM.Unit)
	}
	b = append(b, `,"slowdown":`...)
	b = appendFloat(b, o.Result.Slowdown)
	b = append(b, `,"dram_read_gbps":`...)
	b = appendFloat(b, o.Result.AvgDRAMRead.GBpsValue())
	b = append(b, `,"dram_write_gbps":`...)
	b = appendFloat(b, o.Result.AvgDRAMWrite.GBpsValue())
	b = append(b, `,"nvm_read_gbps":`...)
	b = appendFloat(b, o.Result.AvgNVMRead.GBpsValue())
	b = append(b, `,"nvm_write_gbps":`...)
	b = appendFloat(b, o.Result.AvgNVMWrite.GBpsValue())
	b = append(b, '}', '\n')
	e.buf = b
	return b
}

// PlannedPoint renders one plan-point line, byte-identical to
// planner.PlannedPoint's MarshalJSON plus a trailing newline.
func (e *Encoder) PlannedPoint(p planner.PlannedPoint) []byte {
	b := e.buf[:0]
	b = append(b, `{"app":`...)
	b = appendString(b, p.Meta.App)
	b = append(b, `,"mode":`...)
	b = appendString(b, p.Meta.Mode.String())
	b = append(b, `,"threads":`...)
	b = strconv.AppendInt(b, int64(p.Meta.Threads), 10)
	b = append(b, `,"scale":`...)
	b = appendFloat(b, p.Meta.Scale)
	b = append(b, `,"time_s":`...)
	b = appendFloat(b, p.Time.Seconds())
	b = append(b, `,"evaluated":`...)
	b = appendBool(b, p.Evaluated)
	if p.Round != 0 {
		b = append(b, `,"round":`...)
		b = strconv.AppendInt(b, int64(p.Round), 10)
	}
	if s := p.Predicted.Seconds(); s != 0 {
		b = append(b, `,"predicted_s":`...)
		b = appendFloat(b, s)
	}
	b = append(b, `,"dram_bytes":`...)
	b = strconv.AppendInt(b, int64(p.DRAMUsed), 10)
	b = append(b, `,"feasible":`...)
	b = appendBool(b, p.Feasible)
	b = append(b, '}', '\n')
	e.buf = b
	return b
}

// Error renders the in-band error line the streaming endpoints emit on
// failure: {"error":"..."} plus a newline, matching what
// json.Encoder.Encode(map[string]string{"error": ...}) produced.
func (e *Encoder) Error(err error) []byte {
	b := e.buf[:0]
	b = append(b, `{"error":`...)
	b = appendString(b, err.Error())
	b = append(b, '}', '\n')
	e.buf = b
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

const hexDigits = "0123456789abcdef"

// appendString matches encoding/json's string encoding with its default
// HTML-safe escaping: control characters (\b, \f, \n, \r and \t in
// short form, the rest as \u00XX), quote and backslash escape,
// '<', '>', '&' and U+2028/U+2029 escape as \uXXXX, and invalid UTF-8
// becomes U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
