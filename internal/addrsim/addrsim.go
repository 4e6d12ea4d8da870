// Package addrsim generates concrete 64-byte-line address streams for
// each access pattern and drives them through the operational device
// models (the direct-mapped DRAM cache of internal/dramcache and the WPQ
// of internal/memdev). It exists to ground the epoch solver's closed-form
// constants in measurable queue/tag behaviour: tests compare, for
// example, the WPQ combining ratio of a transpose stream against
// Pattern.CombineFactor, and the measured cache hit rate of a stencil
// sweep against dramcache.HitModel.
//
// The generator is a stream: Next produces one request at a time and
// Fill batches it, so RunCacheStream and RunWPQStream drive arbitrarily
// long streams in O(1) memory. Their tests compare them with drivers
// over a materialized slice of the same requests.
package addrsim

import (
	"fmt"

	"repro/internal/dramcache"
	"repro/internal/memdev"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Request is one memory access in a generated stream.
type Request = dramcache.Request

// Generator produces a pattern's address stream over a region of the
// given size.
type Generator struct {
	Pattern    memdev.Pattern
	Region     units.Bytes // footprint being swept
	WriteRatio float64     // fraction of accesses that are stores
	Streams    int         // concurrent interleaved streams (threads)

	rng       *xrand.Rand
	perStream int64
	// Streaming position: requests emitted since the last rewind, and the
	// per-stream pattern cursors.
	n   int64
	pos []int64
}

// NewGenerator builds a stream generator. Streams below 1 become 1.
func NewGenerator(p memdev.Pattern, region units.Bytes, writeRatio float64, streams int, seed uint64) *Generator {
	if streams < 1 {
		streams = 1
	}
	if region < units.CacheLine {
		region = units.CacheLine
	}
	lines := region.Lines()
	if lines < 1 {
		lines = 1
	}
	perStream := lines / int64(streams)
	if perStream < 1 {
		perStream = 1
	}
	return &Generator{
		Pattern:    p,
		Region:     region,
		WriteRatio: units.Clamp(writeRatio, 0, 1),
		Streams:    streams,
		rng:        xrand.New(seed),
		perStream:  perStream,
		pos:        make([]int64, streams),
	}
}

// Next produces the next request of the stream. Streams are interleaved
// round-robin, as hardware sees stores from concurrently running
// threads. It does not allocate.
func (g *Generator) Next() Request {
	i := g.n
	g.n++
	s := int(i % int64(g.Streams))
	perStream := g.perStream
	base := int64(s) * perStream
	var line int64
	switch g.Pattern {
	case memdev.Sequential:
		line = base + g.pos[s]%perStream
		g.pos[s]++
	case memdev.Stencil:
		// Unit stride with periodic plane-neighbour jumps
		// (7-point stencil: same line run plus +-plane strides).
		step := g.pos[s] % 8
		if step < 6 {
			line = base + (g.pos[s]/8*6+step)%perStream
		} else {
			// neighbour plane at a large offset
			line = base + (g.pos[s]/8*6+step*97)%perStream
		}
		g.pos[s]++
	case memdev.Strided:
		// Blocked-strided: short runs of 3 lines separated by a
		// 16-line stride — the panel/block access the profiles
		// mean by "strided" (partial 256-byte block locality).
		run := g.pos[s] % 3
		line = base + ((g.pos[s]/3)*16+run)%perStream
		g.pos[s]++
	case memdev.Transpose:
		// Power-of-two large stride with short runs: column walk of
		// a row-major matrix.
		const stride = 1024
		line = base + (g.pos[s]*stride+(g.pos[s]/perStream))%perStream
		g.pos[s]++
	case memdev.Gather:
		// Clustered indirection: random cluster base, short runs.
		if g.pos[s]%4 == 0 {
			g.pos[s] = g.rng.Int63n(perStream) * 4
		}
		line = base + (g.pos[s]/4+g.pos[s]%4)%perStream
		g.pos[s]++
	case memdev.Random:
		line = base + g.rng.Int63n(perStream)
	default:
		panic(fmt.Sprintf("addrsim: unsupported pattern %v", g.Pattern))
	}
	return Request{Line: line, Write: g.rng.Float64() < g.WriteRatio}
}

// Fill overwrites buf with the next len(buf) requests of the stream —
// the batched form of Next for drivers that amortize per-request call
// overhead over a reusable buffer.
func (g *Generator) Fill(buf []Request) {
	for i := range buf {
		buf[i] = g.Next()
	}
}

// CacheResult summarizes a stream driven through a DRAM cache.
type CacheResult struct {
	HitRate       float64
	Writebacks    int64
	Fills         int64
	NVMReadLines  int64
	NVMWriteLines int64
}

// cacheStreamBuf is the reusable request chunk RunCacheStream fills per
// AccessBatch call: large enough to amortize the batch call, small
// enough to stay in L1.
const cacheStreamBuf = 1024

// RunCacheStream drives the next n requests of the stream through a
// direct-mapped cache of the given capacity in O(1) memory, with an
// initial warm-up pass of n/4 requests excluded from statistics. For a
// fresh generator the result is identical to driving its first n
// requests, materialized, through the same cache with the same warm-up.
func RunCacheStream(capacity units.Bytes, g *Generator, n int) CacheResult {
	c := dramcache.NewCache(capacity)
	var buf [cacheStreamBuf]Request
	drive := func(count int) {
		for count > 0 {
			k := min(count, len(buf))
			g.Fill(buf[:k])
			c.AccessBatch(buf[:k])
			count -= k
		}
	}
	warm := n / 4
	drive(warm)
	c.Reset()
	drive(n - warm)
	return cacheResult(c)
}

func cacheResult(c *dramcache.Cache) CacheResult {
	tr := c.Traffic()
	return CacheResult{
		HitRate:       c.HitRate(),
		Writebacks:    c.Writebacks,
		Fills:         c.Fills,
		NVMReadLines:  tr.NVMReadLines,
		NVMWriteLines: tr.NVMWriteLines,
	}
}

// WPQResult summarizes a store stream driven through the WPQ.
type WPQResult struct {
	CombiningRatio float64
	EffectiveBW    units.Bandwidth
	Stalls         int64
}

// RunWPQStream drives the write requests of the next n stream elements
// through a WPQ at the given arrival bandwidth (bytes/s of 64-byte
// stores) in O(1) memory and returns the achieved combining. Reads in
// the stream advance time but do not enter the queue. For a fresh
// generator the result is identical to driving its first n requests,
// materialized, through the queue at the same arrival rate.
func RunWPQStream(q *memdev.WPQ, g *Generator, n int, arrival units.Bandwidth) WPQResult {
	if arrival <= 0 {
		arrival = units.GBps(10)
	}
	interval := units.CacheLine / float64(arrival)
	now := 0.0
	for i := 0; i < n; i++ {
		r := g.Next()
		now += interval
		if !r.Write {
			continue
		}
		now += q.Store(now, uint64(r.Line))
	}
	q.Flush()
	return wpqResult(q)
}

func wpqResult(q *memdev.WPQ) WPQResult {
	return WPQResult{
		CombiningRatio: q.CombiningRatio(),
		EffectiveBW:    q.EffectiveWriteBandwidth(),
		Stalls:         q.Stalls,
	}
}
