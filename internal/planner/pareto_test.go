package planner

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/xrand"
)

// paretoAllPairs is the frontier by all-pairs dominance scan, the
// reference pareto's sorted sweep must match: per application, in order
// of appearance, every feasible resolved point that no other such point
// dominates, ordered by time then DRAM then index. It resolves a point
// only when its time is positive, so NaN times are left out as zero and
// negative ones are.
func paretoAllPairs(points []PlannedPoint) []int {
	byApp := map[string][]int{}
	var apps []string
	for i := range points {
		app := points[i].Meta.App
		if _, ok := byApp[app]; !ok {
			apps = append(apps, app)
		}
		byApp[app] = append(byApp[app], i)
	}
	var out []int
	for _, app := range apps {
		m := byApp[app]
		var front []int
		for _, i := range m {
			e := &points[i]
			if !e.Feasible || !(e.Time > 0) {
				continue
			}
			dominated := false
			for _, j := range m {
				f := &points[j]
				if !f.Feasible || !(f.Time > 0) || i == j {
					continue
				}
				if f.Time <= e.Time && f.DRAMUsed <= e.DRAMUsed &&
					(f.Time < e.Time || f.DRAMUsed < e.DRAMUsed) {
					dominated = true
					break
				}
			}
			if !dominated {
				front = append(front, i)
			}
		}
		sort.SliceStable(front, func(a, b int) bool {
			pa, pb := &points[front[a]], &points[front[b]]
			if pa.Time != pb.Time {
				return pa.Time < pb.Time
			}
			return pa.DRAMUsed < pb.DRAMUsed
		})
		out = append(out, front...)
	}
	return out
}

// The sorted-sweep frontier returns exactly the all-pairs scan's indices
// in the same order, over seeded random spaces of three interleaved
// applications whose times and DRAM values tie often, with infeasible
// points and unresolved times (zero, negative, NaN) mixed in, and +Inf
// times that every finite time at no more DRAM dominates.
func TestParetoMatchesAllPairs(t *testing.T) {
	apps := []string{"a", "b", "c"}
	times := []units.Duration{
		0, -1, units.Duration(math.NaN()), units.Duration(math.Inf(1)),
		0.5, 1, 1, 2, 2, 3, 4,
	}
	drams := []units.Bytes{0, 1, 1, 2, 3, 5, 8}
	nonEmpty := 0
	for seed := uint64(1); seed <= 10000; seed++ {
		r := xrand.New(seed)
		n := 1 + r.Intn(48)
		points := make([]Point, n)
		for i := range points {
			points[i] = Point{
				Meta:     scenario.Meta{App: apps[r.Intn(len(apps))]},
				DRAMUsed: drams[r.Intn(len(drams))],
				Feasible: r.Intn(6) != 0,
			}
		}
		space, err := NewSpace(points, Options{})
		if err != nil {
			t.Fatal(err)
		}
		planned := make([]PlannedPoint, n)
		for i, pt := range points {
			planned[i] = PlannedPoint{Point: pt, Index: i}
			if r.Intn(3) == 0 {
				planned[i].Time = units.Duration(r.Range(0.5, 4))
			} else {
				planned[i].Time = times[r.Intn(len(times))]
			}
		}
		got, want := pareto(planned, space.apps), paretoAllPairs(planned)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: sorted sweep %v, all-pairs scan %v", seed, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 9000 {
		t.Errorf("only %d of 10000 spaces had a frontier", nonEmpty)
	}
}
