package traffic

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/stats"
)

// ClassReport is one SLO class's view of a replay: how much traffic was
// offered versus actually landed, the admission-to-first-point and
// admission-to-done latency digests, and the class's share of the
// engine's result-cache accounting.
type ClassReport struct {
	Class Class `json:"class"`
	// Offered counts scheduled arrivals; Submitted the ones the target
	// accepted; Completed the runs that finished done; Failed submit
	// rejections plus runs ending failed or cancelled; Dropped arrivals
	// never attempted (the replay context fired first). Shed counts
	// submissions the target's admission gate declined for overload (429
	// through the retry budget) — the daemon protecting itself, booked
	// apart from failures; Retries the re-submissions transient
	// rejections cost the class.
	Offered   int `json:"offered"`
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Dropped   int `json:"dropped"`
	Shed      int `json:"shed"`
	Retries   int `json:"retries"`
	// OfferedRate is Offered over the schedule's duration; AchievedRate
	// is Completed over the replay's wall-clock elapsed time.
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	// FirstPoint digests admission-to-first-point latency (seconds):
	// submit accepted to first resolved point observed. Done is
	// admission to terminal state for completed runs.
	FirstPoint stats.LatencySummary `json:"first_point_s"`
	Done       stats.LatencySummary `json:"done_s"`
	// Cache accounting summed over the class's watched runs, each run
	// contributing the hits and misses its own status reports.
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Report is the outcome of one Replay.
type Report struct {
	Spec   string `json:"spec"`
	Target string `json:"target"`
	Seed   uint64 `json:"seed"`
	// ScheduledS is the generated schedule's span; ElapsedS the
	// wall-clock time the replay actually took (schedule plus waiting
	// out the last runs).
	ScheduledS float64 `json:"scheduled_s"`
	ElapsedS   float64 `json:"elapsed_s"`
	// Classes holds one report per SLO class with traffic, in the fixed
	// critical/batch/background order; Total aggregates them.
	Classes []ClassReport `json:"classes"`
	Total   ClassReport   `json:"total"`
}

// Clean reports whether every offered arrival was submitted and
// completed — the load-smoke gate's definition of a clean replay. A
// shed arrival is not clean: the daemon stayed healthy, but the offered
// load did not all land.
func (r *Report) Clean() bool {
	return r.Total.Dropped == 0 && r.Total.Failed == 0 && r.Total.Shed == 0 &&
		r.Total.Completed == r.Total.Offered
}

// JSON renders the report as an indented document.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Table renders the report as an aligned text table, one row per class
// plus the total.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traffic %s -> %s (seed %d)\n", r.Spec, r.Target, r.Seed)
	fmt.Fprintf(&b, "scheduled %.2fs, elapsed %.2fs\n\n", r.ScheduledS, r.ElapsedS)
	fmt.Fprintf(&b, "%-11s %8s %8s %8s %8s %8s %8s %8s %11s %11s %11s %11s %11s %7s\n",
		"class", "offered", "done", "failed", "dropped", "shed", "retries", "rate/s",
		"first-p50", "first-p95", "first-p99", "done-p50", "done-p99", "cache")
	row := func(c ClassReport) {
		fmt.Fprintf(&b, "%-11s %8d %8d %8d %8d %8d %8d %8.2f %9.2fms %9.2fms %9.2fms %9.2fms %9.2fms %6.1f%%\n",
			c.Class, c.Offered, c.Completed, c.Failed, c.Dropped, c.Shed, c.Retries, c.AchievedRate,
			1e3*c.FirstPoint.P50, 1e3*c.FirstPoint.P95, 1e3*c.FirstPoint.P99,
			1e3*c.Done.P50, 1e3*c.Done.P99, 100*c.CacheHitRate)
	}
	for _, c := range r.Classes {
		row(c)
	}
	row(r.Total)
	return b.String()
}
