package traffic

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
)

// Options tune a Replay.
type Options struct {
	// Seed overrides the spec's seed when non-zero.
	Seed uint64
	// Duration truncates the schedule: arrivals past it are not offered.
	// Zero replays the full schedule.
	Duration time.Duration
	// FullSpeed ignores the schedule's inter-arrival gaps and submits
	// each arrival as soon as the loop reaches it — the tracked
	// benchmark's mode, where the latency under test is the serving
	// path's, not the spec's pacing.
	FullSpeed bool
	// MaxInFlight caps concurrently outstanding runs; an arrival waits
	// for a slot (skewing pacing) rather than overrunning the target.
	// Zero means unlimited.
	MaxInFlight int
	// Logf, when set, receives submit failures and non-done run notes.
	Logf func(format string, args ...any)
}

// classAcc accumulates one SLO class's replay measurements. All access
// is serialized by the driver's mutex.
type classAcc struct {
	offered    int
	submitted  int
	completed  int
	failed     int
	dropped    int
	shed       int
	retries    int
	firstPoint stats.Histogram
	done       stats.Histogram
	hits       uint64
	misses     uint64
}

// Replay plays the spec's arrival schedule against the target and
// reports what came back, per SLO class: admission-to-first-point and
// admission-to-done latency digests, achieved versus offered rate, and
// cache hit rates. It submits on the schedule's clock (unless
// Options.FullSpeed), follows every run to its terminal state, and
// returns once all outstanding runs have resolved. A fired ctx stops
// new submissions (the remainder count as dropped) and cancels
// outstanding watches; the partial report is still returned.
func Replay(ctx context.Context, target Target, sp Spec, opts Options) (*Report, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = sp.Seed
	}
	events, err := sp.Timeline(seed)
	if err != nil {
		return nil, err
	}
	scheduled := sp.TotalDuration()
	if opts.Duration > 0 && opts.Duration.Seconds() < scheduled {
		scheduled = opts.Duration.Seconds()
		n := 0
		for _, ev := range events {
			if ev.At > opts.Duration {
				break
			}
			n++
		}
		events = events[:n]
	}

	// Resolve each client's template once; every arrival of a client
	// submits the same spec (that sameness is what makes the result
	// cache part of the serving story).
	subs := make([]Submission, len(sp.Clients))
	for i, c := range sp.Clients {
		resolved, err := c.Submit.Resolve()
		if err != nil {
			return nil, fmt.Errorf("traffic %s: client %s: %w", sp.Name, c.ID, err)
		}
		subs[i] = Submission{Spec: resolved, Kind: c.Submit.kind(), Class: c.Class}
	}

	var mu sync.Mutex
	accs := map[Class]*classAcc{}
	acc := func(c Class) *classAcc {
		if a, ok := accs[c]; ok {
			return a
		}
		a := &classAcc{}
		accs[c] = a
		return a
	}
	for _, ev := range events {
		acc(sp.Clients[ev.Client].Class).offered++
	}
	// dropFrom books every not-yet-attempted arrival as dropped when the
	// replay context fires mid-schedule.
	dropFrom := func(i int) {
		mu.Lock()
		for _, ev := range events[i:] {
			acc(sp.Clients[ev.Client].Class).dropped++
		}
		mu.Unlock()
	}

	var sem chan struct{}
	if opts.MaxInFlight > 0 {
		sem = make(chan struct{}, opts.MaxInFlight)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
loop:
	for i, ev := range events {
		if !opts.FullSpeed {
			if wait := ev.At - time.Since(start); wait > 0 {
				timer.Reset(wait)
				select {
				case <-ctx.Done():
					dropFrom(i)
					break loop
				case <-timer.C:
				}
			}
		}
		if sem != nil {
			select {
			case <-ctx.Done():
				dropFrom(i)
				break loop
			case sem <- struct{}{}:
			}
		}
		if ctx.Err() != nil {
			if sem != nil {
				<-sem
			}
			dropFrom(i)
			break loop
		}
		client := sp.Clients[ev.Client]
		class := client.Class
		sub := subs[ev.Client]
		admitted := time.Now()
		h, err := target.Submit(ctx, sub)
		if err != nil {
			logf("traffic: submit %s (client %s): %v", sub.Spec.Name, client.ID, err)
			mu.Lock()
			// A shed is the target's admission gate declining the run (429
			// after the retry budget) — booked apart from failures, which
			// are runs going wrong.
			var se *ShedError
			if errors.As(err, &se) {
				a := acc(class)
				a.shed++
				a.retries += se.Retries
			} else {
				acc(class).failed++
			}
			mu.Unlock()
			if sem != nil {
				<-sem
			}
			continue
		}
		mu.Lock()
		a := acc(class)
		a.submitted++
		if rh, ok := h.(interface{ Retries() int }); ok {
			a.retries += rh.Retries()
		}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			st, werr := h.Watch(ctx, func() {
				d := time.Since(admitted).Seconds()
				mu.Lock()
				acc(class).firstPoint.Add(d)
				mu.Unlock()
			})
			mu.Lock()
			defer mu.Unlock()
			a := acc(class)
			if werr != nil {
				a.failed++
				return
			}
			a.hits += st.Hits
			a.misses += st.Misses
			if st.State != stateDone {
				logf("traffic: run of %s ended %s: %s", sub.Spec.Name, st.State, st.Err)
				a.failed++
				return
			}
			a.completed++
			a.done.Add(time.Since(admitted).Seconds())
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return buildReport(sp, target, seed, scheduled, elapsed, accs), nil
}

// buildReport assembles the per-class and total views.
func buildReport(sp Spec, target Target, seed uint64, scheduled float64, elapsed time.Duration, accs map[Class]*classAcc) *Report {
	rep := &Report{
		Spec:       sp.Name,
		Target:     target.Name(),
		Seed:       seed,
		ScheduledS: scheduled,
		ElapsedS:   elapsed.Seconds(),
	}
	var tot ClassReport
	tot.Class = "total"
	var totFirst, totDone stats.Histogram
	for _, class := range Classes() {
		a, ok := accs[class]
		if !ok || a.offered == 0 {
			continue
		}
		c := ClassReport{
			Class:      class,
			Offered:    a.offered,
			Submitted:  a.submitted,
			Completed:  a.completed,
			Failed:     a.failed,
			Dropped:    a.dropped,
			Shed:       a.shed,
			Retries:    a.retries,
			FirstPoint: a.firstPoint.Summary(),
			Done:       a.done.Summary(),
		}
		if scheduled > 0 {
			c.OfferedRate = float64(c.Offered) / scheduled
		}
		if rep.ElapsedS > 0 {
			c.AchievedRate = float64(c.Completed) / rep.ElapsedS
		}
		c.CacheHits, c.CacheMisses = a.hits, a.misses
		if n := c.CacheHits + c.CacheMisses; n > 0 {
			c.CacheHitRate = float64(c.CacheHits) / float64(n)
		}
		rep.Classes = append(rep.Classes, c)

		tot.Offered += c.Offered
		tot.Submitted += c.Submitted
		tot.Completed += c.Completed
		tot.Failed += c.Failed
		tot.Dropped += c.Dropped
		tot.Shed += c.Shed
		tot.Retries += c.Retries
		tot.CacheHits += c.CacheHits
		tot.CacheMisses += c.CacheMisses
		for _, x := range a.firstPoint.Samples() {
			totFirst.Add(x)
		}
		for _, x := range a.done.Samples() {
			totDone.Add(x)
		}
	}
	if scheduled > 0 {
		tot.OfferedRate = float64(tot.Offered) / scheduled
	}
	if rep.ElapsedS > 0 {
		tot.AchievedRate = float64(tot.Completed) / rep.ElapsedS
	}
	if n := tot.CacheHits + tot.CacheMisses; n > 0 {
		tot.CacheHitRate = float64(tot.CacheHits) / float64(n)
	}
	tot.FirstPoint = totFirst.Summary()
	tot.Done = totDone.Summary()
	rep.Total = tot
	return rep
}
