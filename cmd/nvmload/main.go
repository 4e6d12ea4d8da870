// Command nvmload replays declarative traffic specs against the
// serving stack and reports per-SLO-class latency, throughput and
// cache behaviour — the closed-loop harness for the "heavy traffic"
// half of the serving story.
//
// Usage:
//
//	nvmload -list
//	nvmload -spec bursty-two-class -inprocess
//	nvmload -spec traffic/bursty-two-class.json -target http://127.0.0.1:8080
//	nvmload -spec bursty-two-class -inprocess -report json
//	nvmload -spec mixed-plan-load -inprocess -duration 2s -seed 7
//
// A traffic spec (internal/traffic; shipped presets under traffic/ at
// the repository root) declares clients with rate fractions, arrival
// processes (poisson, gamma, bursty), SLO classes (critical, batch,
// background), submission templates (a scenario preset or an inline
// spec, run as a sweep or an adaptive plan) and cohort phases (ramp,
// steady, spike, drain). nvmload expands it into a deterministic
// seeded arrival schedule and replays it either against a live
// nvmserve daemon (-target URL, over the HTTP API) or against an
// in-process session manager (-inprocess, no network), following
// every submitted run to completion.
//
// The report carries, per SLO class: offered versus achieved
// submission rate; admission-to-first-point and admission-to-done
// latency digests (p50/p95/p99); and result-cache hit rates — the
// serving-path quantities the ROADMAP's traffic model calls for.
// -require-clean exits non-zero unless every offered arrival was
// submitted and completed (the CI load-smoke gate).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/session"
	"repro/internal/traffic"
)

func main() {
	list := flag.Bool("list", false, "list shipped traffic presets, then exit")
	spec := flag.String("spec", "", "traffic spec: a preset name (see -list) or a *.json path")
	target := flag.String("target", "", "replay against a live nvmserve base URL (e.g. http://127.0.0.1:8080)")
	inprocess := flag.Bool("inprocess", false, "replay against an in-process session manager (no daemon)")
	workers := flag.Int("workers", 0, "engine worker count for -inprocess (0 = GOMAXPROCS)")
	duration := flag.Duration("duration", 0, "truncate the schedule: arrivals past this offset are not offered")
	seed := flag.Uint64("seed", 0, "override the spec's seed")
	fullSpeed := flag.Bool("full-speed", false, "ignore inter-arrival gaps and submit back-to-back")
	maxInFlight := flag.Int("max-inflight", 0, "cap concurrently outstanding runs (0 = unlimited)")
	report := flag.String("report", "table", "report format: table|json")
	requireClean := flag.Bool("require-clean", false, "exit non-zero unless every offered arrival was submitted and completed")
	retries := flag.Int("retries", 0, "retry budget per submission: 429/5xx/connection failures are retried with exponential backoff + full jitter, honoring Retry-After (remote targets only)")
	retryBase := flag.Duration("retry-base", 0, "first retry backoff window; doubles per retry (default 100ms)")
	rateScale := flag.Float64("rate-scale", 1, "multiply the spec's aggregate rate (e.g. 4 for an overload drill at 4x the declared load)")
	flag.Parse()

	if *list {
		listPresets(os.Stdout)
		return
	}
	if *spec == "" {
		fatal(fmt.Errorf("no traffic spec: use -spec <preset|path> (see -list)"))
	}
	sp, err := resolveSpec(*spec)
	if err != nil {
		fatal(err)
	}
	if *rateScale != 1 {
		sp, err = scaleRate(sp, *rateScale)
		if err != nil {
			fatal(err)
		}
	}
	tgt, cleanup, err := buildTarget(*target, *inprocess, *workers, traffic.RetryPolicy{
		Max:  *retries,
		Base: *retryBase,
		Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := traffic.Options{
		Seed:        *seed,
		Duration:    *duration,
		FullSpeed:   *fullSpeed,
		MaxInFlight: *maxInFlight,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	rep, err := runLoad(ctx, os.Stdout, tgt, sp, opts, *report)
	if err != nil {
		fatal(err)
	}
	if *requireClean && !rep.Clean() {
		fmt.Fprintf(os.Stderr, "nvmload: replay not clean: offered %d, completed %d, failed %d, dropped %d, shed %d\n",
			rep.Total.Offered, rep.Total.Completed, rep.Total.Failed, rep.Total.Dropped, rep.Total.Shed)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvmload:", err)
	os.Exit(1)
}

// listPresets prints the shipped traffic presets.
func listPresets(w io.Writer) {
	fmt.Fprintf(w, "%-20s %6s %8s %9s  %s\n", "preset", "rate", "clients", "duration", "description")
	for _, s := range traffic.Presets() {
		fmt.Fprintf(w, "%-20s %6.1f %8d %8.1fs  %s\n",
			s.Name, s.Rate, len(s.Clients), s.TotalDuration(), s.Description)
	}
}

// resolveSpec loads the traffic spec named by arg: a shipped preset
// name, or a spec file path.
func resolveSpec(arg string) (traffic.Spec, error) {
	if strings.ContainsAny(arg, "/.") {
		return traffic.LoadSpec(arg)
	}
	return traffic.ByName(arg)
}

// buildTarget resolves the replay target from the flags: exactly one of
// -target <url> or -inprocess. The cleanup closes whatever the target
// owns (the in-process manager and engine). The retry policy applies to
// remote targets only; the in-process manager never sheds.
func buildTarget(url string, inprocess bool, workers int, retry traffic.RetryPolicy) (traffic.Target, func(), error) {
	switch {
	case url != "" && inprocess:
		return nil, nil, fmt.Errorf("-target and -inprocess are exclusive")
	case url != "":
		return traffic.NewRemoteTarget(url, nil).WithRetry(retry), func() {}, nil
	case inprocess:
		mgr := session.NewManager(engine.New(platform.NewPurley().Socket(0), workers))
		return traffic.NewManagerTarget(mgr), mgr.Close, nil
	default:
		return nil, nil, fmt.Errorf("no target: use -target <url> or -inprocess")
	}
}

// scaleRate multiplies the spec's aggregate submission rate — the
// overload drill's lever — revalidating so a scaled spec still sits
// inside the generator's bounds.
func scaleRate(sp traffic.Spec, scale float64) (traffic.Spec, error) {
	if scale <= 0 {
		return sp, fmt.Errorf("-rate-scale %v: must be positive", scale)
	}
	sp.Rate *= scale
	if err := sp.Validate(); err != nil {
		return sp, fmt.Errorf("after -rate-scale %v: %w", scale, err)
	}
	return sp, nil
}

// runLoad replays the spec against the target and renders the report in
// the requested format.
func runLoad(ctx context.Context, out io.Writer, tgt traffic.Target, sp traffic.Spec, opts traffic.Options, format string) (*traffic.Report, error) {
	rep, err := traffic.Replay(ctx, tgt, sp, opts)
	if err != nil {
		return nil, err
	}
	switch format {
	case "table":
		fmt.Fprint(out, rep.Table())
	case "json":
		b, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		out.Write(b)
	default:
		return nil, fmt.Errorf("unknown report format %q (have table|json)", format)
	}
	return rep, nil
}
