// Command nvmserve serves sweep evaluations over HTTP: a long-running
// daemon that accepts declarative scenario specs (the schema under
// specs/), evaluates them asynchronously across the engine's worker
// pool, and streams outcomes back as NDJSON — the serving layer over the
// resumable session machinery in internal/session.
//
// Usage:
//
//	nvmserve [-addr :8080] [-store results/] [-workers 8] [-retain 1024]
//	         [-max-live 0] [-session-timeout 0] [-drain 10s] [-fault-plan plan.json]
//	         [-fleet [-fleet-heartbeat 500ms]]
//	nvmserve -worker -join http://coordinator:8080 [-store results/] [-worker-name lab-3]
//
// Fleet: with -fleet the daemon becomes a coordinator — it additionally
// mounts the /fleet/v1/* worker endpoints, and sweep/plan batches are
// sharded into chunks that joined workers pull (a worker holds at most
// four in flight; heartbeat-based failure recovery re-queues a dead
// worker's chunks whole; with no workers joined everything runs
// locally, byte-for-byte identical). With -worker -join <url> the
// process runs no HTTP server at all: it registers with the named
// coordinator, pulls chunks, evaluates them on its own engine (its
// -store is the worker-local cache), and posts results back. A worker
// whose disk store degrades self-evicts and exits non-zero, and so does
// one the coordinator refuses at join: coordinator and workers must run
// the same build (one fleet protocol version; a mismatch is 409), and
// a -join URL naming a daemon without -fleet is 404. See internal/fleet
// for the protocol.
//
// With -store, evaluated points persist to a disk result store shared
// with nvmbench: a restarted daemon (or a warm nvmbench -store run)
// re-serves every previously computed point as a cache hit, so repeated
// and overlapping sweeps cost only their cold points.
//
// Overload protection: -max-live bounds concurrently live sessions with
// SLO-class-aware headroom — submissions carry an X-SLO-Class header
// (critical, batch, or background; absent means batch), and when the
// daemon fills, background and batch arrivals are shed with 429 +
// Retry-After while critical traffic is admitted up to the full bound.
// -session-timeout puts a server-side deadline on every admitted
// session. -fault-plan opens the result store over a deterministic
// fault-injection layer (internal/faultline) for chaos drills.
//
// API:
//
//	GET    /healthz                  liveness + store accounting
//	GET    /v1/presets               shipped sweep presets
//	POST   /v1/sweeps                submit a spec (body = spec JSON, or empty with ?preset=<name>)
//	GET    /v1/sweeps                all sessions
//	GET    /v1/sweeps/{id}           session status (state, progress, the session's own cache hits/misses)
//	GET    /v1/sweeps/{id}/outcomes  NDJSON outcome stream in deterministic sweep order
//	DELETE /v1/sweeps/{id}           cancel a running sweep
//	POST   /v1/plans                 resolve a spec through the adaptive planner (same body rules)
//	GET    /v1/plans                 all plan sessions
//	GET    /v1/plans/{id}            plan status (per-round evaluated vs predicted, frontier)
//	GET    /v1/plans/{id}/points     NDJSON point stream (evaluations live, predictions at the end)
//	DELETE /v1/plans/{id}            cancel a running plan
//
// Example:
//
//	nvmserve -store results/ &
//	curl -s -X POST --data-binary @specs/beyond-dram.json localhost:8080/v1/sweeps
//	curl -s localhost:8080/v1/sweeps/sweep-000001
//	curl -sN localhost:8080/v1/sweeps/sweep-000001/outcomes
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/faultline"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/session"
)

func main() {
	// Install the signal handler before anything can answer /healthz: a
	// SIGTERM that lands the moment the daemon looks up must still drain
	// it and close the store, not kill it outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "", "back the engine with a disk result store at this directory (sweeps persist and resume across restarts)")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	retain := flag.Int("retain", session.DefaultRetain, "retention cap: total sessions kept in memory; the oldest terminal sessions beyond it are evicted (their points stay in the result store); 0 keeps everything")
	maxLive := flag.Int("max-live", 0, "admission bound: maximum concurrently live sessions; beyond class headroom, submissions are shed with 429 + Retry-After (0 = unlimited)")
	sessTimeout := flag.Duration("session-timeout", 0, "server-side deadline per admitted session; a sweep or plan still running when it fires is cancelled between jobs (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain bound: how long in-flight NDJSON streams get to finish on complete lines before the listener is torn down")
	faultPlan := flag.String("fault-plan", "", "open the result store over a deterministic fault-injection plan (internal/faultline JSON; requires -store) — chaos drills only")
	fleetMode := flag.Bool("fleet", false, "coordinator mode: mount the /fleet/v1/* worker endpoints and dispatch sweep/plan batches across joined workers (falls back to local evaluation with no workers)")
	workerMode := flag.Bool("worker", false, "worker mode: join the coordinator named by -join and evaluate pulled chunks instead of serving HTTP")
	join := flag.String("join", "", "coordinator base URL for -worker (e.g. http://127.0.0.1:8080)")
	workerName := flag.String("worker-name", "", "worker label in the coordinator's health report (default host:pid)")
	heartbeat := flag.Duration("fleet-heartbeat", fleet.DefaultHeartbeat, "coordinator: worker heartbeat cadence; a worker silent for 4x this is declared dead and its chunks re-queue")
	workerDelay := flag.Duration("worker-delay", 0, "worker: deterministic extra latency per evaluated point — scheduler drills and CI smoke only")
	flag.Parse()

	if *faultPlan != "" && *storeDir == "" {
		fatal(errors.New("-fault-plan requires -store"))
	}
	if *workerMode {
		if *join == "" {
			fatal(errors.New("-worker requires -join <coordinator URL>"))
		}
		if *fleetMode {
			fatal(errors.New("-worker and -fleet are exclusive: a worker joins a coordinator, it does not run one"))
		}
		runWorker(ctx, workerConfig{
			join:      *join,
			name:      *workerName,
			storeDir:  *storeDir,
			faultPlan: *faultPlan,
			workers:   *workers,
			delay:     *workerDelay,
		})
		return
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	err = serve(ctx, l, serveConfig{
		storeDir:    *storeDir,
		faultPlan:   *faultPlan,
		workers:     *workers,
		retain:      *retain,
		maxLive:     *maxLive,
		sessTimeout: *sessTimeout,
		drain:       *drain,
		fleet:       *fleetMode,
		heartbeat:   *heartbeat,
	})
	if err != nil {
		fatal(err)
	}
}

// serveConfig carries the serving-mode flags.
type serveConfig struct {
	storeDir    string
	faultPlan   string
	workers     int
	retain      int
	maxLive     int
	sessTimeout time.Duration
	drain       time.Duration
	fleet       bool
	heartbeat   time.Duration
}

// serve runs the daemon on l until ctx is cancelled, then shuts it down
// in order — sessions cancelled, streams drained, store closed. It
// returns what stopped it early, or what closing the store reported.
func serve(ctx context.Context, l net.Listener, cfg serveConfig) error {
	store, disk, err := openStore(cfg.storeDir, cfg.faultPlan, "")
	if err != nil {
		l.Close()
		return err
	}

	eng := engine.NewWithStore(platform.NewPurley().Socket(0), cfg.workers, store)
	mgr := session.NewManager(eng)
	mgr.SetRetain(cfg.retain)
	var coord *fleet.Coordinator
	if cfg.fleet {
		coord = fleet.New(eng, fleet.Options{Heartbeat: cfg.heartbeat})
		mgr.SetExecutor(coord)
		fmt.Printf("nvmserve: coordinator mode (heartbeat %s)\n", cfg.heartbeat)
	}
	srv := &http.Server{Handler: (&server{
		mgr:         mgr,
		disk:        disk,
		adm:         newAdmission(mgr, cfg.maxLive),
		sessTimeout: cfg.sessTimeout,
		coord:       coord,
	}).handler()}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	fmt.Printf("nvmserve: listening on %s (%d workers)\n", l.Addr(), eng.Workers())

	select {
	case err = <-done: // Serve only returns on failure
	case <-ctx.Done():
		fmt.Println("nvmserve: stop requested, shutting down")
	}

	// Cancel sweeps first: outcome-stream handlers block in
	// StreamBatches waiting for points, so they can only drain — and
	// Shutdown can only return before its deadline — once their sessions
	// reach a terminal state. Cancellation stops the engine between jobs,
	// so only whole results ever reach the store, and every stream ends
	// on a complete NDJSON line (the cancelled session's error line).
	mgr.Close()
	if coord != nil {
		coord.Close()
	}
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if serr := srv.Shutdown(sctx); serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "nvmserve: shutdown:", serr)
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return err
}

// openStore opens the engine's result store: in memory without -store,
// else the disk store at dir, over a fault injector when faultPlan names
// a plan. It prints what it opened, each line prefixed "nvmserve: "
// plus role ("" for the daemon, "worker " for a worker).
func openStore(dir, faultPlan, role string) (resultstore.Store, *resultstore.Disk, error) {
	if dir == "" {
		return resultstore.NewMemory(), nil, nil
	}
	fs := faultline.FS(faultline.OS{})
	if faultPlan != "" {
		plan, err := faultline.LoadPlan(faultPlan)
		if err != nil {
			return nil, nil, err
		}
		fs = faultline.New(plan)
		fmt.Printf("nvmserve: %sinjecting faults from %s (seed %d, %d rules)\n",
			role, faultPlan, plan.Seed, len(plan.Rules))
	}
	d, err := resultstore.OpenFS(dir, fs)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("nvmserve: %sresult store %s (%d records)\n", role, d.Dir(), d.Persisted())
	return d, d, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvmserve:", err)
	os.Exit(1)
}
