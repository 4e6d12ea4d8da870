package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/traffic"
)

// workerConfig carries the -worker mode flags.
type workerConfig struct {
	join      string
	name      string
	storeDir  string
	faultPlan string
	workers   int
	delay     time.Duration
}

// runWorker is the -worker -join entrypoint: no HTTP listener, just a
// fleet.Worker pulling chunks from the coordinator until a signal
// stops ctx, the coordinator refuses its join, or the local store
// degrades. The last two exit non-zero: a refusal (409 from another
// protocol version, 404 from a daemon without -fleet) will not change
// on retry, and a worker that can no longer persist results should be
// noticed, not restarted blindly into the same failing disk.
func runWorker(ctx context.Context, cfg workerConfig) {
	store, disk, err := openStore(cfg.storeDir, cfg.faultPlan, "worker ")
	if err != nil {
		fatal(err)
	}

	name := cfg.name
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	eng := engine.NewWithStore(platform.NewPurley().Socket(0), cfg.workers, store)
	w := &fleet.Worker{
		Base:      cfg.join,
		Client:    traffic.SharedClient(),
		Eng:       eng,
		Name:      name,
		Disk:      disk,
		EvalDelay: cfg.delay,
	}

	fmt.Printf("nvmserve: worker %q joining %s (%d engine workers)\n", name, cfg.join, eng.Workers())
	err = w.Run(ctx)
	if cerr := store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("nvmserve: worker stopped")
}
