// Command scand is the SCAN scheduler daemon: it serves the HTTP RPC
// interface (jobs, knowledge-base queries, status) and executes submitted
// analyses on a local worker pool — the Go equivalent of the paper's
// CherryPy prototype.
//
// Usage:
//
//	scand [-addr :7390] [-pool N] [-executors N] [-retain N]
//	      [-data-dir DIR] [-max-datasets N] [-max-dataset-mb N]
//	      [-tenants FILE]
//	      [-fleet-token T] [-fleet-scaling predictive] [-fleet-baseline N]
//	      [-quiet]
//	scand -role worker -join http://coordinator:7390 [-name NODE]
//	      [-pool N] [-fleet-token T] [-quiet]
//
// scand serves /api/v1 (the original flat RPC surface, kept
// wire-compatible) and /api/v2 (resource-oriented jobs with cancellation,
// paginated listing, SSE event streams, the dataset registry, resumable
// uploads, and the worker-fleet endpoints). -retain bounds how many
// finished jobs the store keeps before evicting the oldest; -max-datasets
// and -max-dataset-mb bound the dataset registry the same retention-style
// way; -quiet suppresses the per-request access log.
//
// -data-dir makes the data plane durable: uploaded datasets live in a
// content-addressed blob store under DIR and survive restarts, datasets
// over the -max-dataset-mb memory budget spill to disk instead of being
// rejected, and the knowledge base's accumulated run telemetry is
// WAL-logged and snapshotted under DIR/kb, replayed on the next start.
// Without it every byte is heap-resident and dies with the process.
//
// -tenants names a JSON file of API-key tenants (docs/SERVING.md); the
// SCAN_TENANTS environment variable carries the same JSON inline when no
// flag is given. With tenants configured, /api/v2 requires a tenant key
// and enforces per-tenant rate limits and quotas; without, v2 stays open
// exactly as before (and /api/v1 is never authenticated either way).
//
// -pool sizes the local shard pool.
//
// With -role worker the daemon runs no HTTP server of its own: it joins
// the coordinator named by -join, pulls shard work over /api/v2/fleet, and
// executes it through the same engine path the coordinator's local pool
// uses. -fleet-scaling and -fleet-baseline pick the coordinator's
// horizontal-scaling policy (see docs/FLEET.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"scan/internal/core"
	"scan/internal/fleet"
	"scan/internal/registry"
	"scan/internal/rpc"
	"scan/internal/scheduler"
	"scan/internal/tenant"
)

func main() {
	var (
		addr       = flag.String("addr", ":7390", "listen address (serve role)")
		pool       = flag.Int("pool", runtime.GOMAXPROCS(0), "local shard pool width (per job in serve role, per worker in worker role)")
		executors  = flag.Int("executors", 2, "concurrent jobs")
		retain     = flag.Int("retain", rpc.DefaultRetention, "finished jobs kept before eviction")
		dataDir    = flag.String("data-dir", "", "durable state directory (blob store, dataset manifest, knowledge WAL); empty keeps all state in memory")
		maxDS      = flag.Int("max-datasets", registry.DefaultMaxDatasets, "registered datasets kept before eviction")
		maxDSMB    = flag.Int64("max-dataset-mb", registry.DefaultMaxBytes>>20, "registered dataset bytes kept resident before eviction (MiB; with -data-dir the overflow spills to disk)")
		role       = flag.String("role", "serve", `"serve" (coordinator daemon) or "worker" (join a fleet)`)
		join       = flag.String("join", "", "coordinator base URL to join (worker role)")
		name       = flag.String("name", "", "worker name on the roster (worker role; default hostname)")
		tenantFile = flag.String("tenants", "", "JSON tenants file enabling v2 API-key admission (or inline JSON via SCAN_TENANTS)")
		fleetToken = flag.String("fleet-token", "", "shared token for the fleet control and blob endpoints")
		scaling    = flag.String("fleet-scaling", "always", `worker-hire policy: "always", "never" or "predictive"`)
		baseline   = flag.Int("fleet-baseline", 1, "workers engaged without economic justification (predictive scaling)")
		quiet      = flag.Bool("quiet", false, "suppress the per-request access log")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = nil
	}

	switch *role {
	case "worker":
		runWorker(*join, *name, *fleetToken, *pool, logf)
		return
	case "serve":
	default:
		log.Fatalf("scand: unknown -role %q (want serve or worker)", *role)
	}

	var policy scheduler.ScalingPolicy
	switch *scaling {
	case "always":
		policy = scheduler.AlwaysScale
	case "never":
		policy = scheduler.NeverScale
	case "predictive":
		policy = scheduler.PredictiveScale
	default:
		log.Fatalf("scand: unknown -fleet-scaling %q (want always, never or predictive)", *scaling)
	}

	tenants, err := loadTenants(*tenantFile)
	if err != nil {
		log.Fatalf("scand: %v", err)
	}

	platform, err := core.OpenPlatform(core.Options{
		Workers:  *pool,
		DataDir:  *dataDir,
		Registry: registry.Options{MaxDatasets: *maxDS, MaxBytes: *maxDSMB << 20},
		Logf:     log.Printf, // persistence warnings matter even under -quiet
	})
	if err != nil {
		log.Fatalf("scand: %v", err)
	}
	defer platform.Close()
	server := rpc.NewServerOptions(platform, rpc.ServerOptions{
		Executors: *executors,
		Retention: *retain,
		Tenants:   tenants,
		Logf:      logf,
		Fleet: fleet.NewCoordinator(fleet.Options{
			Token:      *fleetToken,
			Scaling:    policy,
			Allocation: scheduler.LongTermAdaptive,
			Baseline:   *baseline,
			Logf:       logf,
			Blobs:      platform.Datasets().Blobs(),
		}),
	})
	defer server.Close()

	httpServer := &http.Server{Addr: *addr, Handler: server.Handler()}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "scand: shutting down")
		_ = httpServer.Close()
	}()
	if *dataDir != "" {
		log.Printf("scand: durable state under %s", *dataDir)
	}
	if tenants != nil {
		log.Printf("scand: v2 admission enabled for %d tenants", len(tenants.Tenants()))
	}
	log.Printf("scand: listening on %s (%d pool, %d executors, %s scaling)", *addr, *pool, *executors, policy)
	if err := httpServer.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatalf("scand: %v", err)
	}
}

// loadTenants resolves the tenant configuration: the -tenants file when
// given, otherwise inline JSON from SCAN_TENANTS, otherwise nil (tenancy
// off — the open-daemon default).
func loadTenants(path string) (*tenant.Registry, error) {
	if path != "" {
		return tenant.Load(path)
	}
	if raw := os.Getenv("SCAN_TENANTS"); raw != "" {
		return tenant.Parse([]byte(raw))
	}
	return nil, nil
}

// runWorker joins a coordinator's fleet and pulls shard work until
// interrupted.
func runWorker(join, name, token string, slots int, logf func(string, ...any)) {
	if join == "" {
		log.Fatal("scand: -role worker needs -join <coordinator URL>")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "scand: worker shutting down")
		cancel()
		// A second interrupt (or a hung drain) exits hard.
		select {
		case <-sig:
		case <-time.After(30 * time.Second):
		}
		os.Exit(1)
	}()
	log.Printf("scand: worker joining %s (%d slots)", join, slots)
	if err := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator: join,
		Token:       token,
		Name:        name,
		Slots:       slots,
		Logf:        logf,
	}).Run(ctx); err != nil && err != context.Canceled {
		log.Fatalf("scand: worker: %v", err)
	}
}
