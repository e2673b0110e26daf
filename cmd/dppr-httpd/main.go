// Command dppr-httpd serves the dynppr HTTP/JSON API over a concurrent
// Service: it builds the initial graph (named dataset, synthetic override,
// or an edge-list file), cold-starts the tracked sources, and then serves
// top-k/estimate queries, batched reads, edge-update batches and live source
// management until interrupted, shutting down gracefully.
//
// With -data-dir the daemon is durable: every mutation is journaled to a
// write-ahead log, -checkpoint-every (and POST /checkpoint) snapshot the
// whole state, and a restart pointed at the same directory recovers exactly
// where the previous process stopped — the dataset flags only seed the very
// first boot.
//
// Usage:
//
//	dppr-httpd -addr :8080 -dataset youtube -sources 8
//	dppr-httpd -addr 127.0.0.1:9090 -vertices 5000 -edges 100000 -epsilon 1e-5
//	dppr-httpd -input edges.txt -sources 4
//	dppr-httpd -data-dir /var/lib/dppr -fsync always -checkpoint-every 5m
//	dppr-httpd -ondemand -ondemand-eps 1e-4 -promote-after 16 -max-auto-sources 32
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dynppr"
	"dynppr/internal/gen"
	"dynppr/internal/httpapi"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dppr-httpd:", err)
		os.Exit(1)
	}
}

// config is the daemon's command line.
type config struct {
	addr, dataset, input, dataDir, fsync string
	vertices, edges, sources, pool       int
	epsilon                              float64
	seed                                 int64
	drain, ckptEvery                     time.Duration

	queue     int
	rateLimit float64
	pprof     bool

	onDemand     bool
	odEps        float64
	promoteAfter int
	maxAuto      int
}

// newFlagSet binds every dppr-httpd flag to a field of c.
func newFlagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("dppr-httpd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free one)")
	fs.StringVar(&c.dataset, "dataset", "youtube", "named dataset from the catalog")
	fs.IntVar(&c.vertices, "vertices", 0, "override: generate an RMAT graph with this many vertices")
	fs.IntVar(&c.edges, "edges", 0, "override: number of edges for the generated graph")
	fs.StringVar(&c.input, "input", "", "override: load the initial graph from this edge-list file")
	fs.IntVar(&c.sources, "sources", 4, "number of top-degree sources to serve")
	fs.Float64Var(&c.epsilon, "epsilon", 1e-6, "error threshold")
	fs.IntVar(&c.pool, "pool", 0, "sources pushed at once (0 = GOMAXPROCS)")
	fs.Int64Var(&c.seed, "seed", 1, "random seed for generated graphs")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
	fs.StringVar(&c.dataDir, "data-dir", "", "data directory for the WAL and checkpoints (empty = in-memory only)")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL fsync policy: always (durable) or none (OS-buffered)")
	fs.DurationVar(&c.ckptEvery, "checkpoint-every", 0, "periodic checkpoint interval (0 = only on demand and at shutdown)")

	fs.IntVar(&c.queue, "queue", 0, "write pipeline queue depth; a write waits up to 5s for a slot, then sheds with 429 (0 = default 64)")
	fs.Float64Var(&c.rateLimit, "rate-limit", 0, "per-client request rate limit in req/s across data-plane endpoints, bursts of 16 (0 = unlimited)")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (expose only on trusted networks)")

	fs.BoolVar(&c.onDemand, "ondemand", false, "answer reads for untracked sources with bounded approximate PPR instead of 404")
	fs.Float64Var(&c.odEps, "ondemand-eps", 1e-4, "push residual threshold for on-demand queries (coarser than -epsilon)")
	fs.IntVar(&c.promoteAfter, "promote-after", 0, "promote an untracked source to live tracking after this many queries (0 = never)")
	fs.IntVar(&c.maxAuto, "max-auto-sources", 64, "cap on auto-promoted sources; the coldest is evicted at capacity")
	return fs
}

func run(ctx context.Context, args []string, out io.Writer) error {
	var c config
	if err := newFlagSet(&c).Parse(args); err != nil {
		return err
	}

	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = c.epsilon
	so.PoolWorkers = c.pool
	so.QueueDepth = c.queue
	so.OnDemand = dynppr.OnDemandOptions{
		Enabled:        c.onDemand,
		Epsilon:        c.odEps,
		PromoteAfter:   c.promoteAfter,
		MaxAutoSources: c.maxAuto,
	}
	po := dynppr.PersistOptions{Dir: c.dataDir}
	var err error
	if po.Sync, err = dynppr.ParseSyncPolicy(c.fsync); err != nil {
		return err
	}

	start := time.Now()
	var svc *dynppr.Service
	if c.dataDir != "" && dynppr.CheckpointExists(c.dataDir) {
		// A previous process left durable state behind: resume it. The
		// dataset/input flags only describe the first boot and are ignored.
		svc, err = dynppr.NewServiceFromRecovery(so, po)
		if err != nil {
			return err
		}
		stats := svc.Stats()
		fmt.Fprintf(out, "recovered %s: %d vertices, %d edges, %d sources (lsn %d) in %v\n",
			c.dataDir, stats.Vertices, stats.Edges, len(stats.Sources),
			stats.Persistence.LastCheckpointLSN, time.Since(start).Round(time.Microsecond))
		if restored := svc.Options().Options.Epsilon; restored != c.epsilon {
			fmt.Fprintf(out, "note: alpha/epsilon restored from checkpoint (epsilon=%.0e; -epsilon %.0e ignored)\n",
				restored, c.epsilon)
		}
	} else {
		edgeList, name, err := loadEdges(c.input, c.dataset, c.vertices, c.edges, c.seed)
		if err != nil {
			return err
		}
		if len(edgeList) == 0 {
			return fmt.Errorf("initial graph %q has no edges", name)
		}
		g := dynppr.GraphFromEdges(edgeList)
		tracked := g.TopDegreeVertices(max(c.sources, 1))
		fmt.Fprintf(out, "graph=%s vertices=%d edges=%d sources=%v epsilon=%.0e\n",
			name, g.NumVertices(), g.NumEdges(), tracked, so.Options.Epsilon)
		if c.dataDir != "" {
			svc, err = dynppr.NewPersistentService(g, tracked, so, po)
		} else {
			svc, err = dynppr.NewService(g, tracked, so)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "cold start: %d sources converged in %v\n",
			len(tracked), time.Since(start).Round(time.Microsecond))
	}
	defer svc.Close()
	if c.dataDir != "" {
		fmt.Fprintf(out, "durable: data-dir=%s fsync=%s checkpoint-every=%v\n", c.dataDir, po.Sync, c.ckptEvery)
	}

	srv := httpapi.NewServer(svc, httpapi.ServerOptions{
		Addr:    c.addr,
		Handler: httpapi.HandlerOptions{RateLimit: c.rateLimit, EnablePprof: c.pprof},
	})
	if err := srv.Start(); err != nil {
		return err
	}
	st := svc.Stats()
	fmt.Fprintf(out, "admission: queue=%d rate-limit=%g pprof=%t\n", st.QueueCap, c.rateLimit, c.pprof)
	if od := st.OnDemand; od != nil {
		fmt.Fprintf(out, "ondemand: eps=%.0e promote-after=%d max-auto-sources=%d workers=%d cache=%d\n",
			c.odEps, c.promoteAfter, c.maxAuto, od.PoolWorkers, od.CacheCapacity)
	}
	fmt.Fprintf(out, "listening on %s\n", srv.URL())

	// Periodic checkpointing bounds how much WAL a crash would replay.
	// Started only once the server is up, so an early return cannot leak
	// the ticker goroutine against a closed service.
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	if c.dataDir != "" && c.ckptEvery > 0 {
		ticker := time.NewTicker(c.ckptEvery)
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			defer ticker.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-ticker.C:
					if lsn, err := svc.Checkpoint(); err != nil {
						fmt.Fprintf(out, "checkpoint failed: %v\n", err)
					} else {
						fmt.Fprintf(out, "checkpoint: lsn %d\n", lsn)
					}
				}
			}
		}()
	}

	<-ctx.Done()
	fmt.Fprintln(out, "shutting down: draining in-flight requests")
	close(stopCkpt)
	ckptWG.Wait()
	drainCtx, cancel := context.WithTimeout(context.Background(), c.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.Wait(); err != nil {
		return err
	}
	// A final checkpoint makes the next boot replay-free.
	if c.dataDir != "" {
		if lsn, err := svc.Checkpoint(); err != nil {
			fmt.Fprintf(out, "final checkpoint failed: %v\n", err)
		} else {
			fmt.Fprintf(out, "final checkpoint: lsn %d\n", lsn)
		}
	}
	stats := svc.Stats()
	fmt.Fprintf(out, "served %d batches (%d updates applied); final graph %d vertices / %d edges\n",
		stats.Batches, stats.UpdatesApplied, stats.Vertices, stats.Edges)
	return nil
}

// loadEdges resolves the initial edge list: an explicit file wins, then a
// synthetic override, then the named catalog dataset.
func loadEdges(input, dataset string, vertices, edges int, seed int64) ([]dynppr.Edge, string, error) {
	if input != "" {
		list, err := dynppr.LoadEdges(input)
		return list, input, err
	}
	cfg := gen.Config{}
	if vertices > 0 && edges > 0 {
		cfg = gen.Config{Name: "custom-rmat", Model: dynppr.ModelRMAT, Vertices: vertices, Edges: edges, Seed: seed}
	} else {
		d, err := gen.DatasetByName(dataset)
		if err != nil {
			return nil, "", err
		}
		cfg = d.Config
	}
	list, err := dynppr.GenerateEdges(cfg)
	return list, cfg.Name, err
}
