// Command dppr-loadgen is a load generator for dppr-httpd with two modes.
//
// Closed loop (default): a pool of client goroutines issues a configurable
// mix of top-k, estimate, batched-read and edge-write requests back-to-back
// and reports per-class throughput and latency percentiles. Because every
// client waits for its response before sending the next request, offered
// load self-throttles to the server's capacity — the right shape for
// measuring peak sustainable throughput.
//
// Open loop (-arrival > 0): requests are dispatched at a fixed arrival rate
// regardless of how fast responses come back, the shape of real overload —
// users do not slow down because the server is slow. Under saturation a
// correct server must shed with 429 + Retry-After instead of letting
// latency grow without bound; the run records the 429 rate alongside the
// latency percentiles of the successful requests, and the -max-p99 and
// -expect-shed gates turn the run into an overload SLO check for CI.
//
// In both modes latencies go into one metrics.Histogram per request class
// and client — the fixed-bucket instrument dppr-httpd exports at /metrics —
// and the report merges them exactly, so every percentile it prints, and
// the -max-p99 gate over all read classes, covers every request of the run.
// Percentiles are bucket estimates: each lies inside the bucket of the true
// value; counts, means and maxima are exact.
//
// Every read response is checked against the serving contract: the snapshot
// it was served from must be converged and (in closed-loop mode, where each
// client's requests are sequential) its epoch must never decrease for the
// same source. Any unexpected non-2xx response or contract violation makes
// the run fail, so the tool doubles as an end-to-end correctness check
// under load.
//
// Long tail (-zipf > 1): read-query sources are drawn Zipf-distributed over
// the whole vertex set instead of round-robin over the tracked sources — the
// workload shape on-demand serving exists for. A few hot sources dominate
// (and should get promoted to tracked state when the server runs
// -promote-after) while a long tail of cold sources exercises the
// approximate path. Approximate answers must advertise a positive error
// bound; a 404 is a failure, so the run doubles as an SLO check that an
// on-demand server never turns an untracked read into an error. Epoch
// monotonicity is not checked in this mode: promotion and eviction
// legitimately move a source between the tracked path (live epochs) and the
// on-demand path (synthesized epoch 0).
//
// Usage:
//
//	dppr-loadgen -addr http://127.0.0.1:8080 -clients 64 -duration 30s
//	dppr-loadgen -addr http://127.0.0.1:8080 -clients 128 -requests 500 -write 0
//	dppr-loadgen -addr http://127.0.0.1:8080 -arrival 500 -duration 10s -max-p99 250ms -expect-shed
//	dppr-loadgen -addr http://127.0.0.1:8080 -zipf 1.3 -clients 32 -requests 200 -write 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"dynppr"
	"dynppr/internal/httpapi"
	"dynppr/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dppr-loadgen:", err)
		os.Exit(1)
	}
}

// opClass is one request class of the mix.
type opClass int

const (
	opTopK opClass = iota
	opEstimate
	opBatchRead
	opWrite
	numClasses
)

func (c opClass) String() string {
	return [...]string{"topk", "estimate", "batchread", "write"}[c]
}

// maxInFlight bounds the open-loop dispatcher's concurrent requests. An
// arrival that would exceed it is dropped at the client and counted — the
// load generator itself must not die of the overload it manufactures.
const maxInFlight = 8192

// clientResult accumulates one client goroutine's measurements; results are
// merged after the pool drains so the hot loop never shares state. (The
// open-loop collector reuses the type under a mutex.)
type clientResult struct {
	lat        [numClasses]metrics.Histogram
	shed       [numClasses]int64
	approx     int64
	exact      int64
	cached     int64
	errors     []error
	violations []string
	// Degraded-window accounting: how many 503-degraded rejections were
	// retried and how long the retries backed off in total, so a run that
	// crossed a server fault window reports the episode instead of hiding
	// it in the latency tail (retry backoff is excluded from latencies).
	degradedRetries int64
	degradedWait    time.Duration
}

type config struct {
	clients       int
	requests      int
	duration      time.Duration
	weights       [numClasses]int
	k             int
	batch         int
	reads         int
	seed          int64
	arrival       float64
	maxP99        time.Duration
	expectShed    bool
	zipf          float64
	repeat        int
	retryDegraded bool
}

// parseFlags resolves the command line into the load configuration and the
// target base URL.
func parseFlags(args []string) (config, string, error) {
	fs := flag.NewFlagSet("dppr-loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "base URL of the dppr-httpd server")
		clients  = fs.Int("clients", 64, "concurrent closed-loop client goroutines")
		requests = fs.Int("requests", 0, "requests per client, or total arrivals in open-loop mode (0 = run for -duration)")
		duration = fs.Duration("duration", 10*time.Second, "run length when -requests is 0")
		topk     = fs.Int("topk", 60, "mix weight of single top-k reads")
		estimate = fs.Int("estimate", 25, "mix weight of single estimate reads")
		batchr   = fs.Int("batchread", 5, "mix weight of batched /query reads")
		write    = fs.Int("write", 10, "mix weight of /edges update batches")
		k        = fs.Int("k", 10, "ranking length of top-k queries")
		batch    = fs.Int("batch", 100, "updates per write batch")
		reads    = fs.Int("reads", 8, "queries per batched read")
		seed     = fs.Int64("seed", 1, "random seed")

		arrival    = fs.Float64("arrival", 0, "open-loop mode: fixed request arrival rate in req/s (0 = closed loop)")
		maxP99     = fs.Duration("max-p99", 0, "fail when the read p99 of successful requests exceeds this (0 = no gate)")
		expectShed = fs.Bool("expect-shed", false, "tolerate 429 responses as shed load and fail unless at least one occurred")
		zipf       = fs.Float64("zipf", 0, "long-tail mode: draw read sources Zipf(s)-distributed over all vertices (0 = tracked sources only; requires s > 1)")
		repeat     = fs.Int("repeat", 0, "closed-loop: re-issue each single top-k/estimate read this many extra times back-to-back — with -zipf this exercises the server's on-demand result cache")
		retryDeg   = fs.Bool("retry-degraded", false, "retry requests shed 503 by a degraded server after its Retry-After (capped), so SLO gates can run through a fault window")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, "", err
	}
	cfg := config{
		clients:       *clients,
		requests:      *requests,
		duration:      *duration,
		weights:       [numClasses]int{opTopK: *topk, opEstimate: *estimate, opBatchRead: *batchr, opWrite: *write},
		k:             *k,
		batch:         *batch,
		reads:         *reads,
		seed:          *seed,
		arrival:       *arrival,
		maxP99:        *maxP99,
		expectShed:    *expectShed,
		zipf:          *zipf,
		repeat:        *repeat,
		retryDegraded: *retryDeg,
	}
	if cfg.clients < 1 {
		return config{}, "", fmt.Errorf("-clients must be at least 1")
	}
	if cfg.batch < 1 || cfg.reads < 1 {
		return config{}, "", fmt.Errorf("-batch and -reads must be at least 1")
	}
	if cfg.arrival < 0 {
		return config{}, "", fmt.Errorf("-arrival must be non-negative")
	}
	if cfg.zipf != 0 && cfg.zipf <= 1 {
		return config{}, "", fmt.Errorf("-zipf exponent must be > 1 (got %g)", cfg.zipf)
	}
	if cfg.repeat < 0 {
		return config{}, "", fmt.Errorf("-repeat must be non-negative")
	}
	total := 0
	for _, w := range cfg.weights {
		if w < 0 {
			return config{}, "", fmt.Errorf("mix weights must be non-negative")
		}
		total += w
	}
	if total == 0 {
		return config{}, "", fmt.Errorf("at least one mix weight must be positive")
	}
	return cfg, *addr, nil
}

// tolerateShed reports whether 429 responses count as shed load rather than
// failures: always in open-loop mode (overload is the point) and whenever
// -expect-shed asks for it.
func (cfg config) tolerateShed() bool { return cfg.expectShed || cfg.arrival > 0 }

func run(args []string, out io.Writer) error {
	cfg, addr, err := parseFlags(args)
	if err != nil {
		return err
	}

	// One shared transport: connection reuse across clients is the realistic
	// many-users-one-frontend shape, and it keeps ephemeral ports bounded.
	hc := &http.Client{Timeout: 60 * time.Second}
	probe := httpapi.NewClient(addr, hc)
	if err := probe.Health(); err != nil {
		return fmt.Errorf("server not healthy at %s: %w", addr, err)
	}
	sources, err := probe.Sources()
	if err != nil {
		return err
	}
	if len(sources) == 0 {
		return fmt.Errorf("server tracks no sources")
	}
	stats, err := probe.Stats()
	if err != nil {
		return err
	}
	vertices := stats.Service.Vertices
	if vertices < 2 {
		return fmt.Errorf("server graph has %d vertices", vertices)
	}

	if cfg.arrival > 0 {
		fmt.Fprintf(out, "target=%s open-loop arrival=%g req/s sources=%d vertices=%d mix topk:estimate:batchread:write = %d:%d:%d:%d\n",
			addr, cfg.arrival, len(sources), vertices,
			cfg.weights[opTopK], cfg.weights[opEstimate], cfg.weights[opBatchRead], cfg.weights[opWrite])
		results, drops, elapsed := runOpenLoop(cfg, addr, hc, sources, vertices)
		runErr := report(out, cfg, []*clientResult{results}, drops, elapsed)
		printServerOnDemand(out, probe)
		return runErr
	}

	fmt.Fprintf(out, "target=%s clients=%d sources=%d vertices=%d mix topk:estimate:batchread:write = %d:%d:%d:%d\n",
		addr, cfg.clients, len(sources), vertices,
		cfg.weights[opTopK], cfg.weights[opEstimate], cfg.weights[opBatchRead], cfg.weights[opWrite])
	if cfg.zipf > 0 {
		fmt.Fprintf(out, "long tail: read sources ~ Zipf(%g) over all %d vertices\n", cfg.zipf, vertices)
	}

	deadline := time.Time{}
	if cfg.requests <= 0 {
		deadline = time.Now().Add(cfg.duration)
	}
	results := make([]*clientResult, cfg.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		res := &clientResult{}
		results[c] = res
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runClient(id, cfg, addr, hc, sources, vertices, deadline, res)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	runErr := report(out, cfg, results, 0, elapsed)
	printServerOnDemand(out, probe)
	return runErr
}

// printServerOnDemand reports the server's on-demand concurrency counters at
// the end of a run, so cache and coalescing effectiveness are visible without
// scraping /metrics. Silent when the server has no on-demand tier (or has
// already gone away).
func printServerOnDemand(out io.Writer, probe *httpapi.Client) {
	st, err := probe.Stats()
	if err != nil || st.Service.OnDemand == nil {
		return
	}
	od := st.Service.OnDemand
	hitRate := 0.0
	if lookups := od.CacheHits + od.CacheMisses; lookups > 0 {
		hitRate = 100 * float64(od.CacheHits) / float64(lookups)
	}
	fmt.Fprintf(out, "server ondemand: cold_pushes=%d coalesced=%d cache_hits=%d cache_misses=%d (%.1f%% hit rate)\n",
		od.ColdPushes, od.Coalesced, od.CacheHits, od.CacheMisses, hitRate)
}

// op is one pre-generated request: all randomness is drawn on the
// dispatching goroutine so the executing goroutine never touches the rng.
type op struct {
	class   opClass
	source  dynppr.VertexID
	vertex  dynppr.VertexID
	queries []httpapi.Query
	updates []httpapi.Update
}

func pickClass(rng *rand.Rand, weights [numClasses]int) opClass {
	total := 0
	for _, w := range weights {
		total += w
	}
	pick := rng.Intn(total)
	class := opClass(0)
	for acc := 0; class < numClasses; class++ {
		acc += weights[class]
		if pick < acc {
			break
		}
	}
	return class
}

// newZipf builds the long-tail source distribution for one rng, or nil when
// -zipf is off. Low vertex IDs are the hot head of the tail; with the server
// promoting after -promote-after queries they are the ones that should end
// up tracked.
func newZipf(rng *rand.Rand, cfg config, vertices int) *rand.Zipf {
	if cfg.zipf == 0 {
		return nil
	}
	return rand.NewZipf(rng, cfg.zipf, 1, uint64(vertices-1))
}

// pickSource draws a read-query source: Zipf over the whole vertex set in
// long-tail mode, uniform over the tracked sources otherwise.
func pickSource(rng *rand.Rand, z *rand.Zipf, sources []dynppr.VertexID) dynppr.VertexID {
	if z != nil {
		return dynppr.VertexID(z.Uint64())
	}
	return sources[rng.Intn(len(sources))]
}

// genOp draws one request of the configured mix.
func genOp(rng *rand.Rand, z *rand.Zipf, cfg config, sources []dynppr.VertexID, vertices int) op {
	o := op{class: pickClass(rng, cfg.weights), source: pickSource(rng, z, sources)}
	switch o.class {
	case opEstimate:
		o.vertex = dynppr.VertexID(rng.Intn(vertices))
	case opBatchRead:
		o.queries = make([]httpapi.Query, cfg.reads)
		for q := range o.queries {
			s := pickSource(rng, z, sources)
			if q%2 == 0 {
				o.queries[q] = httpapi.Query{Kind: httpapi.KindTopK, Source: s, K: cfg.k}
			} else {
				o.queries[q] = httpapi.Query{
					Kind: httpapi.KindEstimate, Source: s,
					Vertex: dynppr.VertexID(rng.Intn(vertices)),
				}
			}
		}
	case opWrite:
		o.updates = make([]httpapi.Update, cfg.batch)
		for u := range o.updates {
			opName := httpapi.OpInsert
			if rng.Intn(3) == 0 {
				opName = httpapi.OpDelete
			}
			o.updates[u] = httpapi.Update{
				U:  dynppr.VertexID(rng.Intn(vertices)),
				V:  dynppr.VertexID(rng.Intn(vertices)),
				Op: opName,
			}
		}
	}
	return o
}

// readOutcome is everything one request contributes to the report: the
// snapshot metadata of each read it served, how many answers came from the
// exact versus the on-demand approximate path, inline violations (batched
// per-query errors, approximate answers without an error bound), the latency
// of its final attempt and the degraded-retry backoff before it.
type readOutcome struct {
	metas   []httpapi.SnapshotMeta
	approx  int64
	exact   int64
	cached  int64
	inline  []string
	lat     time.Duration
	retries int64
	waited  time.Duration
}

// observe validates one read answer's approx/epsilon contract and files its
// snapshot metadata.
func (ro *readOutcome) observe(meta httpapi.SnapshotMeta, approx bool, epsilon float64, cached bool) {
	ro.metas = append(ro.metas, meta)
	if cached {
		ro.cached++
	}
	if !approx {
		ro.exact++
		return
	}
	ro.approx++
	// epsilon 0 is a truthful bound (the push drained fully, e.g. a source
	// no other vertex can reach), but a negative or >= 1 bound is vacuous:
	// every PPR value lies in [0, 1].
	if epsilon < 0 || epsilon >= 1 {
		ro.inline = append(ro.inline,
			fmt.Sprintf("source %d: approximate answer with an unusable error bound (epsilon %g)",
				meta.Source, epsilon))
	}
}

// execOp performs one request and returns what its responses contribute to
// the serving-contract checks.
func execOp(client *httpapi.Client, cfg config, o op) (ro readOutcome, err error) {
	switch o.class {
	case opTopK:
		var top httpapi.TopKResult
		if top, err = client.TopK(o.source, cfg.k); err == nil {
			ro.observe(top.Snapshot, top.Approx, top.Epsilon, top.Cached)
		}
	case opEstimate:
		var est httpapi.EstimateResult
		if est, err = client.Estimate(o.source, o.vertex); err == nil {
			ro.observe(est.Snapshot, est.Approx, est.Epsilon, est.Cached)
		}
	case opBatchRead:
		var batch []httpapi.QueryResult
		if batch, err = client.Query(o.queries); err == nil {
			for _, r := range batch {
				switch {
				case r.TopK != nil:
					ro.observe(r.TopK.Snapshot, r.TopK.Approx, r.TopK.Epsilon, r.TopK.Cached)
				case r.Estimate != nil:
					ro.observe(r.Estimate.Snapshot, r.Estimate.Approx, r.Estimate.Epsilon, r.Estimate.Cached)
				default:
					ro.inline = append(ro.inline, fmt.Sprintf("batched query failed inline: %s", r.Error))
				}
			}
		}
	case opWrite:
		_, err = client.ApplyEdges(o.updates)
	}
	return ro, err
}

// Degraded-retry policy: a 503 carrying Retry-After means the server's
// persistence is degraded, the write had no effect, and its recovery probe
// is running. The wait is capped so a pessimistic server cannot stall the
// run, and the attempt count is capped so a server that never heals fails
// the run instead of hanging it.
const (
	maxDegradedWait    = 2 * time.Second
	maxDegradedRetries = 120
)

// execOpRetry is execOp plus the -retry-degraded loop. The outcome's latency
// covers only the final attempt — retry backoff is accounted separately
// (retries, waited) so a server fault window shows up as degraded-window
// accounting in the report instead of polluting the -max-p99 gate.
func execOpRetry(client *httpapi.Client, cfg config, o op) (readOutcome, error) {
	var retries int64
	var waited time.Duration
	for {
		start := time.Now()
		ro, err := execOp(client, cfg, o)
		ro.lat, ro.retries, ro.waited = time.Since(start), retries, waited
		if err == nil || !cfg.retryDegraded || !httpapi.IsDegraded(err) || retries >= maxDegradedRetries {
			return ro, err
		}
		wait := time.Second
		var ae *httpapi.APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			wait = ae.RetryAfter
		}
		if wait > maxDegradedWait {
			wait = maxDegradedWait
		}
		time.Sleep(wait)
		retries++
		waited += wait
	}
}

// record files one request's outcome, in either loop. A 429 the run
// tolerates counts as shed and any other error fails the run; a served
// request contributes its latency, its answer kinds and the stateless half
// of the serving contract — every snapshot it read converged. who prefixes
// the error. record reports whether the request was served.
func (res *clientResult) record(cfg config, who string, o op, ro readOutcome, err error) bool {
	res.degradedRetries += ro.retries
	res.degradedWait += ro.waited
	if err != nil {
		if cfg.tolerateShed() && httpapi.IsOverloaded(err) {
			res.shed[o.class]++
		} else {
			res.errors = append(res.errors, fmt.Errorf("%s%s: %w", who, o.class, err))
		}
		return false
	}
	res.lat[o.class].Observe(ro.lat)
	res.approx += ro.approx
	res.exact += ro.exact
	res.cached += ro.cached
	res.violations = append(res.violations, ro.inline...)
	for _, m := range ro.metas {
		if !m.Converged {
			res.violations = append(res.violations,
				fmt.Sprintf("source %d epoch %d: snapshot not converged (residual %g > ε %g)",
					m.Source, m.Epoch, m.MaxResidual, m.Epsilon))
		}
	}
	return true
}

// runClient is one closed-loop client: it issues requests back-to-back until
// its request budget or the deadline is exhausted.
func runClient(id int, cfg config, addr string, hc *http.Client,
	sources []dynppr.VertexID, vertices int, deadline time.Time, res *clientResult) {
	client := httpapi.NewClient(addr, hc)
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)))
	z := newZipf(rng, cfg, vertices)
	epochs := make(map[dynppr.VertexID]uint64, len(sources))
	who := fmt.Sprintf("client %d ", id)

	for i := 0; cfg.requests <= 0 || i < cfg.requests; i++ {
		if cfg.requests <= 0 && !time.Now().Before(deadline) {
			return
		}
		o := genOp(rng, z, cfg, sources, vertices)
		// -repeat re-issues single reads back-to-back: against an on-demand
		// server the repeats should be result-cache hits (until a mutation
		// moves the graph's Version under them).
		tries := 1
		if cfg.repeat > 0 && (o.class == opTopK || o.class == opEstimate) {
			tries += cfg.repeat
		}
		for try := 0; try < tries; try++ {
			ro, err := execOpRetry(client, cfg, o)
			if !res.record(cfg, who, o, ro, err) {
				break
			}
			// One client's requests are sequential, so the epoch it observes
			// per source must be monotone. Not in long-tail mode: promotion
			// and eviction legitimately move a source between live epochs and
			// the on-demand path's synthesized epoch 0.
			if cfg.zipf != 0 {
				continue
			}
			for _, m := range ro.metas {
				if last, ok := epochs[m.Source]; ok && m.Epoch < last {
					res.violations = append(res.violations,
						fmt.Sprintf("source %d: epoch went backwards %d -> %d", m.Source, last, m.Epoch))
				}
				epochs[m.Source] = m.Epoch
			}
		}
	}
}

// runOpenLoop dispatches requests at the fixed arrival rate regardless of
// response latency. The dispatcher generates each op single-threaded, then
// hands it to a goroutine bounded by maxInFlight; arrivals beyond the bound
// are dropped at the client and counted. Epoch monotonicity is not checked
// here — concurrent responses have no per-client ordering — but convergence
// is.
func runOpenLoop(cfg config, addr string, hc *http.Client,
	sources []dynppr.VertexID, vertices int) (*clientResult, int64, time.Duration) {
	client := httpapi.NewClient(addr, hc)
	rng := rand.New(rand.NewSource(cfg.seed))
	z := newZipf(rng, cfg, vertices)
	res := &clientResult{}
	var mu sync.Mutex
	var drops int64

	interval := time.Duration(float64(time.Second) / cfg.arrival)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for issued := 0; ; issued++ {
		if cfg.requests > 0 {
			if issued >= cfg.requests {
				break
			}
		} else if time.Since(start) >= cfg.duration {
			break
		}
		// Pace against the schedule, not the previous send, so slow sends do
		// not silently lower the offered rate.
		if d := time.Until(start.Add(time.Duration(issued) * interval)); d > 0 {
			time.Sleep(d)
		}
		o := genOp(rng, z, cfg, sources, vertices)
		select {
		case sem <- struct{}{}:
		default:
			drops++
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ro, err := execOpRetry(client, cfg, o)
			mu.Lock()
			defer mu.Unlock()
			res.record(cfg, "", o, ro, err)
		}()
	}
	wg.Wait()
	return res, drops, time.Since(start)
}

func report(out io.Writer, cfg config, results []*clientResult, drops int64, elapsed time.Duration) error {
	var merged [numClasses]metrics.Histogram
	var shed [numClasses]int64
	var approx, exact, cached int64
	var errs []error
	var violations []string
	var degradedRetries int64
	var degradedWait time.Duration
	for _, res := range results {
		for c := opClass(0); c < numClasses; c++ {
			merged[c].Merge(&res.lat[c])
			shed[c] += res.shed[c]
		}
		approx += res.approx
		exact += res.exact
		cached += res.cached
		errs = append(errs, res.errors...)
		violations = append(violations, res.violations...)
		degradedRetries += res.degradedRetries
		degradedWait += res.degradedWait
	}

	var total, totalShed int64
	for c := opClass(0); c < numClasses; c++ {
		total += merged[c].Count()
		totalShed += shed[c]
	}
	fmt.Fprintf(out, "completed %d requests in %v (%.0f req/sec overall)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Fprintf(out, "%-10s %10s %10s %12s %12s %12s %12s %12s\n",
		"class", "requests", "shed", "mean", "p50", "p95", "p99", "max")
	for c := opClass(0); c < numClasses; c++ {
		l := &merged[c]
		if l.Count() == 0 && shed[c] == 0 {
			continue
		}
		fmt.Fprintf(out, "%-10s %10d %10d %12v %12v %12v %12v %12v\n",
			c, l.Count(), shed[c],
			l.Mean().Round(time.Microsecond),
			l.Quantile(0.50).Round(time.Microsecond),
			l.Quantile(0.95).Round(time.Microsecond),
			l.Quantile(0.99).Round(time.Microsecond),
			l.Max().Round(time.Microsecond))
	}
	issued := total + totalShed + drops
	if issued > 0 {
		fmt.Fprintf(out, "shed (429) responses: %d (%.1f%% of %d issued)\n",
			totalShed, 100*float64(totalShed)/float64(issued), issued)
	}
	if drops > 0 {
		fmt.Fprintf(out, "dropped at client (in-flight cap %d): %d\n", maxInFlight, drops)
	}
	if cfg.retryDegraded || degradedRetries > 0 {
		fmt.Fprintf(out, "degraded (503) retries: %d (total backoff %v across all clients)\n",
			degradedRetries, degradedWait.Round(time.Millisecond))
	}
	if cfg.zipf > 0 || approx > 0 {
		fmt.Fprintf(out, "read answers: %d exact, %d approximate (on-demand), %d served from the result cache\n",
			exact, approx, cached)
	}
	fmt.Fprintf(out, "non-2xx or transport errors: %d\n", len(errs))
	fmt.Fprintf(out, "snapshot contract violations: %d\n", len(violations))

	// Read p99 over every read class — topk, estimate and batchread — the
	// user-facing latency SLO -max-p99 gates.
	var readLat metrics.Histogram
	for _, c := range []opClass{opTopK, opEstimate, opBatchRead} {
		readLat.Merge(&merged[c])
	}
	readP99 := readLat.Quantile(0.99)
	if readLat.Count() > 0 {
		fmt.Fprintf(out, "read p99: %v\n", readP99.Round(time.Microsecond))
	}

	if len(errs) > 0 {
		return fmt.Errorf("%d request(s) failed, first: %w", len(errs), errs[0])
	}
	if len(violations) > 0 {
		sort.Strings(violations)
		return fmt.Errorf("%d snapshot contract violation(s), first: %s", len(violations), violations[0])
	}
	if cfg.maxP99 > 0 && readP99 > cfg.maxP99 {
		return fmt.Errorf("read p99 %v exceeds the -max-p99 SLO %v", readP99, cfg.maxP99)
	}
	if cfg.expectShed && totalShed == 0 {
		return fmt.Errorf("-expect-shed: the server never shed a request with 429")
	}
	return nil
}
