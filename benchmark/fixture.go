package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dynppr"
	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/httpapi"
	"dynppr/internal/stream"
)

// structureSeed fixes the structure every run measures: the R-MAT graph, the
// arrival order of the stream, which vertices are tracked and which are
// queried cold. Both the push and the cold push are heavy-tailed in the
// source's in-neighbourhood: redrawing graph and sources per seed moved
// pushes/update between 21 and 42 and updates/s by 30 % across ten seeds, and
// even an isomorphic relabelling of one fixed graph moved updates/s by 20 %
// (memory locality, stripe balance) — far above any bound a regression gate
// could use on a run of this length. So --seed does not touch the structure:
// it draws the request sequences (which read hits which source and vertex in
// which order, how cold sources are dealt to the connections, the Zipf
// draws), and two seeds differ only in things whose cost averages out.
const structureSeed = 2

// sizes fixes a fixture. fullSizes is the one BENCHMARK.json describes;
// tests run the same code on a small one.
type sizes struct {
	vertices int
	edges    int
	sources  int
	// smallSlide and bulkSlide are the sliding-window steps of the two
	// batch sizes: a slide of k is k inserts plus k deletes.
	smallSlide int
	bulkSlide  int
	// zipfDistinct is the number of untracked sources serve-mixed's Zipf
	// draws range over.
	zipfDistinct int
}

// fullSizes: Slide(50) gives the 100-update batches, Slide(5000) the
// 10 000-update batches the paper's parallel push is for.
var fullSizes = sizes{vertices: 100_000, edges: 1_000_000, sources: 16, smallSlide: 50, bulkSlide: 5000, zipfDistinct: 4096}

const (
	initialWindow = 0.8 // share of the stream that forms the initial graph
	alpha         = 0.15
	epsilon       = 1e-6
	// onDemandEpsilon is the default coarse ε of the on-demand path, the
	// largest error bound a cold answer may advertise.
	onDemandEpsilon = 1e-4
	topK            = 10
)

// fixture is everything a run's inputs are drawn from, all a function of
// (sizes, seed).
type fixture struct {
	sz      sizes
	seed    int64
	stream  *stream.Stream
	initial []graph.Edge      // edges of the initial window, in arrival order
	n       int               // vertex count of the initial graph
	sources []dynppr.VertexID // tracked sources
	// coldPool lists the untracked vertices with in-degree >= 1 in a
	// structure-seeded order: the sources of cold queries. A vertex nobody
	// points at has a one-entry answer, and with ~48 % of R-MAT vertices in
	// that state a median over all vertices would sit on the edge between
	// two modes. The order is structural because cold-push cost is
	// heavy-tailed too (p50 1.3 ms, p99 62 ms, max 148 ms over 4 000
	// sources): a seeded draw would change the phase's total work.
	coldPool []dynppr.VertexID
}

// buildFixture generates the edge stream for seed and draws the sources.
func buildFixture(sz sizes, seed int64) (*fixture, error) {
	edges, err := gen.EdgeList(gen.Config{Model: gen.RMAT, Vertices: sz.vertices, Edges: sz.edges, Seed: structureSeed})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, e := range edges {
		n = max(n, int(e.U)+1, int(e.V)+1)
	}
	st := stream.NewStream(edges, structureSeed)
	_, initial := stream.NewSlidingWindow(st, initialWindow)
	fx := &fixture{sz: sz, seed: seed, stream: st, initial: initial, n: n}

	indeg := make([]int32, n)
	for _, e := range initial {
		indeg[e.V]++
	}
	// Tracked sources: seeded-random vertices with in-degree >= 1. (A
	// top-degree hub costs 15-25 ms per 100 updates against ~0.5 ms for a
	// random source, which would leave too few write samples per run.)
	tracked := make(map[dynppr.VertexID]bool, sz.sources)
	srng := rand.New(rand.NewSource(structureSeed))
	for len(fx.sources) < sz.sources {
		v := dynppr.VertexID(srng.Intn(sz.vertices))
		if int(v) < n && indeg[v] >= 1 && !tracked[v] {
			tracked[v] = true
			fx.sources = append(fx.sources, v)
		}
	}
	for _, c := range rand.New(rand.NewSource(structureSeed ^ 0x636f6c64)).Perm(sz.vertices) {
		v := dynppr.VertexID(c)
		if int(v) < n && indeg[v] >= 1 && !tracked[v] {
			fx.coldPool = append(fx.coldPool, v)
		}
	}
	return fx, nil
}

// window returns a sliding window positioned at the end of the initial
// window, from which the write batches of one repetition are drawn.
func (fx *fixture) window() *stream.SlidingWindow {
	w, _ := stream.NewSlidingWindow(fx.stream, initialWindow)
	return w
}

func serviceOptions() dynppr.ServiceOptions {
	so := dynppr.DefaultServiceOptions()
	so.Options.Alpha = alpha
	so.Options.Epsilon = epsilon
	so.Options.Engine = dynppr.EngineDeterministic
	so.OnDemand = dynppr.OnDemandOptions{Enabled: true}
	return so
}

// persistOptions selects SyncNone on every workload: an fsync on a sandbox
// disk is the sandbox's number, and wal.append_always_us reports it as a
// layer metric.
func persistOptions(dir string) dynppr.PersistOptions {
	return dynppr.PersistOptions{Dir: dir, Sync: dynppr.SyncNone}
}

// node is one booted server: a persistent Service behind an HTTP listener.
type node struct {
	svc *dynppr.Service
	srv *httpapi.Server
}

func serve(svc *dynppr.Service) (*node, error) {
	srv := httpapi.NewServer(svc, httpapi.ServerOptions{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		svc.Close()
		return nil, err
	}
	return &node{svc: svc, srv: srv}, nil
}

// stop drains the listener and closes the service without checkpointing, so
// the data directory keeps its last checkpoint and the WAL suffix after it.
func (nd *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := nd.srv.Shutdown(ctx)
	if werr := nd.srv.Wait(); err == nil {
		err = werr
	}
	if cerr := nd.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// client returns an API client that owns one keep-alive connection.
func (nd *node) client() *httpapi.Client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return httpapi.NewClient(nd.srv.URL(), &http.Client{Transport: tr, Timeout: 60 * time.Second})
}

// setupTimes decomposes one set-up.
type setupTimes struct {
	total     time.Duration
	gen       time.Duration // gen.EdgeList + relabel + stream
	fromEdges time.Duration // GraphFromEdges
	coldStart time.Duration // NewPersistentService: cold start + first checkpoint
}

// setUp does what a user does before the first request is served: generate
// the edges, build the graph, cold-start the tracked sources into a
// persistent service (which writes the first checkpoint) and listen.
func setUp(sz sizes, seed int64, dir string) (*fixture, *node, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	fx, err := buildFixture(sz, seed)
	if err != nil {
		return nil, nil, t, err
	}
	t.gen = time.Since(start)
	mark := time.Now()
	g := dynppr.GraphFromEdges(fx.initial)
	t.fromEdges = time.Since(mark)
	mark = time.Now()
	svc, err := dynppr.NewPersistentService(g, fx.sources, serviceOptions(), persistOptions(dir))
	if err != nil {
		return nil, nil, t, err
	}
	t.coldStart = time.Since(mark)
	nd, err := serve(svc)
	if err != nil {
		return nil, nil, t, err
	}
	t.total = time.Since(start)
	return fx, nd, t, nil
}

// bootCopy copies the checkpoint and WAL of base into dir and boots a node
// from them, the way every repetition starts.
func bootCopy(base, dir string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, name := range []string{"checkpoint", "wal.log"} {
		if err := copyFile(filepath.Join(base, name), filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	svc, err := dynppr.NewServiceFromRecovery(serviceOptions(), persistOptions(dir))
	if err != nil {
		return nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	return serve(svc)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
