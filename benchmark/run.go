package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dynppr"
	"dynppr/internal/httpapi"
	"dynppr/internal/power"
)

const (
	repetitions = 3
	setUps      = 2
	// openReaders is the number of connections the open-loop reader may
	// have in flight; the writer has one, as the pipeline serializes writes.
	openReaders = 16
)

// tally counts measured ops and failed ones across connections.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	notes     []string // first failures, for the operator
}

// err reports the failures counted so far, nil if there are none.
func (t *tally) err() error {
	if n := t.failed.Load(); n > 0 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return fmt.Errorf("%d ops failed, the first: %s", n, t.notes[0])
	}
	return nil
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// conn is one client connection plus the checks every answer on it must
// pass: a 2xx, a converged snapshot, no epoch regression for any source, the
// approximate flag on cold answers only, and an advertised error bound
// within [0, the on-demand ε].
type conn struct {
	c      *httpapi.Client
	t      *tally
	epochs map[dynppr.VertexID]uint64
}

func newConn(nd *node, t *tally) *conn {
	return &conn{c: nd.client(), t: t, epochs: make(map[dynppr.VertexID]uint64)}
}

// reply is what the harness keeps of one response.
type reply struct {
	ok      bool
	cached  bool          // cold: served from the result cache
	latency time.Duration // write: BatchResult.Latency on the server
	pushes  int64         // write
}

func (cn *conn) checkRead(o *op, snap httpapi.SnapshotMeta, approx bool, eps float64) bool {
	switch {
	case !snap.Converged:
		cn.t.fail("%s source %d: unconverged snapshot (max residual %g > ε %g)", o.kind, o.source, snap.MaxResidual, snap.Epsilon)
	case o.kind == kindCold && !approx:
		cn.t.fail("cold source %d answered as tracked", o.source)
	case o.kind != kindCold && approx:
		cn.t.fail("tracked source %d answered as approximate", o.source)
	case approx && !(eps >= 0 && eps <= onDemandEpsilon):
		cn.t.fail("cold source %d: approximate answer advertises ε = %g, outside [0, %g]", o.source, eps, onDemandEpsilon)
	case !approx && snap.Epoch < cn.epochs[o.source]:
		cn.t.fail("source %d: epoch went back from %d to %d on one connection", o.source, cn.epochs[o.source], snap.Epoch)
	default:
		if !approx {
			cn.epochs[o.source] = snap.Epoch
		}
		return true
	}
	return false
}

// do sends one op and checks its answer; a failed check is counted in the
// tally. count=false is for warm-up ops, which are neither attempted nor
// failed.
func (cn *conn) do(o *op, count bool) reply {
	if count {
		cn.t.attempted.Add(1)
	}
	var rp reply
	switch o.kind {
	case kindTopK, kindCold:
		r, err := cn.c.TopK(o.source, topK)
		if err != nil {
			cn.t.fail("%s source %d: %v", o.kind, o.source, err)
			return rp
		}
		if len(r.Results) == 0 {
			cn.t.fail("%s source %d: empty ranking", o.kind, o.source)
			return rp
		}
		rp.ok = cn.checkRead(o, r.Snapshot, r.Approx, r.Epsilon)
		rp.cached = r.Cached
	case kindEstimate:
		r, err := cn.c.Estimate(o.source, o.vertex)
		if err != nil {
			cn.t.fail("estimate source %d: %v", o.source, err)
			return rp
		}
		rp.ok = cn.checkRead(o, r.Snapshot, r.Approx, r.Epsilon)
	case kindSmall, kindBulk:
		r, err := cn.c.ApplyEdges(o.wire)
		if err != nil {
			cn.t.fail("%s batch: %v", o.kind, err)
			return rp
		}
		if r.Applied+r.Skipped != len(o.batch) {
			cn.t.fail("%s batch: %d applied + %d skipped of %d updates", o.kind, r.Applied, r.Skipped, len(o.batch))
			return rp
		}
		rp.ok = true
		rp.latency = time.Duration(r.LatencyMicros) * time.Microsecond
		rp.pushes = r.Pushes
	}
	return rp
}

// sample is one measured op: its kind, latency and reply.
type sample struct {
	kind opKind
	lat  time.Duration
	late time.Duration // open loop: how long after its due time it was sent
	end  time.Duration // closed loop: when the answer arrived, since the phase began
	rp   reply
}

// closedLoop runs each connection's list back to back on its own goroutine:
// the next request leaves when the previous answer has arrived. observe, when
// not nil, is called with every sample as it is taken, from the goroutine of
// connection c (the traced variant of a phase).
func closedLoop(conns []*conn, lists [][]op, observe func(c, i int, s sample)) (phaseSamples, time.Duration) {
	out := make(phaseSamples, len(lists))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn, ops := conns[c], lists[c]
			s := make([]sample, len(ops))
			for i := range ops {
				t := time.Now()
				rp := cn.do(&ops[i], true)
				done := time.Now()
				s[i] = sample{kind: ops[i].kind, lat: done.Sub(t), end: done.Sub(start), rp: rp}
				if observe != nil {
					observe(c, i, s[i])
				}
			}
			out[c] = s
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// phaseSamples are the samples of a closed-loop phase, per connection.
type phaseSamples [][]sample

func (p phaseSamples) all() []sample {
	var all []sample
	for _, s := range p {
		all = append(all, s...)
	}
	return all
}

const rateChunks = 10

// chunkTimes cuts every connection's samples into rateChunks consecutive
// chunks and returns how long each took.
func (p phaseSamples) chunkTimes() [][]time.Duration {
	out := make([][]time.Duration, len(p))
	for c, s := range p {
		chunks := min(rateChunks, len(s))
		var from time.Duration
		for k := 0; k < chunks; k++ {
			to := s[(k+1)*len(s)/chunks-1].end
			out[c] = append(out[c], to-from)
			from = to
		}
	}
	return out
}

// bestRate is a closed-loop phase's throughput in ops per second over the
// repetitions: every repetition sends the same ops, so chunk k of connection
// c is the same work each time and its fastest instance is its least
// disturbed one. A connection's rate is its ops over the sum of its chunks'
// best times; the phase's rate is the sum over connections. A stall of the
// box — a neighbour's burst, a descheduled vCPU — has to hit the same chunk
// in every repetition to count, while work the chunk always does (its share
// of collections, compactions) stays in.
func bestRate(reps []phaseSamples) float64 {
	if len(reps) == 0 || len(reps[0]) == 0 {
		return 0
	}
	times := make([][][]time.Duration, len(reps))
	for r, p := range reps {
		times[r] = p.chunkTimes()
	}
	total := 0.0
	for c := range reps[0] {
		var sum time.Duration
		for k := range times[0][c] {
			b := times[0][c][k]
			for r := range reps {
				b = min(b, times[r][c][k])
			}
			sum += b
		}
		if sum > 0 {
			total += float64(len(reps[0][c])) / sum.Seconds()
		}
	}
	return total
}

// bestLatencies returns, for every op of a phase that some repetition
// answered correctly and keep accepts, its fastest latency over the
// repetitions: the same op does the same work each time.
func bestLatencies(reps []phaseSamples, keep func(sample) bool) []time.Duration {
	var out []time.Duration
	if len(reps) == 0 {
		return out
	}
	for c := range reps[0] {
		for i := range reps[0][c] {
			b := time.Duration(-1)
			for _, p := range reps {
				if x := p[c][i]; x.rp.ok && keep(x) && (b < 0 || x.lat < b) {
					b = x.lat
				}
			}
			if b >= 0 {
				out = append(out, b)
			}
		}
	}
	return out
}

// openLoop hands every op to an idle connection at its due time, whatever
// the server does: arrivals are independent users, so a slow answer holds up
// only its own connection. If every connection is busy the op leaves late,
// and because latency is timed from when the op was due, a stall is charged
// to every request it delayed.
func openLoop(conns []*conn, ops []op, start time.Time) []sample {
	out := make([]sample, len(ops))
	next := make(chan int) // unbuffered: a hand-off to a connection that is idle now
	var wg sync.WaitGroup
	for _, cn := range conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			for i := range next {
				due := start.Add(ops[i].due)
				late := time.Since(due)
				rp := cn.do(&ops[i], true)
				out[i] = sample{kind: ops[i].kind, lat: time.Since(due), late: late, rp: rp}
			}
		}(cn)
	}
	// The Go timer wakes an otherwise idle process on a millisecond grid
	// (time.Sleep(100µs) took 1.1 ms on the reference box), which would put a
	// floor under every due-time latency; nanosleep on a locked thread is
	// good to ~0.1 ms.
	runtime.LockOSThread()
	for i := range ops {
		if wait := time.Until(start.Add(ops[i].due)); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil) // an early wake-up only sends early by less than the timer's own error
		}
		next <- i
	}
	runtime.UnlockOSThread()
	close(next)
	wg.Wait()
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// usage brackets a phase to charge it its CPU and allocation.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func startUsage() usage { return usage{cpu: cpuTime(), alloc: totalAlloc()} }
func (u usage) since() usage {
	return usage{cpu: cpuTime() - u.cpu, alloc: totalAlloc() - u.alloc}
}

// repResult is what one repetition measured. The phases keep every sample:
// the per-run values are taken over the repetitions, op by op.
type repResult struct {
	reads, colds, small, bulk phaseSamples // closed-loop phases
	reader, writer            phaseSamples // open loop, one list each
	openWall                  time.Duration
	recover                   time.Duration
	ckpt                      time.Duration

	primaryWall time.Duration
	primaryOps  int // requests, or edge updates on write-stream
	primary     usage

	pushes, updates int64
	answers         string // digest of the pre-shutdown answers
}

// kops is the repetition's primary ops in thousands.
func (x repResult) kops() float64 { return float64(x.primaryOps) / 1000 }

func isTracked(s sample) bool      { return s.kind == kindTopK || s.kind == kindEstimate }
func isUncachedCold(s sample) bool { return s.kind == kindCold && !s.rp.cached }
func anyOp(sample) bool            { return true }

// run holds what the repetitions of one run share.
type run struct {
	w      workload
	fx     *fixture
	sc     *script
	base   string // data dir holding the base checkpoint
	tmp    string
	t      *tally
	oracle map[dynppr.VertexID][]float64
	log    func(format string, args ...any)

	// Captured at the end of the last repetition's measured phases.
	heapLiveMB float64
	stats      httpapi.StatsResponse
	storage    dynppr.StorageStats
}

// writePhase sends ops one after another on one connection.
func writePhase(cn *conn, ops []op) (phaseSamples, time.Duration) {
	return closedLoop([]*conn{cn}, [][]op{ops}, nil)
}

func countUpdates(ops []op) int {
	n := 0
	for _, o := range ops {
		n += len(o.batch)
	}
	return n
}

// repetition boots a node from a copy of the base checkpoint, warms it, runs
// the script's phases, checks the answers against the oracle, then shuts
// down without checkpointing and times recovery from the WAL suffix.
func (r *run) repetition(idx int, last bool) (repResult, error) {
	var res repResult
	dir := filepath.Join(r.tmp, fmt.Sprintf("rep%d", idx))
	defer os.RemoveAll(dir)
	nd, err := bootCopy(r.base, dir)
	if err != nil {
		return res, err
	}
	stopped := false
	defer func() {
		if !stopped {
			nd.stop()
		}
	}()
	sc := r.sc
	conns := make([]*conn, max(clients, 1+openReaders))
	for i := range conns {
		conns[i] = newConn(nd, r.t)
	}
	for i := range sc.warmReads {
		conns[i%clients].do(&sc.warmReads[i], false)
	}
	for i := range sc.warmColds {
		conns[i%clients].do(&sc.warmColds[i], false)
	}
	runtime.GC()

	charge := func(id phaseID, ops int, wall time.Duration, u usage) {
		if r.w.primary == id {
			res.primaryOps += ops
			res.primaryWall += wall
			res.primary.cpu += u.cpu
			res.primary.alloc += u.alloc
		}
	}
	noteWrites := func(s []sample) {
		for _, x := range s {
			res.pushes += x.rp.pushes
		}
	}

	if len(sc.reads) > 0 {
		u := startUsage()
		p, wall := closedLoop(conns[:clients], sc.reads, nil)
		charge(phaseReads, len(p.all()), wall, u.since())
		res.reads = p
	}
	coldPhase := func() {
		u := startUsage()
		p, wall := closedLoop(conns[:clients], sc.colds, nil)
		charge(phaseColds, len(p.all()), wall, u.since())
		res.colds = p
	}
	if len(sc.reader) == 0 {
		coldPhase()
	}
	writer := conns[0]
	for i := range sc.warmSmall {
		rp := writer.do(&sc.warmSmall[i], false)
		res.pushes += rp.pushes
	}
	res.updates += int64(countUpdates(sc.warmSmall))
	if len(sc.small) > 0 {
		u := startUsage()
		p, wall := writePhase(writer, sc.small)
		n := countUpdates(sc.small)
		charge(phaseWrites, n, wall, u.since())
		noteWrites(p[0])
		res.updates += int64(n)
		res.small = p
	}
	if len(sc.reader) > 0 {
		u := startUsage()
		var rs, ws []sample
		var wg sync.WaitGroup
		start := time.Now().Add(5 * time.Millisecond)
		wg.Add(2)
		go func() { defer wg.Done(); rs = openLoop(conns[1:], sc.reader, start) }()
		go func() { defer wg.Done(); ws = openLoop(conns[:1], sc.writer, start) }()
		wg.Wait()
		res.openWall = time.Since(start)
		charge(phaseOpen, len(rs)+len(ws), res.openWall, u.since())
		noteWrites(ws)
		res.updates += int64(countUpdates(sc.writer))
		res.reader, res.writer = phaseSamples{rs}, phaseSamples{ws}
		// The closed-loop cold queries come after the open loop here: they
		// replace whatever the open loop left in the result cache, whose
		// content depends on timing, so that heap_live_mb is taken over the
		// same full cache on every workload.
		coldPhase()
	}

	// Checkpoint (untimed for the end-to-end metrics) so that the WAL
	// suffix recovery replays is exactly the bulk phase.
	mark := time.Now()
	if _, err := writer.c.Checkpoint(); err != nil {
		return res, fmt.Errorf("POST /checkpoint: %w", err)
	}
	res.ckpt = time.Since(mark)
	{
		u := startUsage()
		p, wall := writePhase(writer, sc.bulk)
		n := countUpdates(sc.bulk)
		charge(phaseWrites, n, wall, u.since())
		noteWrites(p[0])
		res.updates += int64(n)
		res.bulk = p
	}

	r.checkOracle(conns[0])
	before, err := r.trackedAnswers(nd.svc)
	if err != nil {
		return res, err
	}
	if last {
		r.heapLiveMB = heapLiveMB()
		r.storage = nd.svc.Stats().Storage
		if r.stats, err = conns[0].c.Stats(); err != nil {
			return res, fmt.Errorf("GET /stats: %w", err)
		}
	}
	stopped = true
	if err := nd.stop(); err != nil {
		return res, fmt.Errorf("stopping repetition %d: %w", idx, err)
	}

	mark = time.Now()
	svc, err := dynppr.NewServiceFromRecovery(serviceOptions(), persistOptions(dir))
	res.recover = time.Since(mark)
	if err != nil {
		return res, fmt.Errorf("recovery: %w", err)
	}
	defer svc.Close()
	after, err := r.trackedAnswers(svc)
	if err != nil {
		return res, err
	}
	r.t.attempted.Add(1)
	if before != after {
		r.t.fail("Top-K of the %d tracked sources changed across recovery", len(r.fx.sources))
	}
	res.answers = before
	return res, nil
}

// heapLiveMB is the live heap after two forced collections (the second
// frees what finalizers of the first released), in MB of 2^20 bytes.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// trackedAnswers renders the Top-K of every tracked source with the exact
// bits of every score, for bit-identity comparisons.
func (r *run) trackedAnswers(svc *dynppr.Service) (string, error) {
	var out []byte
	var buf []dynppr.VertexScore
	for _, s := range r.fx.sources {
		top, info, err := svc.AppendTopK(buf[:0], s, topK)
		if err != nil {
			return "", fmt.Errorf("Top-K of source %d: %w", s, err)
		}
		buf = top
		out = fmt.Appendf(out, "%d@%d:", s, info.Epoch)
		for _, vs := range top {
			out = fmt.Appendf(out, "%d=%016x,", vs.Vertex, math.Float64bits(vs.Score))
		}
	}
	return string(out), nil
}

const verifyK = 50

// buildOracle replays the repetition's writes on a mirror of the initial
// graph and solves the verify sources exactly on the result. Every
// repetition ends on that same graph, so one oracle serves them all.
func (r *run) buildOracle() error {
	g := dynppr.GraphFromEdges(r.fx.initial)
	for _, o := range r.sc.writes() {
		o.batch.Apply(g)
	}
	csr := g.Snapshot()
	r.oracle = make(map[dynppr.VertexID][]float64, len(r.sc.verify))
	opts := power.DefaultOptions()
	opts.Alpha = alpha
	for _, s := range r.sc.verify {
		vec, err := power.Reverse(csr, s, opts)
		if err != nil {
			return fmt.Errorf("oracle for source %d: %w", s, err)
		}
		r.oracle[s] = vec
	}
	return nil
}

// checkOracle asks the server for the verify sources' Top-K and a few
// estimates and holds every returned score against the exact vector, within
// the error bound the answer itself advertises. Each comparison is an
// attempted op; a miss is a failed one.
func (r *run) checkOracle(cn *conn) {
	const slack = 1e-9 // the oracle's own tolerance
	check := func(s, v dynppr.VertexID, score, eps float64) {
		r.t.attempted.Add(1)
		exact := 0.0
		if int(v) < len(r.oracle[s]) {
			exact = r.oracle[s][v]
		}
		if d := math.Abs(score - exact); !(d <= eps+slack) {
			r.t.fail("oracle miss: source %d vertex %d: got %.9g, exact %.9g, |diff| %.3g > ε %.3g", s, v, score, exact, d, eps)
		}
	}
	for _, s := range r.sc.verify {
		top, err := cn.c.TopK(s, verifyK)
		r.t.attempted.Add(1)
		if err != nil {
			r.t.fail("verify /topk source %d: %v", s, err)
			continue
		}
		eps := top.Snapshot.Epsilon
		if top.Approx {
			eps = top.Epsilon
		}
		for _, vs := range top.Results {
			check(s, vs.Vertex, vs.Score, eps)
		}
		// A few estimates too, mostly of vertices outside the ranking.
		for i := 0; i < 8; i++ {
			v := dynppr.VertexID((int(s) + 7919*(i+1)) % r.fx.n)
			est, err := cn.c.Estimate(s, v)
			r.t.attempted.Add(1)
			if err != nil {
				r.t.fail("verify /estimate source %d: %v", s, err)
				continue
			}
			eps := est.Snapshot.Epsilon
			if est.Approx {
				eps = est.Epsilon
			}
			check(s, v, est.Score, eps)
		}
	}
}
