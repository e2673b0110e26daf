package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"dynppr"
	"dynppr/internal/graph"
	"dynppr/internal/httpapi"
	"dynppr/internal/push"
	"dynppr/internal/wal"
)

// The traced run times calls into each layer's public functions from the
// benchmark's own code; nothing inside the program is instrumented. One
// sample of the workload's ops is replayed once per depth, each time from
// the base checkpoint, and every call leaves a span.

// Depths, outermost first. A span's parent is the span of the same op one
// depth out.
const (
	depthWire    = "wire"    // a real HTTP round trip
	depthHTTPAPI = "httpapi" // Handler.ServeHTTP on an httptest.ResponseRecorder
	depthService = "service" // Service.AppendTopK / EstimateInfo / QueryTopKCtx / ApplyBatch
	depthPush    = "push"    // TrackerSet.ApplyBatch on a rebuilt graph; push.ColdPushCSR on Graph.Snapshot()
	depthGraph   = "graph"   // stream.Batch.Apply on a rebuilt graph
	depthWAL     = "wal"     // wal.Log.AppendBatch, SyncNone
)

var depthParent = map[string]string{
	depthWire: "", depthHTTPAPI: depthWire, depthService: depthHTTPAPI,
	depthPush: depthService, depthGraph: depthPush, depthWAL: depthService,
}

// span is one timed call. Start and End are nanoseconds since the replay of
// the span's depth began.
type span struct {
	Trace  int    `json:"trace"` // index of the op in the replayed sequence
	Name   string `json:"name"`  // depth
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceOp is one op of the replayed sequence.
type traceOp struct {
	op
	sampled bool // leaves spans; writes that are not sampled still run, untimed
}

const (
	sampleShare = 0.10
	minReads    = 2000 // tracked reads sampled at least, so every kind has a usable median
	minColds    = 100
)

// traceSequence flattens the script into the order one client would send it
// and marks the sample: of reads and cold queries the first tenth of each
// phase (at least minReads and minColds, or the whole phase if shorter), and
// every write — each depth has to walk the same graph states, so the writes
// all run anyway.
func traceSequence(sc *script) []traceOp {
	var seq []traceOp
	take := func(ops []op, floor int) {
		n := max(int(float64(len(ops))*sampleShare+0.5), floor)
		for _, o := range ops[:min(n, len(ops))] {
			seq = append(seq, traceOp{op: o, sampled: true})
		}
	}
	var reads, colds []op
	for _, c := range sc.reads {
		reads = append(reads, c...)
	}
	for _, c := range sc.colds {
		colds = append(colds, c...)
	}
	take(reads, minReads)
	take(colds, minColds)
	for _, o := range sc.warmSmall {
		seq = append(seq, traceOp{op: o})
	}
	if len(sc.reader) > 0 {
		// Open loop: reader and writer merged by due time, replayed back to
		// back. Reads past the sample are dropped, writes are kept.
		merged := append(append([]op(nil), sc.reader...), sc.writer...)
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].due < merged[j].due })
		nTracked := max(int(float64(len(sc.reader))*sampleShare+0.5), minReads)
		nCold := minColds
		for _, o := range merged {
			switch {
			case o.kind.isWrite():
				seq = append(seq, traceOp{op: o, sampled: true})
			case o.kind == kindCold && nCold > 0:
				nCold--
				seq = append(seq, traceOp{op: o, sampled: true})
			case o.kind != kindCold && nTracked > 0:
				nTracked--
				seq = append(seq, traceOp{op: o, sampled: true})
			}
		}
	}
	for _, o := range sc.small {
		seq = append(seq, traceOp{op: o, sampled: true})
	}
	for _, o := range sc.bulk {
		seq = append(seq, traceOp{op: o, sampled: true})
	}
	return seq
}

// tracer collects the spans of a traced run in memory.
type tracer struct {
	spans []span
	// queueWait collects, at the service depth, ApplyBatch wall time minus
	// the BatchResult.Latency the pipeline reported for the batch.
	queueWait []time.Duration
}

// depthRun times calls of one depth.
type depthRun struct {
	tr    *tracer
	name  string
	start time.Time
}

func (tr *tracer) depth(name string) *depthRun {
	return &depthRun{tr: tr, name: name, start: time.Now()}
}

// call runs fn as op i of the sequence and, if the op is sampled, records
// its span.
func (d *depthRun) call(i int, o traceOp, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	if o.sampled && err == nil {
		d.tr.spans = append(d.tr.spans, span{
			Trace: i, Name: d.name, Parent: depthParent[d.name], Kind: o.kind.String(),
			Start: t0.Sub(d.start).Nanoseconds(), End: t1.Sub(d.start).Nanoseconds(),
		})
	}
	return t1.Sub(t0), err
}

// concurrentReads sends the tracked reads seq opens with over `clients`
// connections at once, each taking every clients-th op, and records their
// spans.
func (d *depthRun) concurrentReads(nd *node, seq []traceOp) error {
	t := &tally{}
	conns := make([]*conn, clients)
	lists := make([][]op, clients)
	for i, o := range seq {
		lists[i%clients] = append(lists[i%clients], o.op)
	}
	for c := range conns {
		conns[c] = newConn(nd, t)
	}
	spans := make([][]span, clients)
	offset := time.Since(d.start)
	closedLoop(conns, lists, func(c, i int, s sample) {
		spans[c] = append(spans[c], span{
			Trace: i*clients + c, Name: d.name, Kind: s.kind.String(),
			Start: (offset + s.end - s.lat).Nanoseconds(), End: (offset + s.end).Nanoseconds(),
		})
	})
	for _, s := range spans {
		d.tr.spans = append(d.tr.spans, s...)
	}
	return t.err()
}

// medianOf is the median span duration of one depth and op kind.
func (tr *tracer) medianOf(depth string, kinds ...opKind) time.Duration {
	var d []time.Duration
	for _, s := range tr.spans {
		if s.Name != depth {
			continue
		}
		for _, k := range kinds {
			if s.Kind == k.String() {
				d = append(d, time.Duration(s.End-s.Start))
			}
		}
	}
	return median(d)
}

// medianPairedDiff is the median, over the ops of one kind, of the op's span
// at the outer depth minus its span at the inner depth. Both replays do the
// same work for the same op, so pairing removes the op-to-op variation that
// the difference of two medians keeps. A negative median (a thin layer under
// timing noise) is reported as zero.
func (tr *tracer) medianPairedDiff(outer, inner string, kind opKind) time.Duration {
	at := map[string]map[int]time.Duration{outer: {}, inner: {}}
	for _, s := range tr.spans {
		if m, ok := at[s.Name]; ok && s.Kind == kind.String() {
			m[s.Trace] = time.Duration(s.End - s.Start)
		}
	}
	var diffs []time.Duration
	for i, o := range at[outer] {
		if in, ok := at[inner][i]; ok {
			diffs = append(diffs, o-in)
		}
	}
	return max(0, median(diffs))
}

func readPath(o op) string {
	if o.kind == kindEstimate {
		return "/estimate?source=" + strconv.Itoa(int(o.source)) + "&v=" + strconv.Itoa(int(o.vertex))
	}
	return "/topk?source=" + strconv.Itoa(int(o.source)) + "&k=" + strconv.Itoa(topK)
}

// replayServed replays seq against a node booted from the base checkpoint,
// at one of the three depths that need a live service.
func (r *run) replayServed(tr *tracer, depth string, seq []traceOp) error {
	dir := filepath.Join(r.tmp, "trace-"+depth)
	defer os.RemoveAll(dir)
	nd, err := bootCopy(r.base, dir)
	if err != nil {
		return err
	}
	defer nd.stop()
	wireTally := &tally{}
	cn := newConn(nd, wireTally)
	handler := nd.srv.Handler()
	ctx := context.Background()
	var buf []dynppr.VertexScore
	// As before a repetition: without it the first replay pays mark assists
	// for the garbage of whatever ran before it (cold queries, which
	// allocate megabytes each, measured 10-20 ms instead of 1.3 ms).
	runtime.GC()
	d := tr.depth(depth)
	first := 0
	if depth == depthWire {
		// The measured read phase keeps `clients` connections busy at once,
		// and a request's round trip is longer then than on an idle box; the
		// wire depth mirrors that for the reads the sequence opens with.
		for first < len(seq) && !seq[first].kind.isWrite() && seq[first].kind != kindCold {
			first++
		}
		if err := d.concurrentReads(nd, seq[:first]); err != nil {
			return err
		}
	}
	checkpointed := false
	for i, o := range seq {
		if i < first {
			continue
		}
		if o.kind == kindBulk && !checkpointed {
			// As in the measured run: a checkpoint, which also compacts the
			// graph, separates the bulk batches from the small ones.
			checkpointed = true
			if _, err := nd.svc.Checkpoint(); err != nil {
				return err
			}
		}
		var fn func() error
		switch depth {
		case depthWire:
			fn = func() error {
				cn.do(&o.op, false)
				return wireTally.err()
			}
		case depthHTTPAPI:
			var req *http.Request
			if o.kind.isWrite() {
				body, err := json.Marshal(httpapi.EdgesRequest{Updates: o.wire})
				if err != nil {
					return err
				}
				req = httptest.NewRequest(http.MethodPost, "/edges", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
			} else {
				req = httptest.NewRequest(http.MethodGet, readPath(o.op), nil)
			}
			fn = func() error {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, rec.Code, rec.Body.String())
				}
				return nil
			}
		case depthService:
			fn = func() error {
				switch o.kind {
				case kindTopK:
					top, _, err := nd.svc.AppendTopK(buf[:0], o.source, topK)
					buf = top
					return err
				case kindEstimate:
					_, _, err := nd.svc.EstimateInfo(o.source, o.vertex)
					return err
				case kindCold:
					_, _, err := nd.svc.QueryTopKCtx(ctx, o.source, topK)
					return err
				}
				t0 := time.Now()
				res, err := nd.svc.ApplyBatch(o.batch)
				if o.kind == kindSmall && o.sampled {
					tr.queueWait = append(tr.queueWait, time.Since(t0)-res.Latency)
				}
				return err
			}
		}
		if _, err := d.call(i, o, fn); err != nil {
			return fmt.Errorf("%s depth, op %d (%s): %w", depth, i, o.kind, err)
		}
	}
	return nil
}

// replayBelow replays the write and cold ops of seq at the depths below the
// service: the push engines on a graph rebuilt from the same edges, the graph
// store alone, and the journal alone.
func (r *run) replayBelow(tr *tracer, seq []traceOp) error {
	opts := serviceOptions().Options
	g := dynppr.GraphFromEdges(r.fx.initial)
	ts, err := dynppr.NewTrackerSet(g, r.fx.sources, opts)
	if err != nil {
		return err
	}
	cold := push.Config{Alpha: alpha, Epsilon: onDemandEpsilon}
	var pinned *graph.CSR // re-pinned after a write, like the service's on-demand snapshot
	d := tr.depth(depthPush)
	compacted := false
	for i, o := range seq {
		if o.kind == kindBulk && !compacted {
			compacted = true
			g.Compact()
		}
		switch {
		case o.kind.isWrite():
			pinned = nil
			if _, err := d.call(i, o, func() error { ts.ApplyBatch(o.batch); return nil }); err != nil {
				return err
			}
		case o.kind == kindCold:
			if pinned == nil {
				pinned = g.Snapshot()
			}
			if _, err := d.call(i, o, func() error {
				_, err := push.ColdPushCSR(pinned, o.source, cold, 4_000_000)
				return err
			}); err != nil {
				return fmt.Errorf("push depth, op %d: %w", i, err)
			}
		}
	}

	g = dynppr.GraphFromEdges(r.fx.initial)
	d = tr.depth(depthGraph)
	compacted = false
	for i, o := range seq {
		if o.kind == kindBulk && !compacted {
			compacted = true
			g.Compact()
		}
		if o.kind.isWrite() {
			d.call(i, o, func() error { o.batch.Apply(g); return nil })
		}
	}

	log, _, err := wal.OpenOrCreate(filepath.Join(r.tmp, "trace-wal.log"), 0, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	defer os.Remove(log.Path())
	defer log.Close()
	d = tr.depth(depthWAL)
	for i, o := range seq {
		if o.kind.isWrite() {
			if _, err := d.call(i, o, func() error { _, err := log.AppendBatch(o.batch); return err }); err != nil {
				return fmt.Errorf("wal depth, op %d: %w", i, err)
			}
		}
	}
	return nil
}

// chains lists, per op kind, the depths a call passes through, outermost
// first. The journal is a sibling of the push under the service: its time is
// taken out of the service's self time.
var chains = map[opKind][]string{
	kindTopK:     {depthWire, depthHTTPAPI, depthService},
	kindEstimate: {depthWire, depthHTTPAPI, depthService},
	kindCold:     {depthWire, depthHTTPAPI, depthService, depthPush},
	kindSmall:    {depthWire, depthHTTPAPI, depthService, depthPush, depthGraph},
	kindBulk:     {depthWire, depthHTTPAPI, depthService, depthPush, depthGraph},
}

// selfTimeTable prints each kind's self time per layer. Up to the clamping of
// a thin layer's negative self time, the self times of a kind add up to its
// wire-depth median.
func (tr *tracer) selfTimeTable(log func(string, ...any)) {
	for k := opKind(0); k < numKinds; k++ {
		chain := chains[k]
		meds := make([]time.Duration, len(chain))
		for i, depth := range chain {
			meds[i] = tr.medianOf(depth, k)
		}
		if meds[0] == 0 {
			continue
		}
		self := selfTimes(meds)
		line := fmt.Sprintf("self time %-8s", k)
		for i, depth := range chain {
			s := self[i]
			if depth == depthService && k.isWrite() {
				w := tr.medianOf(depthWAL, k)
				s = max(0, s-w)
				line += fmt.Sprintf("  wal %.1f us", us(w))
			}
			line += fmt.Sprintf("  %s %.1f us", depth, us(s))
		}
		log("%s  = wire depth %.1f us", line, us(meds[0]))
	}
}

// traceRun is the traced part of a run: the depth replay, the layer probes,
// the trace file and the layer metrics derived from them.
func traceRun(cfg config, r *run, rep *report) error {
	tr := &tracer{}
	seq := traceSequence(r.sc)
	for _, depth := range []string{depthWire, depthHTTPAPI, depthService} {
		if err := r.replayServed(tr, depth, seq); err != nil {
			return err
		}
	}
	if err := r.replayBelow(tr, seq); err != nil {
		return err
	}

	ly := rep.layer
	reads := []opKind{kindTopK, kindEstimate}
	ly["httpapi.wire_us"] = us(tr.medianOf(depthWire, reads...) - tr.medianOf(depthHTTPAPI, reads...))
	ly["httpapi.topk_handler_us"] = us(tr.medianOf(depthHTTPAPI, kindTopK))
	ly["httpapi.estimate_handler_us"] = us(tr.medianOf(depthHTTPAPI, kindEstimate))
	ly["httpapi.edges_decode_us"] = us(tr.medianPairedDiff(depthHTTPAPI, depthService, kindSmall))
	ly["service.topk_ns"] = float64(tr.medianOf(depthService, kindTopK))
	ly["service.estimate_ns"] = float64(tr.medianOf(depthService, kindEstimate))
	ly["service.queue_wait_ms"] = ms(median(tr.queueWait))
	ly["graph.apply_us_per_update"] = us(tr.medianOf(depthGraph, kindSmall)) / float64(2*cfg.sz.smallSlide)
	ly["wal.append_none_us"] = us(tr.medianOf(depthWAL, kindSmall))

	// How much of the measured median the layers account for: the self times
	// of the workload's own op kind telescope to its wire-depth median, which
	// is held against the plain median of the same kind of op in the measured
	// repetitions (the end-to-end p50 itself is each op's best of three
	// repetitions, which a single replay cannot match).
	tr.selfTimeTable(cfg.log)
	kinds := reads // the read median covers both read kinds
	switch cfg.w.primary {
	case phaseColds:
		kinds = []opKind{kindCold}
	case phaseWrites, phaseOpen:
		kinds = []opKind{kindSmall}
	}
	kind := kinds[0]
	accounted, measured := tr.medianOf(depthWire, kinds...), rep.rawP50[kind]
	if measured > 0 {
		gap := float64(accounted-measured) / float64(measured)
		ly["trace.e2e_gap_share"] = max(gap, -gap)
		cfg.log("layers account for %.4f ms of the %.4f ms median of %s ops in the measured repetitions (gap %+.1f %%)", ms(accounted), ms(measured), kind, gap*100)
	}

	if err := r.probeLayers(rep); err != nil {
		return err
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "trace-"+cfg.w.name+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.w.name, cfg.seed, tr.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	cfg.log("wrote %d spans to %s", len(tr.spans), path)
	return nil
}
