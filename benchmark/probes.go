package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dynppr"
	"dynppr/internal/ckpt"
	"dynppr/internal/graph"
	"dynppr/internal/push"
	"dynppr/internal/wal"
)

// Layer probes: calls into one layer's public functions on the run's own
// graph and batches, for the layer metrics the depth replay does not give.
// They run after the measured repetitions and never inside a timed phase.

const (
	probeColds  = 100 // cold sources per on-demand / cold-push probe
	probeRepins = 10
	probeSmall  = 20 // 100-update batches per engine probe
	probeBulk   = 2
	probeFsyncs = 30 // SyncAlways appends
	probeCalls  = 2000
)

// timeOf times one call.
func timeOf(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}

// timesOf times fn n times.
func timesOf(n int, fn func(i int)) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = timeOf(func() { fn(i) })
	}
	return d
}

func minOf(d []time.Duration) time.Duration { return quantile(d, 0) }

func (r *run) probeLayers(rep *report) error {
	ly := rep.layer
	sc := r.sc
	// Probe inputs: the first small batches and the bulk batches of the
	// script, and cold sources no phase has queried.
	small := sc.writes()[:min(probeSmall, len(sc.warmSmall)+len(sc.writer)+len(sc.small))]
	bulk := sc.bulk[:min(probeBulk, len(sc.bulk))]
	pool := r.fx.coldPool
	if len(pool) < probeColds+probeRepins {
		return fmt.Errorf("fixture has too few cold sources for the probes")
	}
	fresh := pool[len(pool)-probeColds-probeRepins:]

	if err := r.probeOnDemand(ly, small, fresh); err != nil {
		return err
	}
	if err := r.probeEngines(ly, small, bulk); err != nil {
		return err
	}
	if err := r.probeStorage(ly, small, fresh[:probeColds]); err != nil {
		return err
	}
	if err := r.probeDurability(ly, rep); err != nil {
		return err
	}
	return r.probeServer(ly)
}

// probeOnDemand times Service.QueryTopKCtx directly: distinct sources (cold
// push), the same sources again (result cache), and the first query after a
// write (snapshot re-pin).
func (r *run) probeOnDemand(ly values, small []op, fresh []dynppr.VertexID) error {
	dir := filepath.Join(r.tmp, "probe-ondemand")
	defer os.RemoveAll(dir)
	nd, err := bootCopy(r.base, dir)
	if err != nil {
		return err
	}
	defer nd.stop()
	runtime.GC()
	ctx := context.Background()
	var qerr error
	query := func(s dynppr.VertexID) {
		if _, _, err := nd.svc.QueryTopKCtx(ctx, s, topK); err != nil && qerr == nil {
			qerr = err
		}
	}
	query(fresh[probeColds]) // pins the snapshot outside the timings
	alloc := totalAlloc()
	coldLat := timesOf(probeColds, func(i int) { query(fresh[i]) })
	ly["ondemand.alloc_kb_per_query"] = float64(totalAlloc()-alloc) / 1024 / probeColds
	ly["ondemand.cold_query_ms"] = ms(median(coldLat))
	ly["ondemand.cached_query_us"] = us(median(timesOf(probeColds, func(i int) { query(fresh[i]) })))
	var repin []time.Duration
	for i := 0; i < probeRepins && i < len(small); i++ {
		if _, err := nd.svc.ApplyBatch(small[i].batch); err != nil {
			return err
		}
		repin = append(repin, timeOf(func() { query(fresh[probeColds+i]) }))
	}
	ly["ondemand.repin_ms"] = ms(median(repin))
	return qerr
}

// probeEngines applies the same batches to one tracker per engine: the
// sequential push, the optimized parallel push, and the deterministic engine
// at Parallelism 1 and nproc. The tracked source is the one with the largest
// in-degree, whose frontiers are the widest the fixture has.
func (r *run) probeEngines(ly values, small, bulk []op) error {
	base := dynppr.GraphFromEdges(r.fx.initial)
	heavy := r.fx.sources[0]
	for _, s := range r.fx.sources {
		if base.InDegree(s) > base.InDegree(heavy) {
			heavy = s
		}
	}
	// engine applies the probe batches to a fresh tracker of the heavy
	// source and returns the median 100-update and the fastest 10 000-update
	// batch time, and the tracker's counters.
	engine := func(set func(*dynppr.Options)) (time.Duration, time.Duration, dynppr.Counters, error) {
		opts := serviceOptions().Options
		set(&opts)
		t, err := dynppr.NewTracker(base.Clone(), heavy, opts)
		if err != nil {
			return 0, 0, dynppr.Counters{}, err
		}
		s := median(timesOf(len(small), func(i int) { t.ApplyBatch(small[i].batch) }))
		b := minOf(timesOf(len(bulk), func(i int) { t.ApplyBatch(bulk[i].batch) }))
		return s, b, t.Counters(), nil
	}
	seqSmall, seqBulk, _, err := engine(func(o *dynppr.Options) { o.Engine = dynppr.EngineSequential })
	if err != nil {
		return err
	}
	_, parBulk, _, err := engine(func(o *dynppr.Options) { o.Engine = dynppr.EngineParallel; o.Variant = dynppr.VariantOpt })
	if err != nil {
		return err
	}
	_, det1Bulk, _, err := engine(func(o *dynppr.Options) { o.Engine = dynppr.EngineDeterministic; o.Parallelism = 1 })
	if err != nil {
		return err
	}
	detSmall, detBulk, counters, err := engine(func(o *dynppr.Options) { o.Engine = dynppr.EngineDeterministic; o.Parallelism = 0 })
	if err != nil {
		return err
	}
	ly["push.seq_batch_ms"] = ms(seqBulk)
	ly["push.seq_small_batch_ms"] = ms(seqSmall)
	ly["push.paropt_batch_ms"] = ms(parBulk)
	ly["push.mean_frontier"] = counters.MeanFrontier()
	ly["parallel.det_p1_batch_ms"] = ms(det1Bulk)
	ly["parallel.det_pn_batch_ms"] = ms(detBulk)
	ly["parallel.det_small_batch_ms"] = ms(detSmall)
	// Above 1: the deterministic parallel engine at nproc beats the
	// sequential push on the same batch.
	ly["parallel.speedup_vs_seq"] = float64(seqBulk) / float64(detBulk)
	ly["parallel.small_speedup_vs_seq"] = float64(seqSmall) / float64(detSmall)

	// Snapshot publication and the Top-K index, on one push state.
	g := base.Clone()
	st, err := push.NewState(g, heavy, push.Config{Alpha: alpha, Epsilon: epsilon})
	if err != nil {
		return err
	}
	eng := push.NewSequential()
	eng.Run(st, []graph.VertexID{heavy})
	slot := push.NewSnapshotSlotTopK(push.DefaultTopKCap)
	slot.Publish(st)
	var publish []time.Duration
	for _, o := range small {
		touched := make([]graph.VertexID, 0, len(o.batch))
		for _, u := range o.batch {
			apply := st.ApplyInsert
			if u.Op == dynppr.Delete {
				apply = st.ApplyDelete
			}
			if changed, err := apply(u.U, u.V); err == nil && changed {
				touched = append(touched, u.U)
			}
		}
		eng.Run(st, touched)
		publish = append(publish, timeOf(func() { slot.Publish(st) }))
	}
	ly["push.publish_us"] = us(median(publish))
	snap := slot.Acquire()
	var buf []push.VertexScore
	total := timeOf(func() {
		for i := 0; i < probeCalls; i++ {
			buf = snap.AppendTopK(buf[:0], topK)
		}
	})
	snap.Release()
	ly["push.topk_index_ns"] = float64(total) / probeCalls
	return nil
}

// probeStorage times the graph store and the cold push on it.
func (r *run) probeStorage(ly values, small []op, fresh []dynppr.VertexID) error {
	g := dynppr.GraphFromEdges(r.fx.initial)
	var view []time.Duration
	for _, o := range small {
		o.batch.Apply(g)
		view = append(view, timeOf(func() { g.View() }))
	}
	ly["graph.view_us"] = us(median(view))
	var csr *graph.CSR
	ly["graph.snapshot_ms"] = ms(minOf(timesOf(3, func(int) { csr = g.Snapshot() })))
	ly["graph.compact_ms"] = ms(timeOf(g.Compact)) // on the deltas of the batches above

	cfg := push.Config{Alpha: alpha, Epsilon: onDemandEpsilon}
	var perr error
	alloc := totalAlloc()
	lat := timesOf(len(fresh), func(i int) {
		if _, err := push.ColdPushCSR(csr, fresh[i], cfg, 4_000_000); err != nil && perr == nil {
			perr = err
		}
	})
	ly["push.coldpush_alloc_kb"] = float64(totalAlloc()-alloc) / 1024 / float64(len(fresh))
	ly["push.coldpush_ms"] = ms(median(lat))
	return perr
}

// probeDurability times the journal under both fsync policies and the
// checkpoint codec on the base checkpoint. This is the one place the real
// fsync of the sandbox disk is measured.
func (r *run) probeDurability(ly values, rep *report) error {
	writes := r.sc.writes()
	path := filepath.Join(r.tmp, "probe-wal.log")
	defer os.Remove(path)
	// appendAll journals ops under one policy into a fresh log and returns
	// the median append time of the 100-update batches, the log's size and
	// the updates it holds.
	appendAll := func(sync wal.SyncPolicy, ops []op) (time.Duration, int64, int, error) {
		os.Remove(path)
		log, _, err := wal.OpenOrCreate(path, 0, wal.Options{Sync: sync})
		if err != nil {
			return 0, 0, 0, err
		}
		var small []time.Duration
		updates := 0
		for _, o := range ops {
			t := time.Now()
			if _, err := log.AppendBatch(o.batch); err != nil {
				log.Close()
				return 0, 0, 0, err
			}
			if o.kind == kindSmall {
				small = append(small, time.Since(t))
			}
			updates += len(o.batch)
		}
		size := log.Size()
		return median(small), size, updates, log.Close()
	}
	always, _, _, err := appendAll(wal.SyncAlways, writes[:min(probeFsyncs, len(writes))])
	if err != nil {
		return err
	}
	ly["wal.append_always_us"] = us(always)
	// wal.append_none_us comes from the depth replay; the full journal under
	// the same policy gives the size and scan figures.
	_, size, updates, err := appendAll(wal.SyncNone, writes)
	if err != nil {
		return err
	}
	ly["wal.bytes_per_update"] = float64(size) / float64(updates)
	var serr error
	ly["wal.scan_ms"] = ms(minOf(timesOf(3, func(int) {
		if _, _, _, err := wal.ScanFile(path); err != nil {
			serr = err
		}
	})))
	if serr != nil {
		return serr
	}

	ckptPath := filepath.Join(r.base, "checkpoint")
	var data *ckpt.Data
	var cerr error
	load := minOf(timesOf(3, func(int) {
		data, cerr = ckpt.LoadFile(ckptPath)
	}))
	if cerr != nil {
		return cerr
	}
	var image []byte
	ly["ckpt.load_ms"] = ms(load)
	ly["ckpt.encode_ms"] = ms(minOf(timesOf(3, func(int) { image, cerr = ckpt.Encode(data) })))
	if cerr != nil {
		return cerr
	}
	tmp := filepath.Join(r.tmp, "probe-checkpoint")
	defer os.Remove(tmp)
	ly["ckpt.write_ms"] = ms(minOf(timesOf(3, func(int) {
		if err := ckpt.WriteFile(tmp, data); err != nil {
			cerr = err
		}
	})))
	if cerr != nil {
		return cerr
	}
	ly["ckpt.bytes_per_edge"] = float64(len(image)) / float64(data.CSR.NumEdges())
	// The share of recovery that is not loading the checkpoint: replaying
	// the WAL suffix and writing the checkpoint that ends every boot.
	if rec := rep.e2e["recover_s"]; rec > 0 {
		ly["persist.replay_share"] = max(0, (rec-load.Seconds())/rec)
	}
	return nil
}

// probeServer times a /metrics scrape with every source tracked and the
// cost of recording spans around a closed-loop read phase.
func (r *run) probeServer(ly values) error {
	dir := filepath.Join(r.tmp, "probe-server")
	defer os.RemoveAll(dir)
	nd, err := bootCopy(r.base, dir)
	if err != nil {
		return err
	}
	defer nd.stop()
	cn := nd.client()
	var serr error
	ly["httpapi.metrics_scrape_ms"] = ms(median(timesOf(20, func(int) {
		if _, err := cn.Metrics(); err != nil {
			serr = err
		}
	})))
	if serr != nil {
		return serr
	}

	// trace.overhead_share: the same reads with and without a span recorded
	// around each, in alternating rounds; the median of the rounds' ratios,
	// because a round's two halves are a second apart and see the same box.
	t := &tally{}
	conns := []*conn{newConn(nd, t), newConn(nd, t)}
	lists := make([][]op, clients)
	for c := range lists {
		lists[c] = r.sc.warmReads
		if len(r.sc.reads) > c {
			lists[c] = r.sc.reads[c][:min(len(r.sc.reads[c]), 8000)]
		}
	}
	spans := make([][]span, clients)
	record := func(c, i int, s sample) {
		spans[c] = append(spans[c], span{
			Trace: i, Name: depthWire, Kind: s.kind.String(),
			Start: (s.end - s.lat).Nanoseconds(), End: s.end.Nanoseconds(),
		})
	}
	var ratios []float64
	for round := 0; round < 5; round++ {
		_, plain := closedLoop(conns, lists, nil)
		_, traced := closedLoop(conns, lists, record)
		ratios = append(ratios, traced.Seconds()/plain.Seconds())
	}
	if err := t.err(); err != nil {
		return fmt.Errorf("overhead probe: %w", err)
	}
	ly["trace.overhead_share"] = medianFloat(ratios) - 1
	return nil
}
