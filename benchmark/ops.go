package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"dynppr"
	"dynppr/internal/httpapi"
)

type opKind uint8

const (
	kindTopK     opKind = iota // GET /topk on a tracked source
	kindEstimate               // GET /estimate on a tracked source
	kindCold                   // GET /topk on an untracked source
	kindSmall                  // POST /edges, 100 updates
	kindBulk                   // POST /edges, 10 000 updates
	numKinds
)

var kindNames = [numKinds]string{"topk", "estimate", "cold", "small", "bulk"}

func (k opKind) String() string { return kindNames[k] }
func (k opKind) isWrite() bool  { return k == kindSmall || k == kindBulk }

// op is one request of a script.
type op struct {
	kind   opKind
	source dynppr.VertexID
	vertex dynppr.VertexID  // estimate target
	batch  dynppr.Batch     // write ops
	wire   []httpapi.Update // batch in wire form, converted before timing
	due    time.Duration    // open loop: offset from the phase start
}

// Warm ops are sent and discarded before the phases are timed.
const (
	warmReads  = 1000
	warmColds  = 20
	warmWrites = 10
)

// workload fixes the op counts of one repetition at scale 1.
type workload struct {
	name string
	why  string
	// Closed-loop phases. reads and colds are per connection, on
	// `clients` connections; writes always use one.
	reads, colds int
	small, bulk  int
	// Open-loop phase (serve-mixed): seconds at scale 1, a reader and a
	// writer connection on fixed schedules.
	openSeconds float64
	readerRate  float64 // requests/s
	writerRate  float64 // batches/s
	coldShare   float64 // share of reader requests on untracked sources
	zipfS       float64
	// primary names the phase cpu_s_per_kop, proc.alloc_mb_per_kop and
	// proc.rep_spread are taken from.
	primary phaseID
}

type phaseID uint8

const (
	phaseReads phaseID = iota
	phaseColds
	phaseWrites // small + bulk
	phaseOpen
)

const clients = 2 // never more than nproc on the reference box

// Every workload runs every kind of phase, because the contract has each run
// report every end-to-end metric; a workload is its mix. The phases a
// workload is about are long, the others are short fixed probes whose cells
// are the "should not move" controls of that workload.
var workloads = []workload{
	{
		name:  "read-tracked",
		why:   "tracked /topk and /estimate on 2 connections, nothing written meanwhile: all time in httpapi and snapshot reads; target for handler/JSON/alloc work, bypass for push and storage changes",
		reads: 24000, colds: 130, small: 80, bulk: 2, primary: phaseReads,
	},
	{
		name:  "cold-longtail",
		why:   "every request a distinct untracked source on a frozen graph: each op is a full cold push, where a local (not O(n)) push must show",
		reads: 4000, colds: 800, small: 80, bulk: 2, primary: phaseColds,
	},
	{
		name:  "write-stream",
		why:   "the paper's workload: sliding-window batches of 100 and of 10 000 updates, then WAL recovery; all time in the Service pipeline, push, graph, wal",
		reads: 4000, colds: 130, small: 240, bulk: 3, primary: phaseWrites,
	},
	{
		name:        "serve-mixed",
		why:         "open loop, reader and writer on fixed schedules share two cores: cache invalidation and re-pin by writes, read-side gains bought with write-side cost",
		openSeconds: 3.5, readerRate: 1000, writerRate: 10, coldShare: 0.05, zipfS: 1.2,
		colds: 130, bulk: 2, primary: phaseOpen,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// script is the op sequence of one repetition; every repetition of a run
// replays the same script from the same base checkpoint.
type script struct {
	warmReads []op
	warmColds []op
	reads     [][]op // per connection
	colds     [][]op // per connection
	reader    []op   // open loop
	writer    []op   // open loop
	warmSmall []op
	small     []op
	bulk      []op
	verify    []dynppr.VertexID // 2 tracked + 2 cold sources for the oracle gate
	hash      uint64
}

func scaled(n int, scale float64, floor int) int {
	if n == 0 {
		return 0
	}
	return max(int(float64(n)*scale+0.5), floor)
}

// buildScript draws the op sequence of w from the fixture. The same
// (fixture, workload, scale) always gives the same script.
func buildScript(fx *fixture, w workload, scale float64) (*script, error) {
	rng := rand.New(rand.NewSource(fx.seed ^ 0x6f7073))
	sc := &script{}
	pool := fx.coldPool
	takeCold := func() (dynppr.VertexID, error) {
		if len(pool) == 0 {
			return 0, fmt.Errorf("workload %s at scale %.2f needs more distinct cold sources than the fixture has", w.name, scale)
		}
		v := pool[0]
		pool = pool[1:]
		return v, nil
	}
	tracked := func(i int) op {
		o := op{kind: kindTopK, source: fx.sources[i%len(fx.sources)]}
		if rng.Intn(5) == 0 { // 80 % /topk, 20 % /estimate
			o.kind = kindEstimate
			o.vertex = dynppr.VertexID(rng.Intn(fx.n))
		}
		return o
	}

	// The oracle gate's cold sources come first so they are never also a
	// measured cold query (which must miss the cache).
	sc.verify = append(sc.verify, fx.sources[0], fx.sources[len(fx.sources)/2])
	for i := 0; i < 2; i++ {
		v, err := takeCold()
		if err != nil {
			return nil, err
		}
		sc.verify = append(sc.verify, v)
	}
	for i := 0; i < warmReads; i++ {
		sc.warmReads = append(sc.warmReads, tracked(i))
	}
	for i := 0; i < warmColds; i++ {
		v, err := takeCold()
		if err != nil {
			return nil, err
		}
		sc.warmColds = append(sc.warmColds, op{kind: kindCold, source: v})
	}

	// At least 130 cold queries per connection: 260 distinct answers turn
	// over the whole 256-entry result cache.
	nReads, nColds := scaled(w.reads, scale, 200), max(scaled(w.colds, scale, 20), min(w.colds, 130))
	for c := 0; c < clients && nReads > 0; c++ {
		ops := make([]op, nReads)
		for i := range ops {
			ops[i] = tracked(c*nReads + i)
		}
		sc.reads = append(sc.reads, ops)
	}
	if nColds > 0 {
		// The set of sources is structural; the seed deals them to the
		// connections and orders them.
		all := make([]op, clients*nColds)
		for i := range all {
			v, err := takeCold()
			if err != nil {
				return nil, err
			}
			all[i] = op{kind: kindCold, source: v}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for c := 0; c < clients; c++ {
			sc.colds = append(sc.colds, all[c*nColds:(c+1)*nColds])
		}
	}

	win := fx.window()
	slide := func(kind opKind, k int) (op, error) {
		b := win.Slide(k)
		if len(b) != 2*k {
			return op{}, fmt.Errorf("workload %s at scale %.2f exhausts the %d-edge stream", w.name, scale, fx.stream.Len())
		}
		return op{kind: kind, batch: b, wire: httpapi.FromBatch(b)}, nil
	}
	slides := func(dst *[]op, kind opKind, k, count int) error {
		for i := 0; i < count; i++ {
			o, err := slide(kind, k)
			if err != nil {
				return err
			}
			*dst = append(*dst, o)
		}
		return nil
	}

	if err := slides(&sc.warmSmall, kindSmall, fx.sz.smallSlide, warmWrites); err != nil {
		return nil, err
	}
	if w.openSeconds > 0 {
		// At least half a second, so that a smoke run still sends writes.
		dur := max(time.Duration(w.openSeconds*scale*float64(time.Second)), 500*time.Millisecond)
		// Which slots of the schedule are cold queries, and for which
		// sources, is structural: cold-push cost is heavy-tailed, and 200
		// seeded Zipf draws moved cold_p50_ms between 2.5 and 5 ms and
		// cpu_s_per_kop by 20 % from seed to seed. The seed picks the tracked
		// source of every other slot.
		srng := rand.New(rand.NewSource(structureSeed ^ 0x7a697066))
		zipf := rand.NewZipf(srng, w.zipfS, 1, uint64(fx.sz.zipfDistinct-1))
		if len(pool) < fx.sz.zipfDistinct {
			return nil, fmt.Errorf("fixture has %d cold sources, Zipf needs %d", len(pool), fx.sz.zipfDistinct)
		}
		hot := pool[:fx.sz.zipfDistinct]
		nReader := int(w.readerRate * dur.Seconds())
		for i := 0; i < nReader; i++ {
			o := op{kind: kindTopK, source: fx.sources[rng.Intn(len(fx.sources))]}
			if srng.Float64() < w.coldShare {
				o = op{kind: kindCold, source: hot[zipf.Uint64()]}
			}
			o.due = time.Duration(float64(i) / w.readerRate * float64(time.Second))
			sc.reader = append(sc.reader, o)
		}
		nWriter := int(w.writerRate * dur.Seconds())
		if err := slides(&sc.writer, kindSmall, fx.sz.smallSlide, nWriter); err != nil {
			return nil, err
		}
		for i := range sc.writer {
			sc.writer[i].due = time.Duration(float64(i) / w.writerRate * float64(time.Second))
		}
	} else if err := slides(&sc.small, kindSmall, fx.sz.smallSlide, scaled(w.small, scale, 20)); err != nil {
		return nil, err
	}
	if err := slides(&sc.bulk, kindBulk, fx.sz.bulkSlide, scaled(w.bulk, scale, 1)); err != nil {
		return nil, err
	}
	sc.hash = sc.digest()
	return sc, nil
}

// writes lists every write op of a repetition in the order the server
// applies them.
func (sc *script) writes() []op {
	var out []op
	out = append(out, sc.warmSmall...)
	out = append(out, sc.writer...)
	out = append(out, sc.small...)
	return append(out, sc.bulk...)
}

// digest hashes every field of every op, so two scripts agree on it only if
// they send the same requests in the same order.
func (sc *script) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	list := func(ops []op) {
		put(uint64(len(ops)))
		for _, o := range ops {
			put(uint64(o.kind))
			put(uint64(o.source))
			put(uint64(o.vertex))
			put(uint64(o.due))
			put(uint64(len(o.batch)))
			for _, u := range o.batch {
				put(uint64(u.U)<<32 | uint64(uint32(u.V)))
				put(uint64(u.Op))
			}
		}
	}
	list(sc.warmReads)
	list(sc.warmColds)
	for _, c := range sc.reads {
		list(c)
	}
	for _, c := range sc.colds {
		list(c)
	}
	list(sc.reader)
	list(sc.writer)
	list(sc.warmSmall)
	list(sc.small)
	list(sc.bulk)
	for _, v := range sc.verify {
		put(uint64(v))
	}
	return h.Sum64()
}
