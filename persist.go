package dynppr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dynppr/internal/ckpt"
	"dynppr/internal/faultfs"
	"dynppr/internal/graph"
	"dynppr/internal/push"
	"dynppr/internal/wal"
)

// Durable serving: a persistent Service journals every mutation to a
// write-ahead log and periodically serializes its whole state — graph,
// source set, converged per-source push states — to a checkpoint, so a
// crashed or restarted server resumes from exactly where it stopped instead
// of re-ingesting the world.
//
// The data directory holds two files:
//
//	checkpoint  the latest complete state snapshot (atomic-rename replaced)
//	wal.log     mutations journaled since that snapshot
//
// Recovery loads the checkpoint, replays the WAL suffix past the
// checkpoint's sequence number through the mutation path live writes take
// (so each replayed batch converges exactly as it originally did), and
// re-checkpoints.
// The recovered estimates, residuals and snapshot epochs are bit-identical to
// a process of the same build that never crashed, because the checkpoint
// holds the edge set, whose sorted adjacency lists fix the push order and
// floating-point summation order of subsequent pushes, and the snapshot
// epochs it had published. Promotion marks survive too: the WAL journals a
// promotion as its own record and the checkpoint stores the mark.

// SyncPolicy selects when WAL appends reach stable storage; see the wal
// package for the exact guarantees.
type SyncPolicy = wal.SyncPolicy

// WAL fsync policies.
const (
	// SyncAlways fsyncs every append: acknowledged mutations survive power
	// loss. The durable default.
	SyncAlways = wal.SyncAlways
	// SyncNone leaves flushing to the OS: faster, but an OS crash can lose
	// the most recently acknowledged mutations (never corrupting the
	// recoverable prefix).
	SyncNone = wal.SyncNone
)

// ParseSyncPolicy parses the -fsync flag values "always" and "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("dynppr: unknown fsync policy %q (want \"always\" or \"none\")", s)
	}
}

// PersistOptions configure the durability layer of a Service.
type PersistOptions struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Sync is the WAL fsync policy.
	Sync SyncPolicy
	// FS overrides the filesystem the durability layer writes through; nil
	// selects the real one. Tests route this to a faultfs.Injector.
	FS faultfs.FS
	// ProbeBackoff is the delay before the first recovery probe after
	// persistence degrades; each failed probe doubles it (with ±25% jitter)
	// up to a 30s ceiling. Zero selects 250ms, what the daemon runs; the
	// fault suites shorten it to milliseconds.
	ProbeBackoff time.Duration
	// ProbeMax caps consecutive failed recovery probes before the service
	// gives up and fails persistence permanently. Zero selects 64, what the
	// daemon runs; a negative value probes forever. The probe-cap suite
	// lowers it.
	ProbeMax int
}

func (po PersistOptions) fsys() faultfs.FS {
	if po.FS != nil {
		return po.FS
	}
	return faultfs.OS
}

// ErrNoPersistence is returned by Checkpoint on a service built without a
// data directory.
var ErrNoPersistence = errors.New("dynppr: service has no persistence configured")

// Degraded-mode errors. Both wrap the classified I/O error that caused the
// transition; match them with errors.Is.
var (
	// ErrPersistenceDegraded rejects mutations while persistence is
	// degraded: a journal or checkpoint write failed with a transient
	// error, the mutation had no effect, and a background recovery probe
	// is scheduled. Reads keep serving; retry the write after the probe.
	ErrPersistenceDegraded = errors.New("dynppr: persistence degraded: writes temporarily rejected while recovery probes run")
	// ErrPersistenceFailed rejects mutations once persistence has failed
	// permanently — a permanent-class I/O error (read-only filesystem,
	// permission loss) or the probe-attempt cap. Reads keep serving;
	// mutations stay disabled until the process is restarted against
	// repaired storage.
	ErrPersistenceFailed = errors.New("dynppr: persistence failed permanently: mutations disabled")
)

// PersistState is the durability layer's health: the write path is governed
// by a three-state machine instead of a sticky error, so transient storage
// trouble (ENOSPC, an fsync hiccup) degrades service instead of permanently
// disabling writes.
type PersistState int32

const (
	// PersistHealthy: mutations journal and checkpoint normally.
	PersistHealthy PersistState = iota
	// PersistDegraded: a write failed with a transient error. Reads keep
	// serving from converged snapshots, mutations are rejected with
	// ErrPersistenceDegraded (zero partial effect), and a background probe
	// with exponential backoff re-checkpoints, rotates the WAL onto a
	// fresh file, verifies both by re-reading them, and returns the
	// service to PersistHealthy without a restart.
	PersistDegraded
	// PersistFailed: a permanent-class error or too many failed probes.
	// Mutations are rejected with ErrPersistenceFailed until restart.
	PersistFailed
)

// persistStateNames spells each state for String and the text encoding.
var persistStateNames = [...]string{PersistHealthy: "healthy", PersistDegraded: "degraded", PersistFailed: "failed"}

// String names the state ("healthy"/"degraded"/"failed").
func (st PersistState) String() string {
	if st >= 0 && int(st) < len(persistStateNames) {
		return persistStateNames[st]
	}
	return fmt.Sprintf("PersistState(%d)", int32(st))
}

// MarshalText encodes the state as its name.
func (st PersistState) MarshalText() ([]byte, error) {
	return []byte(st.String()), nil
}

// UnmarshalText decodes a state name written by MarshalText.
func (st *PersistState) UnmarshalText(text []byte) error {
	for s, name := range persistStateNames {
		if name == string(text) {
			*st = PersistState(s)
			return nil
		}
	}
	return fmt.Errorf("dynppr: unknown persistence state %q", text)
}

// Recovery-probe scheduling defaults.
const (
	defaultProbeBackoff = 250 * time.Millisecond
	maxProbeBackoff     = 30 * time.Second
	defaultProbeMax     = 64
)

// persistPermanent classifies an I/O error: permanent errors (read-only
// filesystem, revoked permissions) fail persistence immediately — probing
// cannot fix them — while everything else (ENOSPC, EIO, fsync hiccups) is
// treated as transient and probed.
func persistPermanent(err error) bool {
	return errors.Is(err, syscall.EROFS) ||
		errors.Is(err, syscall.EPERM) ||
		errors.Is(err, syscall.EACCES)
}

func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint") }
func walPath(dir string) string        { return filepath.Join(dir, "wal.log") }

// CheckpointExists reports whether dir holds a checkpoint to recover from —
// the discriminator daemons use between a fresh start and a recovery boot.
func CheckpointExists(dir string) bool {
	_, err := os.Stat(checkpointPath(dir))
	return err == nil
}

// sweepTmpFiles removes *.tmp leftovers from the data directory at boot.
// Every in-process failure path already cleans its own temp file, but a
// crash between a temp write and its rename (or a kill -9 mid-degraded
// episode) can strand one; sweeping at boot keeps them from accumulating.
// Best-effort: a sweep failure never blocks a boot.
func sweepTmpFiles(fs faultfs.FS, dir string) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			_ = fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// persistence is the durability state attached to a Service. The log and
// the degraded-mode machinery (lastErr, attempts, probeTimer) are
// pipeline-owned; the atomic mirrors feed Stats and the cheap
// PersistenceHealth accessor. The probe timer's callback only calls
// Service.admit, so the pipeline-owned fields are never touched off the
// pipeline goroutine.
type persistence struct {
	dir string
	fs  faultfs.FS
	log *wal.Log

	// Pipeline-owned degraded-mode machinery.
	lastErr      error // classified error behind the current non-healthy state
	attempts     int   // consecutive failed heal attempts
	probeBackoff time.Duration
	probeMax     int // 0 = probe forever
	probeTimer   *time.Timer
	rng          *rand.Rand // probe jitter

	// Atomic mirrors for Stats/health readers.
	state          atomic.Int32
	nextLSN        atomic.Uint64
	ckptLSN        atomic.Uint64
	checkpoints    atomic.Int64
	lastErrMsg     atomic.Pointer[string]
	nextProbeAt    atomic.Int64 // unix nanos of the next scheduled probe; 0 = none
	probeAttempts  atomic.Int64
	probeSuccesses atomic.Int64
	degradedSince  atomic.Int64 // unix nanos the current degraded window opened; 0 = not degraded
	degradedNanos  atomic.Int64 // cumulative completed degraded time
}

func (p *persistence) stateNow() PersistState { return PersistState(p.state.Load()) }

// rejectErr is the error mutations are rejected with while not healthy.
func (p *persistence) rejectErr() error {
	sentinel := ErrPersistenceDegraded
	if p.stateNow() == PersistFailed {
		sentinel = ErrPersistenceFailed
	}
	if p.lastErr == nil {
		return sentinel
	}
	// Both the sentinel and the classified cause stay matchable with
	// errors.Is: callers branch on the sentinel, tests and operators on the
	// underlying errno class.
	return fmt.Errorf("%w: %w", sentinel, p.lastErr)
}

// backoff computes the next probe delay: probeBackoff doubled per failed
// attempt, capped at 30s, with ±25% jitter so a fleet degraded by the same
// event does not probe in lockstep.
func (p *persistence) backoff() time.Duration {
	d := p.probeBackoff
	for i := 0; i < p.attempts && d < maxProbeBackoff; i++ {
		d *= 2
	}
	if d > maxProbeBackoff {
		d = maxProbeBackoff
	}
	jitter := 1 + (p.rng.Float64()-0.5)/2
	return time.Duration(float64(d) * jitter)
}

func (p *persistence) stopProbe() {
	if p.probeTimer != nil {
		p.probeTimer.Stop()
		p.probeTimer = nil
	}
	p.nextProbeAt.Store(0)
}

// closeDegradedWindow folds the open degraded window, if any, into the
// cumulative counter.
func (p *persistence) closeDegradedWindow() {
	if since := p.degradedSince.Swap(0); since > 0 {
		p.degradedNanos.Add(time.Now().UnixNano() - since)
	}
}

func (p *persistence) close() error {
	p.stopProbe()
	return p.log.Close()
}

// degradePersistence is the single entry point out of PersistHealthy: it
// classifies err, transitions to PersistDegraded (scheduling a recovery
// probe) or PersistFailed (permanent error, or the probe cap is exhausted),
// and returns the error the triggering mutation is rejected with. Runs on
// the pipeline goroutine.
func (s *Service) degradePersistence(p *persistence, err error) error {
	p.lastErr = err
	msg := err.Error()
	p.lastErrMsg.Store(&msg)
	if persistPermanent(err) || (p.probeMax > 0 && p.attempts >= p.probeMax) {
		p.stopProbe()
		p.closeDegradedWindow()
		p.state.Store(int32(PersistFailed))
		return p.rejectErr()
	}
	if p.stateNow() != PersistDegraded {
		p.degradedSince.Store(time.Now().UnixNano())
		p.state.Store(int32(PersistDegraded))
	}
	s.schedulePersistProbe(p)
	return p.rejectErr()
}

// schedulePersistProbe (re)arms the recovery-probe timer. The timer callback
// runs off-pipeline and only admits the probe onto the pipeline; if the
// service closes first, admission fails and the callback exits.
func (s *Service) schedulePersistProbe(p *persistence) {
	d := p.backoff()
	p.nextProbeAt.Store(time.Now().Add(d).UnixNano())
	if p.probeTimer != nil {
		p.probeTimer.Stop()
	}
	p.probeTimer = time.AfterFunc(d, func() {
		_ = s.admit(context.Background(), task{fn: func() { s.persistProbe(p) }})
	})
}

// persistProbe is one background heal attempt, on the pipeline.
func (s *Service) persistProbe(p *persistence) {
	if p.stateNow() != PersistDegraded {
		return // healed by a manual Checkpoint, or already failed
	}
	p.probeAttempts.Add(1)
	if err := s.tryHealPersistence(p); err != nil {
		p.attempts++
		_ = s.degradePersistence(p, err)
	}
}

// tryHealPersistence runs the full recovery sequence on the pipeline: a
// verified checkpoint-and-rotate (see writeCheckpoint), and only then the
// transition back to healthy. The checkpoint holds exactly the acknowledged
// mutations — journaling failures reject before applying, so memory never
// runs ahead of the journal. A checkpoint that landed in an earlier
// partially-successful attempt is simply rewritten: no mutations are
// accepted while degraded, so the state (and its LSN) cannot have moved.
func (s *Service) tryHealPersistence(p *persistence) error {
	lsn, err := s.writeCheckpoint(p, true)
	if err != nil {
		return err
	}
	p.healed(lsn)
	return nil
}

// writeCheckpoint is the one write-then-rotate sequence: it writes a
// checkpoint of the current state covering the WAL's next LSN, atomically
// replacing the previous one, then rotates the WAL onto a fresh file behind
// it, and returns that LSN. verify, on the heal path, also re-reads and
// decodes the checkpoint before the rotation and self-checks the fresh WAL
// file after it. Runs on the pipeline.
func (s *Service) writeCheckpoint(p *persistence, verify bool) (uint64, error) {
	lsn := p.log.NextLSN()
	path := checkpointPath(p.dir)
	if err := ckpt.WriteFileFS(p.fs, path, s.checkpointData(lsn)); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	if verify {
		back, err := ckpt.LoadFileFS(p.fs, path)
		if err != nil {
			return 0, fmt.Errorf("checkpoint verify: %w", err)
		}
		if back.LSN != lsn {
			return 0, fmt.Errorf("checkpoint verify: covers LSN %d, want %d", back.LSN, lsn)
		}
	}
	if err := p.log.Rotate(lsn); err != nil {
		return 0, fmt.Errorf("wal rotate: %w", err)
	}
	if verify {
		if err := p.log.SelfCheck(); err != nil {
			return 0, fmt.Errorf("wal verify: %w", err)
		}
	}
	return lsn, nil
}

// healed transitions back to PersistHealthy after a verified heal.
func (p *persistence) healed(lsn uint64) {
	p.ckptLSN.Store(lsn)
	p.nextLSN.Store(lsn)
	p.checkpoints.Add(1)
	p.probeSuccesses.Add(1)
	p.attempts = 0
	p.lastErr = nil
	p.lastErrMsg.Store(nil)
	p.stopProbe()
	p.closeDegradedWindow()
	p.state.Store(int32(PersistHealthy))
}

// PersistenceHealth is the cheap (atomic-reads-only) view of the durability
// state machine, fit for hot paths like /healthz and write rejection
// mapping — unlike Stats, it never walks the source table.
type PersistenceHealth struct {
	// State is the current durability state.
	State PersistState `json:"state"`
	// NextProbe is the time until the next scheduled recovery probe; zero
	// when none is pending. HTTP front ends derive Retry-After from it.
	NextProbe time.Duration `json:"next_probe_ns,omitempty"`
	// Err is the classified error behind a non-healthy state; empty while
	// healthy.
	Err string `json:"failed,omitempty"`
}

// health reads the state machine's atomic mirrors.
func (p *persistence) health() PersistenceHealth {
	h := PersistenceHealth{State: p.stateNow()}
	if msg := p.lastErrMsg.Load(); msg != nil {
		h.Err = *msg
	}
	if at := p.nextProbeAt.Load(); at != 0 {
		if d := time.Until(time.Unix(0, at)); d > 0 {
			h.NextProbe = d
		}
	}
	return h
}

// PersistenceHealth reports the durability layer's state machine; ok is
// false on a service without persistence configured.
func (s *Service) PersistenceHealth() (PersistenceHealth, bool) {
	p := s.persist.Load()
	if p == nil {
		return PersistenceHealth{}, false
	}
	return p.health(), true
}

// PersistenceStats reports the durability layer's state inside ServiceStats.
type PersistenceStats struct {
	// Dir is the data directory.
	Dir string `json:"dir"`
	// Sync names the WAL fsync policy.
	Sync string `json:"sync"`
	PersistenceHealth
	// NextLSN is the sequence number the next journaled mutation will
	// receive — the total number of mutations journaled over the service's
	// lifetime, rotations included.
	NextLSN uint64 `json:"next_lsn"`
	// LastCheckpointLSN is the sequence number covered by the most recent
	// checkpoint; NextLSN − LastCheckpointLSN mutations would replay on a
	// crash right now.
	LastCheckpointLSN uint64 `json:"last_checkpoint_lsn"`
	// Checkpoints counts completed Checkpoint calls (the construction-time
	// one included) and successful recovery probes.
	Checkpoints int64 `json:"checkpoints"`
	// ProbeAttempts counts recovery heal attempts (background probes and
	// manual Checkpoint calls while degraded).
	ProbeAttempts int64 `json:"probe_attempts,omitempty"`
	// ProbeSuccesses counts heals that returned the service to healthy.
	ProbeSuccesses int64 `json:"probe_successes,omitempty"`
	// DegradedSeconds is the cumulative time spent degraded over the
	// service's lifetime, the currently open window included.
	DegradedSeconds float64 `json:"degraded_seconds,omitempty"`
}

func (s *Service) persistenceStats() *PersistenceStats {
	p := s.persist.Load()
	if p == nil {
		return nil
	}
	deg := p.degradedNanos.Load()
	if since := p.degradedSince.Load(); since > 0 {
		deg += time.Now().UnixNano() - since
	}
	return &PersistenceStats{
		Dir:               p.dir,
		Sync:              p.log.Policy().String(),
		PersistenceHealth: p.health(),
		NextLSN:           p.nextLSN.Load(),
		LastCheckpointLSN: p.ckptLSN.Load(),
		Checkpoints:       p.checkpoints.Load(),
		ProbeAttempts:     p.probeAttempts.Load(),
		ProbeSuccesses:    p.probeSuccesses.Load(),
		DegradedSeconds:   time.Duration(deg).Seconds(),
	}
}

// journal is the write-ahead step of the mutation path; Service.commit is
// its one caller: it appends rec on the pipeline goroutine before rec is
// applied. It is a no-op on an in-memory service. An append failure
// degrades (or, for permanent errors, fails) persistence and rejects the
// record — the in-memory state never runs ahead of what recovery can
// reconstruct, and no further append touches the current WAL file before
// the recovery probe rotates onto a fresh one.
func (s *Service) journal(rec wal.Record) error {
	p := s.persist.Load()
	if p == nil {
		return nil
	}
	if p.stateNow() != PersistHealthy {
		return p.rejectErr()
	}
	if _, err := p.log.Append(rec); err != nil {
		return s.degradePersistence(p, err)
	}
	p.nextLSN.Store(p.log.NextLSN())
	return nil
}

// Checkpoint serializes the service's entire state — graph, source set,
// every source's converged estimates/residuals and snapshot epoch — to the
// data directory, atomically replacing the previous checkpoint, and rotates
// the WAL to a fresh file covered by it. It runs on the write pipeline, so
// it observes a quiescent state between batches; readers are never blocked.
// It returns the WAL sequence number the checkpoint covers.
func (s *Service) Checkpoint() (uint64, error) {
	return onPipeline(context.Background(), s, s.doCheckpoint)
}

func (s *Service) doCheckpoint() (uint64, error) {
	p := s.persist.Load()
	if p == nil {
		return 0, ErrNoPersistence
	}
	switch p.stateNow() {
	case PersistFailed:
		return 0, p.rejectErr()
	case PersistDegraded:
		// A manual checkpoint while degraded doubles as an immediate
		// recovery probe: heal now or report why not.
		p.probeAttempts.Add(1)
		if err := s.tryHealPersistence(p); err != nil {
			p.attempts++
			return 0, s.degradePersistence(p, err)
		}
		return p.ckptLSN.Load(), nil
	}
	lsn, err := s.writeCheckpoint(p, false)
	if err != nil {
		return 0, s.degradePersistence(p, err)
	}
	p.ckptLSN.Store(lsn)
	p.checkpoints.Add(1)
	return lsn, nil
}

// checkpointData captures the pipeline-quiescent state. Checkpointing is a
// quiescent point, so it first folds any delta segments into the immutable
// CSR base and then serializes that base's out arrays verbatim as a CSR
// image — no per-vertex adjacency walk. The CSR arrays alias the live base
// and the vectors alias each source's live state, which is safe because the
// base never mutates in place and ckpt.WriteFile serializes both before this
// pipeline step completes — no mutation or push can run until then.
func (s *Service) checkpointData(lsn uint64) *ckpt.Data {
	s.compactInline()
	data := &ckpt.Data{
		LSN:     lsn,
		Alpha:   s.opts.Options.Alpha,
		Epsilon: s.opts.Options.Epsilon,
		CSR:     s.g.CompactedSnapshot(),
	}
	table := *s.table.Load()
	for _, source := range s.Sources() { // ascending, as the format requires
		src := table[source]
		p, r := src.st.Vectors()
		data.Sources = append(data.Sources, ckpt.Source{
			Source:    src.source,
			Epoch:     src.slot.Epoch(),
			Auto:      src.auto.Load(),
			Estimates: p,
			Residuals: r,
		})
	}
	return data
}

// NewPersistentService is NewService plus durability: the data directory is
// initialized with a checkpoint of the cold-started state and an empty WAL,
// and every subsequent mutation is journaled. The directory must not already
// hold a checkpoint — recover one with NewServiceFromRecovery instead.
func NewPersistentService(g *Graph, sources []VertexID, so ServiceOptions, po PersistOptions) (*Service, error) {
	if po.Dir == "" {
		return nil, fmt.Errorf("dynppr: PersistOptions.Dir is required")
	}
	if err := os.MkdirAll(po.Dir, 0o755); err != nil {
		return nil, err
	}
	if CheckpointExists(po.Dir) {
		return nil, fmt.Errorf("dynppr: %s already holds a checkpoint; recover it with NewServiceFromRecovery", po.Dir)
	}
	sweepTmpFiles(po.fsys(), po.Dir)
	log, stale, err := wal.OpenOrCreate(walPath(po.Dir), 0, wal.Options{Sync: po.Sync, FS: po.FS})
	if err != nil {
		return nil, err
	}
	if len(stale) > 0 {
		log.Close()
		return nil, fmt.Errorf("dynppr: %s holds a WAL with %d records but no checkpoint to anchor them", po.Dir, len(stale))
	}
	svc, err := NewService(g, sources, so)
	if err != nil {
		log.Close()
		return nil, err
	}
	return finishPersistentBoot(svc, po, log, true)
}

// NewServiceFromRecovery rebuilds a persistent Service from its data
// directory: the latest checkpoint is loaded, the WAL suffix past its
// sequence number is replayed through the ordinary write pipeline (torn
// final records — mutations never acknowledged as durable — are discarded),
// and a fresh checkpoint is written before the service is returned. The
// scheme parameters (α, ε) are restored from the checkpoint; the pool
// options come from so. Snapshot epochs resume exactly where the
// recovered state left them, so they never regress across a restart.
// Restored states carry a poisoned estimate-dirty set (see
// push.RestoreState), so the reseed's first publications are full copies
// and rebuild each source's Top-K index from scratch — delta history from
// the previous process is never trusted.
func NewServiceFromRecovery(so ServiceOptions, po PersistOptions) (*Service, error) {
	sweepTmpFiles(po.fsys(), po.Dir)
	data, err := ckpt.LoadFileFS(po.fsys(), checkpointPath(po.Dir))
	if err != nil {
		return nil, err
	}
	// Adopt the decoded CSR image as the graph's immutable base segment
	// directly: recovery does no per-edge work.
	g := graph.FromCSR(data.CSR)
	so.Options.Alpha = data.Alpha
	so.Options.Epsilon = data.Epsilon
	cfg := push.Config{Alpha: data.Alpha, Epsilon: data.Epsilon}
	sources := make([]VertexID, len(data.Sources))
	states := make([]*push.State, len(data.Sources))
	epochs := make([]uint64, len(data.Sources))
	for i, cs := range data.Sources {
		st, err := push.RestoreState(g, cs.Source, cfg, cs.Estimates, cs.Residuals)
		if err != nil {
			return nil, fmt.Errorf("dynppr: recovering source %d: %w", cs.Source, err)
		}
		sources[i], states[i], epochs[i] = cs.Source, st, cs.Epoch
	}

	// Open the WAL before attaching it: a torn tail is truncated here, and
	// the surviving records are replayed below. A missing or torn-header
	// file recreates an empty log based at the checkpoint's LSN.
	log, records, err := wal.OpenOrCreate(walPath(po.Dir), data.LSN, wal.Options{Sync: po.Sync, FS: po.FS})
	if err != nil {
		return nil, err
	}
	if log.BaseLSN() > data.LSN {
		log.Close()
		return nil, fmt.Errorf("dynppr: WAL starts at LSN %d but the checkpoint only covers %d: records are missing",
			log.BaseLSN(), data.LSN)
	}

	svc, err := newService(g, so, sources, states, epochs)
	if err != nil {
		log.Close()
		return nil, err
	}
	// Promotion marks come back in ascending source order, each with the
	// next tick of the recency clock, so which restored source a later
	// promotion evicts first does not depend on timing.
	table := *svc.table.Load()
	for _, cs := range data.Sources {
		if cs.Auto {
			table[cs.Source].auto.Store(true)
			table[cs.Source].lastUse.Store(svc.tick.Add(1))
		}
	}
	// Replay the suffix past the checkpoint through the mutation path that
	// wrote it: each batch restores invariants and converges exactly as it
	// originally did. Journaling is not yet attached, so replay does not
	// re-journal.
	replayed := 0
	for _, rec := range records {
		if rec.LSN < data.LSN {
			continue // covered by the checkpoint (crash between rename and rotate)
		}
		replayed++
		if _, rerr := svc.mutate(context.Background(), []wal.Record{rec}, false); rerr != nil {
			svc.Close()
			log.Close()
			return nil, fmt.Errorf("dynppr: replaying WAL record %d: %w", rec.LSN, rerr)
		}
	}
	// A clean restart — nothing replayed, WAL already rotated to the
	// checkpoint's LSN — would re-serialize a byte-identical checkpoint;
	// skip that write. Any other shape re-checkpoints so the on-disk pair
	// reflects exactly the state being served.
	checkpoint := replayed > 0 || log.BaseLSN() != data.LSN || log.NextLSN() != data.LSN
	return finishPersistentBoot(svc, po, log, checkpoint)
}

// finishPersistentBoot attaches the journal to a fully constructed service
// and (unless the loaded checkpoint already covers the exact current state)
// writes a checkpoint covering everything journaled or replayed so far,
// rotating the WAL behind it. Both boot paths end here, which keeps the
// on-disk invariant simple: a returned persistent service always has a
// checkpoint of its exact current state and an empty journal.
func finishPersistentBoot(svc *Service, po PersistOptions, log *wal.Log, checkpoint bool) (*Service, error) {
	p := &persistence{
		dir:          po.Dir,
		fs:           po.fsys(),
		log:          log,
		probeBackoff: po.ProbeBackoff,
		probeMax:     po.ProbeMax,
		rng:          rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if p.probeBackoff <= 0 {
		p.probeBackoff = defaultProbeBackoff
	}
	switch {
	case p.probeMax == 0:
		p.probeMax = defaultProbeMax
	case p.probeMax < 0:
		p.probeMax = 0 // probe forever
	}
	p.nextLSN.Store(log.NextLSN())
	p.ckptLSN.Store(log.BaseLSN())
	svc.persist.Store(p)
	if checkpoint {
		if _, err := svc.Checkpoint(); err != nil {
			svc.Close() // closes the log via persistence
			return nil, err
		}
	}
	return svc, nil
}
