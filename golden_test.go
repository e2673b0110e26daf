package dynppr

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Golden digests of TestGoldenDigest. They pin the bits a fixed persistent
// run produces — every source's estimates, and the checkpoint file byte for
// byte — so a change that was meant to be a refactor cannot move a bit
// without editing a constant here. The estimates after recovery equal the
// live ones (recovery replays the WAL tail through the same pipeline), and
// the live checkpoint carries its LSN and epochs, so the file digest differs
// from the one written by recovery.
const (
	goldenEstimates     = "9abc19f01e5cc7f5013896a9800d2395158c83f1ffb29e96b444be43d52070a9"
	goldenCheckpoint    = "7ee1da38f6378c2c21e36d56f60a8f96ebef11aa196f162ee47f8169e4322fa3"
	goldenRecoveredCkpt = "161a5ff3a938dd75d04a3c82fab5fbc406e9cd8e31663ec2684e39ff8f6d8330"
)

// TestGoldenDigest drives a fixed (graph, journal) through a persistent
// Service — batches, a compaction, a source add and a removal, a
// checkpoint, more batches — and recovers it from the data directory,
// replaying the WAL tail. It compares SHA-256 digests of the served
// estimates and of the checkpoint files against committed constants.
func TestGoldenDigest(t *testing.T) {
	initial, stream := windowWorkload(t, SyntheticConfig{Model: ModelRMAT, Vertices: 3000, Edges: 30000, Seed: 5}, 30, 50)
	so := ServiceOptions{Options: DefaultOptions(), PoolWorkers: 2}
	dir := filepath.Join(t.TempDir(), "data")
	svc, err := NewPersistentService(GraphFromEdges(initial), []VertexID{1, 7, 42}, so, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	apply := func(bs []Batch) {
		t.Helper()
		for _, b := range bs {
			if _, err := svc.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(stream[:10])
	if err := svc.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := svc.UpdateSources(context.Background(), []VertexID{100}, []VertexID{7}); err != nil {
		t.Fatal(err)
	}
	apply(stream[10:20])
	if _, err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckptLive := fileDigest(t, checkpointPath(dir))
	apply(stream[20:])
	live := estimatesDigest(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := NewServiceFromRecovery(so, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	recovered := estimatesDigest(t, rec)
	ckptRecovered := fileDigest(t, checkpointPath(dir))

	for _, c := range []struct{ name, got, want string }{
		{"live estimates", live, goldenEstimates},
		{"recovered estimates", recovered, goldenEstimates},
		{"checkpoint", ckptLive, goldenCheckpoint},
		{"recovery checkpoint", ckptRecovered, goldenRecoveredCkpt},
	} {
		if c.got != c.want {
			t.Errorf("%s digest %s, want %s", c.name, c.got, c.want)
		}
	}
}

// estimatesDigest hashes every tracked source's id and estimate bits, in
// ascending source order.
func estimatesDigest(t *testing.T, s *Service) string {
	t.Helper()
	h := sha256.New()
	for _, src := range s.Sources() {
		est, _, err := s.EstimatesInfo(src)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(src)))
		for _, x := range est {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fileDigest hashes the file at path.
func fileDigest(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
