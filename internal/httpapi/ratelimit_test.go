package httpapi

import (
	"strconv"
	"testing"
	"time"
)

// TestRateLimiterEvictsLeastRecentlySeen fills the client table, sees the
// oldest client again, and admits one new client: exactly the least
// recently seen client leaves the table, and the one seen again keeps its
// spent bucket.
func TestRateLimiterEvictsLeastRecentlySeen(t *testing.T) {
	rl := newRateLimiter(1, 1)
	now := time.Unix(0, 0)
	for i := range maxBuckets {
		if ok, _ := rl.allow(strconv.Itoa(i), now); !ok {
			t.Fatalf("fresh client %d rejected", i)
		}
	}
	// Client 0 has spent its one token: seeing it again is a rejection, and
	// makes client 1 the least recently seen.
	if ok, _ := rl.allow("0", now); ok {
		t.Fatal("client 0 admitted on a spent bucket")
	}
	if ok, _ := rl.allow("new", now); !ok {
		t.Fatal("new client rejected")
	}
	if got := len(rl.buckets); got != maxBuckets {
		t.Fatalf("table holds %d buckets, want %d", got, maxBuckets)
	}
	if rl.buckets["1"] != nil {
		t.Fatal("least recently seen client 1 was not evicted")
	}
	for _, k := range []string{"0", "2", strconv.Itoa(maxBuckets - 1), "new"} {
		if rl.buckets[k] == nil {
			t.Fatalf("client %s evicted instead of client 1", k)
		}
	}
	if ok, _ := rl.allow("0", now); ok {
		t.Fatal("client 0 lost its spent bucket")
	}
}

// BenchmarkRateLimiterFreshKeys admits a new client key per request into a
// full table, the flood a new X-Client-ID per request produces: every call
// evicts a bucket.
func BenchmarkRateLimiterFreshKeys(b *testing.B) {
	rl := newRateLimiter(1, 1)
	now := time.Unix(0, 0)
	for i := range maxBuckets {
		rl.allow(strconv.Itoa(i), now)
	}
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = "fresh" + strconv.Itoa(i)
	}
	b.ResetTimer()
	for _, k := range keys {
		rl.allow(k, now)
	}
}
