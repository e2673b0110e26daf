package httpapi

import (
	"container/list"
	"net"
	"net/http"
	"sync"
	"time"
)

// maxBuckets bounds the rate limiter's client table. When full, admitting a
// new client evicts the least recently seen bucket, so a scan of spoofed
// client IDs cannot grow memory without bound — it can only recycle
// buckets, which for unseen clients is equivalent to a fresh full bucket
// anyway. Eviction is O(1): a flood of fresh keys costs each request a map
// insert, never a scan of the table under the mutex.
const maxBuckets = 4096

// rateLimiter is a per-client token bucket. Each client earns rate tokens
// per second up to burst; a request spends one token or is rejected with
// the time until the next token as the suggested retry delay.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*list.Element
	lru     list.List // of *bucket, most recently seen at the front
}

type bucket struct {
	key    string
	tokens float64
	last   time.Time // last refill
}

// newRateLimiter returns nil when rate <= 0 (limiting disabled); a nil
// *rateLimiter admits everything.
func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*list.Element),
	}
}

// allow spends one token of key's bucket. On rejection it returns the delay
// after which one token will be available.
func (rl *rateLimiter) allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	if rl == nil {
		return true, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()

	var b *bucket
	if el := rl.buckets[key]; el == nil {
		if rl.lru.Len() >= maxBuckets {
			delete(rl.buckets, rl.lru.Remove(rl.lru.Back()).(*bucket).key)
		}
		b = &bucket{key: key, tokens: rl.burst, last: now}
		rl.buckets[key] = rl.lru.PushFront(b)
	} else {
		rl.lru.MoveToFront(el)
		b = el.Value.(*bucket)
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens += elapsed * rl.rate
			if b.tokens > rl.burst {
				b.tokens = rl.burst
			}
			b.last = now
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / rl.rate
	return false, time.Duration(need * float64(time.Second))
}

// clientKey identifies the client for rate limiting: the X-Client-ID header
// when present (lets load balancers and SDKs identify tenants behind shared
// NAT), otherwise the remote host without the ephemeral port.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return "id:" + id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "addr:" + r.RemoteAddr
	}
	return "addr:" + host
}
