package gateway

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Request coalescing: when many clients fetch the same key at the same
// consistency mode concurrently, only the first becomes the leader and
// performs the upstream read; the rest fan in on the leader's result.
// The win scales with the cost of the mode — a linearizable read orders
// a fence on the key's ring, so N concurrent fetches of a hot key cost
// one fence instead of N — and with the skew of the key popularity.
//
// The leader's upstream read runs on a detached context bounded by the
// gateway's upstream budget, NOT the leader's request context: the
// leader is just whichever request lost the race to be first, and its
// client disconnecting must not fail the whole fan-in. Every waiter
// (leader included) still honors its own request deadline — it stops
// waiting when its context is done, while the flight completes for the
// others.

// flight is one in-progress upstream read being fanned in on.
type flight struct {
	done chan struct{} // closed when the result fields are final
	val  []byte
	ok   bool
	err  error
}

// cacheEntry is one micro-cached read result.
type cacheEntry struct {
	val []byte
	ok  bool
	exp time.Time
}

// coalescer deduplicates concurrent fetches per key×mode and optionally
// micro-caches results for a TTL.
type coalescer struct {
	ttl    time.Duration // > 0 enables the micro-cache
	budget time.Duration // detached upstream read bound

	mu       sync.Mutex
	inflight map[string]*flight
	cache    map[string]cacheEntry

	// fanins counts calls that joined an existing flight, incremented
	// before the wait begins — tests synchronize on it to close the
	// "waiter arrived after the flight resolved" race deterministically.
	fanins atomic.Int64
}

func newCoalescer(ttl, budget time.Duration) *coalescer {
	c := &coalescer{ttl: ttl, budget: budget, inflight: make(map[string]*flight)}
	if ttl > 0 {
		c.cache = make(map[string]cacheEntry)
	}
	return c
}

// outcome classifies how a do call was served, for the gateway's
// coalescing metrics.
type outcome int

const (
	servedUpstream  outcome = iota // this call was the leader
	servedCoalesced                // fanned in on another call's flight
	servedCached                   // micro-cache hit
)

// do serves one read of key at the named mode: from the micro-cache if
// fresh, by fanning in on an identical in-flight read if one exists, or
// by leading a new upstream read via fetch. fetch receives a detached
// context, because the read is shared.
func (c *coalescer) do(ctx context.Context, key, mode string, fetch func(context.Context) ([]byte, bool, error)) ([]byte, bool, outcome, error) {
	fk := mode + "\x00" + key
	c.mu.Lock()
	if c.cache != nil {
		if e, hit := c.cache[fk]; hit {
			if time.Now().Before(e.exp) {
				c.mu.Unlock()
				return e.val, e.ok, servedCached, nil
			}
			delete(c.cache, fk)
		}
	}
	if f := c.inflight[fk]; f != nil {
		c.fanins.Add(1)
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, f.ok, servedCoalesced, f.err
		case <-ctx.Done():
			return nil, false, servedCoalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[fk] = f
	c.mu.Unlock()

	go func() {
		fctx, cancel := context.WithTimeout(context.Background(), c.budget)
		defer cancel()
		f.val, f.ok, f.err = fetch(fctx)
		c.mu.Lock()
		delete(c.inflight, fk)
		c.mu.Unlock()
		c.store(fk, f.val, f.ok, f.err)
		close(f.done)
	}()
	select {
	case <-f.done:
		return f.val, f.ok, servedUpstream, f.err
	case <-ctx.Done():
		// The leader's client gave up; the flight keeps running for
		// whoever else fanned in.
		return nil, false, servedUpstream, ctx.Err()
	}
}

// store micro-caches a successful result (including "not found" — a
// negative hit is as coalescable as a positive one).
func (c *coalescer) store(fk string, val []byte, ok bool, err error) {
	if c.cache == nil || err != nil {
		return
	}
	c.mu.Lock()
	c.cache[fk] = cacheEntry{val: val, ok: ok, exp: time.Now().Add(c.ttl)}
	c.mu.Unlock()
}

// invalidate drops the micro-cached entries for a key in every mode —
// called on writes through the gateway so its own clients read their
// writes once the TTL cache is on. Writes not routed through this
// gateway still become visible only as entries expire; the TTL is the
// staleness bound.
func (c *coalescer) invalidate(key string, modes []string) {
	if c.cache == nil {
		return
	}
	c.mu.Lock()
	for _, m := range modes {
		delete(c.cache, m+"\x00"+key)
	}
	c.mu.Unlock()
}
