package dds

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rcerr"
)

// TestSessionReadYourWrites writes through a session bound to node 1's
// router and reads with WithSession through EVERY node's router: each
// read must observe the session's latest write immediately, with no
// convergence sleep — the read-your-writes guarantee the eventual mode
// deliberately does not give.
func TestSessionReadYourWrites(t *testing.T) {
	sc := startSharded(t, 3, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sess := sc.svcs[1].NewSession()
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("ryw-%d", i%8) // overwrites exercise latest-write
		want := fmt.Sprintf("v%d", i)
		if err := sess.Set(ctx, key, []byte(want)); err != nil {
			t.Fatalf("session Set %d: %v", i, err)
		}
		for _, id := range sc.g.IDs {
			v, ok, err := sc.svcs[id].Get(ctx, key, WithSession(sess))
			if err != nil {
				t.Fatalf("session Get %q on node %v: %v", key, id, err)
			}
			if !ok || string(v) != want {
				t.Fatalf("session Get %q on node %v = %q,%v; want %q (write %d not observed)",
					key, id, v, ok, want, i)
			}
		}
	}
	// Deletes are writes too: a session read after Delete must miss.
	if err := sess.Delete(ctx, "ryw-0"); err != nil {
		t.Fatal(err)
	}
	for _, id := range sc.g.IDs {
		if _, ok, err := sc.svcs[id].Get(ctx, "ryw-0", WithSession(sess)); err != nil || ok {
			t.Fatalf("node %v still sees deleted key via session (ok=%v err=%v)", id, ok, err)
		}
	}
}

// TestSessionReadWithoutSession checks the option misuse error.
func TestSessionReadWithoutSession(t *testing.T) {
	sc := startSharded(t, 2, 1)
	if _, _, err := sc.svcs[1].Get(context.Background(), "k", WithSession(nil)); err == nil {
		t.Fatal("WithSession(nil) read succeeded")
	}
}

// TestLinearizableReadObservesCompletedWrites interleaves writes on node
// 1 with linearizable reads on node 2: every read must return a value at
// least as new as the last write that COMPLETED before the read began —
// the fence orders behind it.
func TestLinearizableReadObservesCompletedWrites(t *testing.T) {
	sc := startSharded(t, 3, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const key = "lin-key"
	for i := 1; i <= 25; i++ {
		if err := sc.svcs[1].Set(ctx, key, []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		v, ok, err := sc.svcs[2].Get(ctx, key, WithLinearizable())
		if err != nil {
			t.Fatalf("linearizable Get after write %d: %v", i, err)
		}
		got, _ := strconv.Atoi(string(v))
		if !ok || got < i {
			t.Fatalf("linearizable Get after write %d = %q,%v; want >= %d", i, v, ok, i)
		}
	}
}

// TestReadLeaseAmortizesFences checks the lease actually skips fences
// (the fence counter stops advancing inside the window) and that a
// routing-epoch change invalidates it.
func TestReadLeaseAmortizesFences(t *testing.T) {
	sc := startSharded(t, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const key = "lease-key"
	if err := sc.svcs[1].Set(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	r := sc.svcs[2]
	shard := r.ShardFor(key)
	fences := func() int64 { return r.Shard(shard).cReadFences.Load() }

	// First leased read fences; the next ones inside the window must not.
	before := fences()
	for i := 0; i < 10; i++ {
		if _, ok, err := r.Get(ctx, key, WithReadLease(10*time.Second)); err != nil || !ok {
			t.Fatalf("leased read %d: ok=%v err=%v", i, ok, err)
		}
	}
	if got := fences() - before; got != 1 {
		t.Fatalf("10 leased reads issued %d fences, want exactly 1", got)
	}

	// An elastic grow advances the routing epoch: the lease must die with
	// it, so the next leased read fences again (on the key's new shard).
	growAll(t, sc, 60*time.Second)
	shard2 := r.ShardFor(key)
	before2 := r.Shard(shard2).cReadFences.Load()
	if _, _, err := r.Get(ctx, key, WithReadLease(10*time.Second)); err != nil {
		t.Fatalf("leased read after grow: %v", err)
	}
	if got := r.Shard(shard2).cReadFences.Load() - before2; got != 1 {
		t.Fatalf("first leased read after epoch flip issued %d fences, want 1 (stale lease honored?)", got)
	}
}

// TestBoundedStalenessAcrossGrow is the flagship read-path property test:
// a 2-ring cluster grows to 3 and then 4 rings while a writer bumps a
// counter key and readers check, across every handoff:
//
//   - bounded staleness: a read with WithMaxStaleness(d) never returns a
//     value older than the newest write that completed d (plus scheduling
//     slop) before the read began;
//   - the degenerate bound d=0 (fence every read) never returns a value
//     older than the newest write completed before the read began;
//   - session mode always observes the session's own prior Set, with no
//     staleness allowance at all.
//
// Writers and readers both tolerate retryable rejections (a write racing
// a frozen slice, a read waiting on a shard that shut down for the
// handoff) — that is the documented contract — but never a stale value.
func TestBoundedStalenessAcrossGrow(t *testing.T) {
	sc := startSharded(t, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const key = "bs-counter"
	const bound = 300 * time.Millisecond
	// Slop covers the gap between a write's ordered position and the
	// writer recording its completion, plus scheduler noise on a loaded
	// single-core host.
	const slop = 500 * time.Millisecond

	var mu sync.Mutex
	completed := make(map[int]time.Time) // seq -> completion time at writer
	var lastSeq int

	// floorAt returns the newest seq whose write completed at or before t.
	floorAt := func(t0 time.Time) int {
		mu.Lock()
		defer mu.Unlock()
		best := 0
		for seq, at := range completed {
			if !at.After(t0) && seq > best {
				best = seq
			}
		}
		return best
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 8)

	// Writer: node 1 bumps the counter, retrying retryable rejections.
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := sc.svcs[1].Set(ctx, key, []byte(strconv.Itoa(seq)))
			if err != nil {
				if errors.Is(err, rcerr.ErrRetryable) {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				fail <- fmt.Sprintf("writer: %v", err)
				return
			}
			mu.Lock()
			completed[seq] = time.Now()
			lastSeq = seq
			mu.Unlock()
			seq++
			time.Sleep(time.Millisecond)
		}
	}()

	// parse maps a read result to a seq (absent key = 0, pre-first-write).
	parse := func(v []byte, ok bool) int {
		if !ok {
			return 0
		}
		n, _ := strconv.Atoi(string(v))
		return n
	}

	// Bounded reader on node 2 with a real bound.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			v, ok, err := sc.svcs[2].Get(ctx, key, WithMaxStaleness(bound))
			if err != nil {
				if errors.Is(err, rcerr.ErrRetryable) || errors.Is(err, context.Canceled) {
					continue
				}
				fail <- fmt.Sprintf("bounded reader: %v", err)
				return
			}
			if got, want := parse(v, ok), floorAt(start.Add(-bound-slop)); got < want {
				fail <- fmt.Sprintf("bounded read returned seq %d, but seq %d completed more than %v before the read", got, want, bound+slop)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Degenerate-bound reader on node 2: d=0 fences every read, so the
	// result must reflect every write completed before the read began.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			v, ok, err := sc.svcs[2].Get(ctx, key, WithMaxStaleness(0))
			if err != nil {
				if errors.Is(err, rcerr.ErrRetryable) || errors.Is(err, context.Canceled) {
					continue
				}
				fail <- fmt.Sprintf("fencing reader: %v", err)
				return
			}
			if got, want := parse(v, ok), floorAt(start); got < want {
				fail <- fmt.Sprintf("fenced read returned seq %d, but seq %d had completed before the read began", got, want)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Session writer/reader pair across the grow: writes on node 1's
	// router, session reads on node 2's. Every read must see the
	// session's own latest completed write — exactly, no slop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := sc.svcs[1].NewSession()
		last := 0
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := sess.Set(ctx, "sess-counter", []byte(strconv.Itoa(i))); err != nil {
				if errors.Is(err, rcerr.ErrRetryable) {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				fail <- fmt.Sprintf("session writer: %v", err)
				return
			}
			last = i
			v, ok, err := sc.svcs[2].Get(ctx, "sess-counter", WithSession(sess))
			if err != nil {
				if errors.Is(err, rcerr.ErrRetryable) || errors.Is(err, context.Canceled) {
					continue
				}
				fail <- fmt.Sprintf("session reader: %v", err)
				return
			}
			if got := parse(v, ok); got < last {
				fail <- fmt.Sprintf("session read returned seq %d after the session wrote seq %d", got, last)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	checkFail := func() {
		select {
		case msg := <-fail:
			close(stop)
			wg.Wait()
			t.Fatal(msg)
		default:
		}
	}

	// Let traffic settle, then grow 2 -> 3 -> 4 under load.
	time.Sleep(500 * time.Millisecond)
	checkFail()
	growAll(t, sc, 60*time.Second)
	time.Sleep(500 * time.Millisecond)
	checkFail()
	growAll(t, sc, 60*time.Second)
	time.Sleep(500 * time.Millisecond)

	close(stop)
	wg.Wait()
	checkFail()

	mu.Lock()
	n := lastSeq
	mu.Unlock()
	if n < 50 {
		t.Fatalf("writer completed only %d writes across the grows; load too thin for the property to mean anything", n)
	}
}

// TestReadAllocBudgetEventual pins the eventual read path's allocation
// budget: a zero-option Sharded.Get must cost at most the returned value
// copy (1 alloc). The assertion is < 2 rather than == 1 because
// AllocsPerRun measures the whole process — the token loop allocates in
// the background — which many runs amortize below one.
func TestReadAllocBudgetEventual(t *testing.T) {
	sc := startSharded(t, 1, 1)
	ctx := context.Background()
	const key = "alloc-key"
	if err := sc.svcs[1].Set(ctx, key, []byte("steady-state-value")); err != nil {
		t.Fatal(err)
	}
	r := sc.svcs[1]
	allocs := testing.AllocsPerRun(10000, func() {
		v, ok, err := r.Get(ctx, key)
		if err != nil || !ok || len(v) == 0 {
			t.Fatal("read failed mid-measurement")
		}
	})
	if allocs >= 2 {
		t.Fatalf("eventual Get = %.2f allocs/op, budget is 1 (+ background noise < 1)", allocs)
	}
	// GetLocal shares the same path and budget.
	allocs = testing.AllocsPerRun(10000, func() {
		if v, ok := r.GetLocal(key); !ok || len(v) == 0 {
			t.Fatal("GetLocal failed mid-measurement")
		}
	})
	if allocs >= 2 {
		t.Fatalf("GetLocal = %.2f allocs/op, budget is 1 (+ background noise < 1)", allocs)
	}
}

// TestFenceAvailableDuringHandoff checks a linearizable read of a key in
// a FROZEN slice still completes: the fence op is exempt from the
// freeze/retired rejections, so reads stay available mid-handoff even
// though writes are rejected.
func TestFenceAvailableDuringHandoff(t *testing.T) {
	sc := startSharded(t, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 32; i++ {
		if err := sc.svcs[1].Set(ctx, fmt.Sprintf("fz-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Linearizable reads hammer every key while the grow's freeze and
	// flip sweep through; none may fail with a non-retryable error.
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			key := fmt.Sprintf("fz-%d", i%32)
			_, ok, err := sc.svcs[2].Get(ctx, key, WithLinearizable())
			if err != nil && !errors.Is(err, rcerr.ErrRetryable) {
				done <- fmt.Errorf("linearizable Get %q: %v", key, err)
				return
			}
			if err == nil && !ok {
				done <- fmt.Errorf("linearizable Get %q lost the key", key)
				return
			}
		}
	}()
	growAll(t, sc, 60*time.Second)
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLocalRead measures the per-mode local read cost on a live
// single-node grid — the CI perf smoke runs it with -benchtime=100x.
func BenchmarkLocalRead(b *testing.B) {
	g, err := core.NewTestGrid(core.GridOptions{N: 1, Rings: 1, DeferStart: true})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	svc, err := AttachSharded(g.Runtimes[1])
	if err != nil {
		b.Fatal(err)
	}
	g.StartAll()
	if err := g.WaitAssembled(20 * time.Second); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const key = "bench-key"
	if err := svc.Set(ctx, key, []byte("bench-value")); err != nil {
		b.Fatal(err)
	}
	b.Run("eventual", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := svc.Get(ctx, key); err != nil || !ok {
				b.Fatal("read failed")
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		sess := svc.NewSession()
		if err := sess.Set(ctx, key, []byte("bench-value")); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := svc.Get(ctx, key, WithSession(sess)); err != nil || !ok {
				b.Fatal("read failed")
			}
		}
	})
	b.Run("lease", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := svc.Get(ctx, key, WithReadLease(time.Second)); err != nil || !ok {
				b.Fatal("read failed")
			}
		}
	})
}

// TestBoundedReadFencesWhileSyncing holds node 2's replica in state
// transfer, where it buffers every delivery while its node keeps seeing
// the token, then overwrites a key from node 1. A bounded read on node 2
// must not serve the value its replica held before the write: token
// arrivals prove nothing while deliveries are buffered, so the read
// fences and waits for the transfer to install.
func TestBoundedReadFencesWhileSyncing(t *testing.T) {
	sc := startSharded(t, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const key = "sync-key"
	if err := sc.svcs[1].Set(ctx, key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	sc.waitKey(t, 2, key, "old", 5*time.Second)
	_, shard := sc.svcs[2].routeReadShard(key)
	sc.svcs[2].Shard(shard).enterSync()
	if err := sc.svcs[1].Set(ctx, key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := sc.svcs[2].Get(ctx, key, WithMaxStaleness(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !ok || string(v) != "new" {
		t.Fatalf("bounded read on a syncing replica = %q,%v; want \"new\" (served a value from before the write)", v, ok)
	}
}
