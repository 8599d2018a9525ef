package dds

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rcerr"
	"repro/internal/simnet"
)

// TestRandomOpsConverge drives random Set/Delete/Lock/Unlock traffic from
// all replicas concurrently, then checks that every replica's key-value
// state and lock table are identical — the replicated-state-machine
// property under contention.
func TestRandomOpsConverge(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			dc := startDDS(t, 3)
			ctx := context.Background()
			done := make(chan struct{})
			for _, id := range dc.tc.IDs {
				id := id
				go func() {
					rng := rand.New(rand.NewSource(seed + int64(id)))
					defer func() { done <- struct{}{} }()
					held := map[string]bool{}
					for i := 0; i < 30; i++ {
						key := fmt.Sprintf("k%d", rng.Intn(5))
						lock := fmt.Sprintf("l%d", rng.Intn(3))
						switch rng.Intn(4) {
						case 0:
							_ = dc.svcs[id].Set(ctx, key, []byte(fmt.Sprintf("%v-%d", id, i)))
						case 1:
							_ = dc.svcs[id].Delete(ctx, key)
						case 2:
							if !held[lock] {
								lctx, cancel := context.WithTimeout(ctx, 2*time.Second)
								if dc.svcs[id].Lock(lctx, lock) == nil {
									held[lock] = true
								}
								cancel()
							}
						default:
							if held[lock] {
								if dc.svcs[id].Unlock(ctx, lock) == nil {
									held[lock] = false
								}
							}
						}
					}
					for lock := range held {
						if held[lock] {
							_ = dc.svcs[id].Unlock(ctx, lock)
						}
					}
				}()
			}
			for range dc.tc.IDs {
				<-done
			}
			// Let the last writes circulate, then compare replicas.
			time.Sleep(300 * time.Millisecond)
			ref := dc.svcs[1]
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if replicasEqual(dc) {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			for _, id := range dc.tc.IDs {
				t.Logf("replica %v: keys=%v", id, dc.svcs[id].Keys())
			}
			_ = ref
			t.Fatal("replicas did not converge after random ops")
		})
	}
}

func replicasEqual(dc *ddsCluster) bool {
	ref := dc.svcs[dc.tc.IDs[0]]
	refKeys := map[string]string{}
	for _, k := range ref.Keys() {
		v, _ := ref.Get(k)
		refKeys[k] = string(v)
	}
	for _, id := range dc.tc.IDs[1:] {
		svc := dc.svcs[id]
		keys := svc.Keys()
		if len(keys) != len(refKeys) {
			return false
		}
		for _, k := range keys {
			v, _ := svc.Get(k)
			if refKeys[k] != string(v) {
				return false
			}
		}
		// Lock holders must agree too.
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("l%d", i)
			h1, ok1 := ref.Holder(name)
			h2, ok2 := svc.Holder(name)
			if ok1 != ok2 || h1 != h2 {
				return false
			}
		}
	}
	return true
}

// TestBatchedWritesFreshAcrossGrow is the write-batching companion to
// TestBoundedStalenessAcrossGrow: with enough concurrent writers that the
// self-clocking coalescer really shares multi-op frames, the write-path
// guarantees must survive a live 2 -> 3 -> 4 ring grow under load:
//
//   - session read-your-writes: every session read through ANOTHER
//     node's router observes the session's latest completed Set, exactly;
//   - the degenerate staleness bound d=0 (fence every read) never
//     returns a value older than the newest write completed before the
//     read began.
//
// The run only counts if the coalescer actually coalesced: at the end
// more ops must have ridden batch frames than frames were flushed.
func TestBatchedWritesFreshAcrossGrow(t *testing.T) {
	sc := startSharded(t, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var mu sync.Mutex
	completed := make(map[int]time.Time) // writer 0's seq -> completion time
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
	parse := func(v []byte, ok bool) int {
		if !ok {
			return 0
		}
		n, _ := strconv.Atoi(string(v))
		return n
	}

	// Six concurrent session writers on node 1's router: enough traffic
	// per shard that writes arriving while a frame is in flight really
	// merge. Each write is followed by a session read through node 2 —
	// RYW, no slop.
	const writers = 6
	counts := make([]int, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := sc.svcs[1].NewSession()
			key := fmt.Sprintf("bw-%d", w)
			for seq := 1; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := sess.Set(ctx, key, []byte(strconv.Itoa(seq))); err != nil {
					if errors.Is(err, rcerr.ErrRetryable) {
						seq--
						time.Sleep(2 * time.Millisecond)
						continue
					}
					fail <- fmt.Sprintf("writer %d: %v", w, err)
					return
				}
				mu.Lock()
				if w == 0 {
					completed[seq] = time.Now()
				}
				counts[w] = seq
				mu.Unlock()
				v, ok, err := sc.svcs[2].Get(ctx, key, WithSession(sess))
				if err != nil {
					if errors.Is(err, rcerr.ErrRetryable) || errors.Is(err, context.Canceled) {
						continue
					}
					fail <- fmt.Sprintf("session reader %d: %v", w, err)
					return
				}
				if got := parse(v, ok); got < seq {
					fail <- fmt.Sprintf("batched session read on writer %d returned seq %d after the session wrote seq %d", w, got, seq)
					return
				}
			}
		}()
	}

	// Fenced reader on node 2 against writer 0's key: d=0 means the read
	// must reflect every write completed before it began, batches or not.
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
			v, ok, err := sc.svcs[2].Get(ctx, "bw-0", WithMaxStaleness(0))
			if err != nil {
				if errors.Is(err, rcerr.ErrRetryable) || errors.Is(err, context.Canceled) {
					continue
				}
				fail <- fmt.Sprintf("fenced reader: %v", err)
				return
			}
			if got, want := parse(v, ok), floorAt(start); got < want {
				fail <- fmt.Sprintf("fenced read returned seq %d, but seq %d had completed before the read began", got, want)
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

	time.Sleep(400 * time.Millisecond)
	checkFail()
	growAll(t, sc, 60*time.Second)
	time.Sleep(400 * time.Millisecond)
	checkFail()
	growAll(t, sc, 60*time.Second)
	time.Sleep(400 * time.Millisecond)

	close(stop)
	wg.Wait()
	checkFail()

	mu.Lock()
	for w, n := range counts {
		if n < 20 {
			mu.Unlock()
			t.Fatalf("writer %d completed only %d writes across the grows; load too thin", w, n)
		}
	}
	mu.Unlock()

	// The counters are per-node registries (shared across that node's
	// shards), so sample one shard per node. Strictly more ops than
	// flushes means at least some frames carried multiple writes.
	var flushes, ops int64
	for _, id := range sc.g.IDs {
		b := sc.svcs[id].Shard(0).batcher
		flushes += b.cFlushes.Load()
		ops += b.cOps.Load()
	}
	t.Logf("coalescer: %d ops in %d flushes", ops, flushes)
	if flushes == 0 || ops <= flushes {
		t.Fatalf("coalescer never formed a multi-op frame (flushes=%d ops=%d); the batched property was not exercised", flushes, ops)
	}
}

// TestConvergenceAcrossPartitionChurn mixes partitions into the random
// traffic: after healing, all replicas converge to one state.
func TestConvergenceAcrossPartitionChurn(t *testing.T) {
	dc := startDDS(t, 3)
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		dc.tc.Net.Partition(
			[]simnet.Addr{core.Addr(1), core.Addr(2)},
			[]simnet.Addr{core.Addr(3)})
		// Writes on both sides of the split.
		sctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		_ = dc.svcs[1].Set(sctx, "shared", []byte(fmt.Sprintf("majority-%d", round)))
		_ = dc.svcs[3].Set(sctx, "lonely", []byte(fmt.Sprintf("minority-%d", round)))
		cancel()
		dc.tc.Net.Heal()
		if err := dc.tc.WaitAssembled(15 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if replicasEqual(dc) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range dc.tc.IDs {
		t.Logf("replica %v keys %v", id, dc.svcs[id].Keys())
	}
	t.Fatal("replicas diverged after partition churn")
}
