package dds

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/stats"
)

// Bounds of one coalesced write frame: it flushes once this many writes
// have joined it, or once its encoding reaches this size, so a burst of
// large values cannot build an arbitrarily large multicast frame.
const (
	batchMaxOps   = 128
	batchMaxBytes = 48 << 10
)

// writeBatcher coalesces concurrent Set/Delete calls on one replica into
// multi-op opBatch frames, so one ordered multicast (and, downstream,
// one WAL record and one fsync) carries K writes.
//
// Callers register their opWait channel under s.mu first (exactly like
// the unbatched path), then enqueue under the batcher's own mutex —
// never the reverse, so the lock order is always s.mu → b.mu. Flushes
// run with no lock held: Multicast copies the payload on submit, so the
// frame buffer is recycled for the next batch.
//
// The coalescer is self-clocking: the first write of a quiet replica
// flushes immediately, so single-writer latency is the plain one-frame
// path, and only writes arriving while a frame is in flight coalesce.
// Flush triggers, in priority order: the frame fills (batchMaxOps /
// batchMaxBytes); the in-flight frame's ordered apply lands; the token
// arrives (backstop — ops buffered since the last visit could not have
// been ordered earlier anyway, so the token is the natural batch clock).
type writeBatcher struct {
	s *Service

	mu    sync.Mutex
	frame []byte   // pending opBatch frame (batchFrameStart'd when count > 0)
	reqs  []uint64 // reqIDs of the pending frame's entries, in order
	count int
	// inFlight paces the coalescer: one frame rides the ring while the
	// next accumulates; its ordered apply (or covered ack, or multicast
	// failure) releases the next flush.
	inFlight bool
	spare    []byte // recycled frame buffer

	// hasBuf mirrors count > 0 so the token-arrival hook (which runs on
	// the node's event loop) can bail without taking the mutex.
	hasBuf atomic.Bool
	// kicking gates the token hook's flush goroutine to one at a time.
	kicking atomic.Bool

	cFlushes *stats.Counter
	cOps     *stats.Counter

	// onFlush observes each flush's op count (the gateway's batch-size
	// histogram). Guarded by mu so it can be wired after the node is
	// serving; invoked with no lock held.
	onFlush func(ops int)
}

func newWriteBatcher(s *Service) *writeBatcher {
	reg := s.node.Stats()
	return &writeBatcher{
		s:        s,
		cFlushes: reg.Counter(stats.MetricDDSBatchFlushes),
		cOps:     reg.Counter(stats.MetricDDSBatchedOps),
	}
}

// add enqueues one write (already registered in s.opWait under reqID)
// and flushes when a trigger fires. Caller must not hold s.mu.
func (b *writeBatcher) add(key string, val []byte, del bool, reqID uint64) {
	b.mu.Lock()
	if b.count == 0 {
		b.frame = batchFrameStart(b.spareLocked())
	}
	if del {
		b.frame = appendBatchDel(b.frame, key, reqID)
	} else {
		b.frame = appendBatchSet(b.frame, key, val, reqID)
	}
	b.reqs = append(b.reqs, reqID)
	b.count++
	b.hasBuf.Store(true)

	var frame []byte
	var reqs []uint64
	var n int
	switch {
	case b.count >= batchMaxOps || len(b.frame) >= batchMaxBytes:
		frame, reqs, n = b.takeLocked()
	case !b.inFlight:
		b.inFlight = true
		frame, reqs, n = b.takeLocked()
	}
	b.mu.Unlock()
	if frame != nil {
		b.flushFrame(frame, reqs, n)
	}
}

// spareLocked returns the recycled frame buffer (or nil for a fresh one).
func (b *writeBatcher) spareLocked() []byte {
	buf := b.spare
	b.spare = nil
	return buf
}

// takeLocked detaches the pending frame, patching its entry count.
func (b *writeBatcher) takeLocked() ([]byte, []uint64, int) {
	frame, reqs, n := b.frame, b.reqs, b.count
	batchFramePatch(frame, n)
	b.frame, b.reqs, b.count = nil, nil, 0
	b.hasBuf.Store(false)
	return frame, reqs, n
}

// flushFrame multicasts one detached frame. Runs with no lock held; must
// not be called from the node's event loop (Multicast would deadlock on
// a full event channel) — loop-side triggers spawn a goroutine.
func (b *writeBatcher) flushFrame(frame []byte, reqs []uint64, n int) {
	err := b.s.node.Multicast(frame)
	b.cFlushes.Inc()
	b.cOps.Add(int64(n))
	b.mu.Lock()
	b.spare = frame[:0]
	fn := b.onFlush
	b.mu.Unlock()
	if fn != nil {
		fn(n)
	}
	if err != nil {
		// The frame never entered the ordered stream: fail every rider
		// and release the pacing gate so the backlog (if any) is flushed
		// by the next add or token visit instead of waiting for an apply
		// that will never come.
		b.s.failBatch(reqs, err)
		b.mu.Lock()
		b.inFlight = false
		b.mu.Unlock()
	}
}

// applied is queued (via the post-apply discipline) when this replica's
// own in-flight frame applies — directly or covered by a snapshot. It
// releases the pacing gate and flushes the backlog that coalesced while
// the frame circled the ring.
func (b *writeBatcher) applied() {
	b.mu.Lock()
	b.inFlight = false
	var frame []byte
	var reqs []uint64
	var n int
	if b.count > 0 {
		b.inFlight = true
		frame, reqs, n = b.takeLocked()
	}
	b.mu.Unlock()
	if frame != nil {
		// Post-apply functions run on the node's event loop: flush on a
		// fresh goroutine (see flushFrame's contract).
		go b.flushFrame(frame, reqs, n)
	}
}

// tokenKick runs on the node's event loop at every token arrival — the
// backstop flush clock. It must stay cheap (one atomic load when idle)
// and must not multicast synchronously, so the actual flush rides a
// CAS-gated goroutine.
func (b *writeBatcher) tokenKick() {
	if !b.hasBuf.Load() {
		return
	}
	if !b.kicking.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer b.kicking.Store(false)
		b.mu.Lock()
		var frame []byte
		var reqs []uint64
		var n int
		if b.count > 0 && !b.inFlight {
			b.inFlight = true
			frame, reqs, n = b.takeLocked()
		}
		b.mu.Unlock()
		if frame != nil {
			b.flushFrame(frame, reqs, n)
		}
	}()
}

// stop quiesces the batcher at replica shutdown. Buffered entries are
// dropped — their waiters were already drained with the retryable
// shutdown error.
func (b *writeBatcher) stop() {
	b.mu.Lock()
	b.frame, b.reqs, b.count = nil, nil, 0
	b.hasBuf.Store(false)
	b.mu.Unlock()
}

// --- Service-side glue ---

// OnWriteBatch registers an observer called with each flushed frame's op
// count (the gateway feeds its batch-size histogram from this). Safe to
// call while the node is serving.
func (s *Service) OnWriteBatch(fn func(ops int)) {
	b := s.batcher
	b.mu.Lock()
	b.onFlush = fn
	b.mu.Unlock()
}

// doBatched is the coalesced write path: register the waiter exactly
// like doOp, enqueue into the batcher, and wait for the entry's own
// outcome from the ordered apply.
func (s *Service) doBatched(ctx context.Context, key string, val []byte, del bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("dds: service closed")
	}
	s.nextReq++
	reqID := s.nextReq
	ch := make(chan error, 1)
	s.opWait[reqID] = append(s.opWait[reqID], ch)
	s.mu.Unlock()
	s.batcher.add(key, val, del, reqID)
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		s.removeOpWaiter(reqID, ch)
		return ctx.Err()
	}
}

// failBatch fails every rider of a frame whose multicast was rejected.
func (s *Service) failBatch(reqs []uint64, err error) {
	s.mu.Lock()
	for _, reqID := range reqs {
		for _, ch := range s.opWait[reqID] {
			ch <- err
		}
		delete(s.opWait, reqID)
	}
	s.mu.Unlock()
}

// batcherAppliedLocked queues the pacing-gate release when this
// replica's own batch frame has applied (or been covered by a
// snapshot). Post-apply, so the flush of the next frame never runs
// under s.mu.
func (s *Service) batcherAppliedLocked(origin core.NodeID) {
	if origin != s.id {
		return
	}
	s.postApply = append(s.postApply, s.batcher.applied)
}

// applyBatchLocked applies one ordered opBatch frame. The frame
// coalesces K independent writes, so the freeze/retired and
// snapshot-barrier rejections run per entry — each caller gets exactly
// the outcome its op would have gotten ordered alone at this position —
// while the keyspace publishes all surviving entries in one COW pass
// (each touched bucket cloned once per batch, not once per op).
// Waiters wake only after every survivor is visible in the read view:
// read-your-writes covers the whole batch.
func (s *Service) applyBatchLocked(origin core.NodeID, o op) {
	checkFrozen := s.frozenID != 0 || len(s.retired) > 0
	surv := o.batch
	if checkFrozen || s.snapID != 0 {
		surv = make([]batchEntry, 0, len(o.batch))
		for i := range o.batch {
			e := &o.batch[i]
			if checkFrozen {
				h := fnv64a(e.key)
				if (s.frozenID != 0 && rangesContain(s.frozen, h)) || rangesContain(s.retired, h) {
					s.node.Stats().Counter(stats.MetricFrozenWrites).Inc()
					s.signalOpLocked(origin, e.reqID, ErrResharding)
					continue
				}
			}
			if s.snapID != 0 {
				s.node.Stats().Counter(stats.MetricSnapFrozenWrites).Inc()
				s.signalOpLocked(origin, e.reqID, ErrSnapshotting)
				continue
			}
			surv = append(surv, *e)
		}
	}
	s.publishLocked(surv)
	// The coalescer's pacing gate releases at APPLY — the next frame
	// flushes while this one's fsync (if any) is still pending, which is
	// what keeps the group-commit pipeline full.
	s.batcherAppliedLocked(origin)
	if pd := s.pendingDurable; pd != nil {
		s.pendingDurable = nil
		pd.applied = true
		if !pd.durable && origin == s.id && len(surv) > 0 {
			// Durable-before-acked: stash the survivors' reqIDs; the
			// WAL's durability callback (batchDurableDone) wakes them.
			pd.reqIDs = make([]uint64, len(surv))
			for i := range surv {
				pd.reqIDs[i] = surv[i].reqID
			}
			return
		}
	}
	for i := range surv {
		s.signalOpLocked(origin, surv[i].reqID, nil)
	}
}

// batchDurable tracks one opBatch frame across its two completion
// events — ordered apply (event loop, under s.mu) and WAL durability
// (the log's syncer goroutine) — which can land in either order. All
// fields are guarded by s.mu. Riders are acked only once both have
// happened; on replicas other than the origin there are no riders and
// the handle is inert bookkeeping.
type batchDurable struct {
	origin  core.NodeID
	applied bool
	durable bool
	reqIDs  []uint64
}

// batchDurableDone is the WAL group-commit callback: the frame's record
// is on stable storage (or covered by a snapshot / the final close
// sync). Wakes any riders whose apply already landed. The sync error,
// if any, is swallowed by the same policy as walAppendLocked's append
// errors — durability degrades, ordering does not, and the op IS
// applied cluster-wide.
func (s *Service) batchDurableDone(pd *batchDurable) {
	s.mu.Lock()
	pd.durable = true
	if pd.applied {
		for _, reqID := range pd.reqIDs {
			s.signalOpLocked(pd.origin, reqID, nil)
		}
		pd.reqIDs = nil
	}
	s.mu.Unlock()
}
