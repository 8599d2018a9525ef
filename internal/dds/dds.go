// Package dds is the slice of the Raincore Distributed Data Service the
// paper describes (§2.7, §5): a distributed lock manager whose named locks
// can be held without keeping the token, and a replicated key-value map
// for cluster state (virtual IP assignments, connection tables, load
// figures).
//
// Both are replicated state machines driven by the session service's
// agreed total order: every replica applies the same operations in the
// same sequence, so no further coordination is needed. Membership changes
// arrive as ordered system messages, which lets every replica release a
// dead node's locks at the same logical instant. Joiners and merged
// groups converge through ordered snapshots (state transfer).
package dds

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rcerr"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Service is one node's replica of the distributed data service.
type Service struct {
	node *core.Node
	id   core.NodeID

	mu      sync.RWMutex
	locks   map[string]*lockState
	nextReq uint64

	// rview is the replica's keyspace: the copy-on-write map the ordered
	// appliers publish into and Get/Keys read lock-free, so reads never
	// serialize behind token applies (or each other). It also carries the
	// apply-progress stamps the consistency-moded read path keys off.
	rview readView

	// Reader wake machinery for WaitCaughtUp: appliers close waitCh (when
	// readWaiters says anyone is parked) after advancing the applied
	// vector. The atomic gate keeps the write hot path at one atomic load
	// when no reads are waiting.
	readWaiters atomic.Int32
	waitMu      sync.Mutex
	waitCh      chan struct{}

	// Per-mode read counters, resolved once at construction: the eventual
	// read path must not take the stats registry's mutex per op.
	cReadEventual *stats.Counter
	cReadSession  *stats.Counter
	cReadBounded  *stats.Counter
	cReadLin      *stats.Counter
	cReadFences   *stats.Counter
	cLeaseHits    *stats.Counter
	cSessionWaits *stats.Counter

	// Local waiters. The channels carry the outcome: nil on grant/apply,
	// ErrResharding when the ordered apply rejected the op because its
	// key was frozen mid-handoff. opWait holds a list per request:
	// concurrent Unlock calls for the same grant share the release's
	// reqID and must all observe its outcome.
	lockWait map[uint64]chan error // reqID -> granted / rejected
	opWait   map[uint64][]chan error
	pending  map[uint64]pendingAcquire

	// Elastic-resharding state. frozen marks the hash ranges this shard
	// is handing off: ordered writes into them are rejected until the
	// handoff flips or aborts. staged holds installs received as the
	// handoff's target, adopted only at the ordered flip. router links
	// back to the Sharded router when this replica is one shard of one.
	frozen   []keyRange
	frozenID uint64
	// frozenBy/frozenEpoch identify the handoff's coordinator and target
	// epoch: the ordered removal of a dead coordinator aborts the freeze
	// (deterministically — the removal is a position in this ring's
	// stream), so a coordinator crash cannot freeze the slice forever.
	frozenBy    core.NodeID
	frozenEpoch uint64
	staged      *stagedInstall
	router      *Sharded
	shardID     int
	// retired marks the hash ranges this shard does not own under its
	// latest ordered view of the routing table (initial complement, plus
	// slices frozen away, rebuilt at each flip on this ring). Ordered
	// writes into them are rejected, so a write submitted under a stale
	// routing epoch fails retryably instead of resurrecting moved state.
	retired []keyRange
	// purgeRID defers an ordered purge that arrived before this node's
	// router flipped to the handoff's epoch (the source must keep
	// serving reads of the frozen slice until then).
	purgeRID uint64
	// txns holds staged (prepared, unresolved) cross-shard transactions,
	// keyed by transaction id. A stage blocks reshard freezes and
	// snapshot captures on this shard until its ordered commit or abort
	// resolves it; the ordered removal of its dead coordinator aborts it.
	txns map[uint64]*txnStage
	// snapID/snapBy mark an active cross-shard snapshot barrier: new
	// writes and prepares are rejected (retryably) until the ordered
	// release, while staged transactions drain to keep the captured cut
	// consistent across shards.
	snapID uint64
	snapBy core.NodeID
	// postApply queues router callbacks emitted by ordered appliers;
	// they run after s.mu is released (the event loop is serial, so they
	// still run before the next ordered op applies).
	postApply []func()

	// State-transfer mode: while syncing, operations are buffered and
	// replayed after the snapshot applies. Written under s.mu; atomic so
	// Freshness can read it without the lock.
	syncing   atomic.Bool
	buffer    []bufferedOp
	syncTimer *time.Timer
	// applied records, per origin, the highest multicast sequence whose
	// dds op this replica has applied. It rides inside snapshots so a
	// receiving replica can replay exactly the buffered ops the snapshot
	// does not already include.
	applied map[core.NodeID]uint64
	// recent is a bounded log of applied ops (in apply order). When an
	// authoritative broadcast snapshot arrives at a replica that was not
	// syncing, the ops ordered between the snapshot's capture and its
	// delivery would otherwise be erased by the overwrite; the replica
	// replays them from this log. evictedHigh tracks, per origin, the
	// highest sequence ever evicted, so a replica can tell when the log
	// no longer covers a snapshot's gap and must skip it.
	recent      []bufferedOp
	evictedHigh map[core.NodeID]uint64

	// Durability (internal/wal): storage receives every ordered apply's
	// raw payload at the choke point in applyFilteredLocked; when the log
	// tail outgrows snapshotEvery bytes it is compacted into an on-disk
	// snapshot of the full replica state. recovering suppresses
	// re-appends (and router callbacks) while Recover replays that state
	// back; recovered marks a replica whose rejoin request may advertise
	// its applied vector for a delta fast-forward.
	storage       wal.Log
	snapshotEvery int64
	recovering    bool
	recovered     bool
	// pendingDurable carries one opBatch frame's deferred-ack handle
	// from walAppendLocked to applyBatchLocked within a single
	// applyFilteredLocked call (both under s.mu, same call stack). Set
	// only when the log's group commit pends (always-fsync file WAL):
	// the riders' acks then wait for the off-loop fsync instead of the
	// event loop stalling on it.
	pendingDurable *batchDurable
	// removalCount numbers this ring's ordered membership removals.
	// Removal entries ride the recent log (remEvictedHigh mirrors
	// evictedHigh for them) and the WAL, so a fast-forward delta or a
	// crash recovery replays each missed removal at its exact position
	// in the stream — a removal must precede any later op of the node's
	// next incarnation, which ring FIFO guarantees for the live path.
	removalCount   uint64
	remEvictedHigh uint64
	// decisions holds the replicated commit records (opTxnDecide) this
	// replica has applied, insertion-ordered in decisionSeq for FIFO
	// trimming: a record is only needed for the crash window between a
	// transaction's phase 1 and phase 2. A staged transaction whose
	// coordinator was removed parks in orphans until the decide ring's
	// verdict resolves it — record present means commit, coordinator
	// gone from the decide ring without one means abort.
	decisions   map[uint64]bool
	decisionSeq []uint64
	orphans     map[uint64]core.NodeID
	// live mirrors this ring's current membership (updated by the
	// ordered membership callback) — the decide verdict's "coordinator
	// is gone, and every record it could have ordered has applied here"
	// predicate leans on it.
	live map[core.NodeID]bool
	// applyHooks observe every ordered apply that changed keys, after
	// s.mu is released (post-apply discipline) — the invalidation feed
	// for read-path caches. hookKeys accumulates one apply's changes.
	applyHooks []func(ApplyEvent)
	hookKeys   []string

	// batcher coalesces concurrent Set/Delete calls into multi-op
	// opBatch frames (batch.go). Installed by New.
	batcher *writeBatcher

	watchers    []func(key string, val []byte, deleted bool)
	app         core.Handlers
	memberCount int
	lowest      core.NodeID
	closed      bool
}

type lockState struct {
	owner    core.NodeID
	ownerReq uint64
	queue    []lockReq
}

type lockReq struct {
	node  core.NodeID
	reqID uint64
}

type pendingAcquire struct {
	name  string
	reqID uint64
}

type bufferedOp struct {
	origin core.NodeID
	seq    uint64
	op     op
	// raw is the encoded payload as delivered — appended verbatim to the
	// WAL and forwarded verbatim in fast-forward deltas.
	raw []byte
	// isRemoval marks a membership-removal entry: origin is the removed
	// node and seq its index in this ring's removal sequence.
	isRemoval bool
}

// ApplyEvent describes one ordered apply on a replica: the keys whose
// values changed at position (Origin, Seq) of the shard's ring. A
// snapshot install reports the full diff of the replaced state.
type ApplyEvent struct {
	Shard  int
	Origin core.NodeID
	Seq    uint64
	Keys   []string
}

// snapshotWait bounds how long a syncing replica waits before requesting
// a snapshot explicitly (covers an admitter dying mid-transfer).
const snapshotWait = 2 * time.Second

// New attaches a data service replica to a session node. It installs the
// node's handlers; the application's own handlers go through SetAppHandlers
// so both layers observe the same ordered stream.
func New(node *core.Node) *Service {
	s := &Service{
		node:     node,
		id:       node.ID(),
		locks:    make(map[string]*lockState),
		lockWait: make(map[uint64]chan error),
		opWait:   make(map[uint64][]chan error),
		pending:  make(map[uint64]pendingAcquire),
		applied:  make(map[core.NodeID]uint64),
		txns:     make(map[uint64]*txnStage),

		evictedHigh: make(map[core.NodeID]uint64),
		decisions:   make(map[uint64]bool),
		orphans:     make(map[uint64]core.NodeID),
	}
	reg := node.Stats()
	s.cReadEventual = reg.Counter(stats.MetricReadsEventual)
	s.cReadSession = reg.Counter(stats.MetricReadsSession)
	s.cReadBounded = reg.Counter(stats.MetricReadsBounded)
	s.cReadLin = reg.Counter(stats.MetricReadsLinearizable)
	s.cReadFences = reg.Counter(stats.MetricReadFences)
	s.cLeaseHits = reg.Counter(stats.MetricReadLeaseHits)
	s.cSessionWaits = reg.Counter(stats.MetricReadSessionWaits)
	s.batcher = newWriteBatcher(s)
	node.OnTokenArrival(s.batcher.tokenKick)
	node.SetHandlers(core.Handlers{
		OnDeliver:    s.onDeliver,
		OnSys:        s.onSys,
		OnMembership: s.onMembership,
		OnShutdown:   s.onShutdown,
	})
	return s
}

// SetAppHandlers registers the application's handlers; deliveries that are
// not data-service operations pass through in order.
func (s *Service) SetAppHandlers(h core.Handlers) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.app = h
}

// Node returns the underlying session node.
func (s *Service) Node() *core.Node { return s.node }

// --- public API: locks ---

// ErrNotHolder is returned by Unlock when this node does not hold the lock.
var ErrNotHolder = errors.New("dds: not the lock holder")

// ErrResharding is returned for writes (Set, Delete, Lock, Unlock) whose
// key lies in a keyspace slice that is mid-handoff between shards. The
// error is transient and retryable (it matches rcerr.ErrRetryable): the
// slice unfreezes as soon as the handoff flips to the new routing epoch
// or aborts back to the old one. Reads never fail with it — the source
// shard keeps serving the frozen slice until the flip.
var ErrResharding = rcerr.New("dds: keyspace slice is resharding, retry")

// ErrSnapshotting is returned for writes (Set, Delete) and transaction
// prepares submitted while a cross-shard consistent snapshot holds its
// barrier on the key's shard. The error is transient and retryable (it
// matches rcerr.ErrRetryable): the barrier lifts as soon as every
// shard's capture completes (or the snapshot coordinator dies, whose
// ordered removal releases it). Reads never fail with it, and staged
// transactions still commit or abort through the barrier — that drain is
// what makes the captured cut consistent.
var ErrSnapshotting = rcerr.New("dds: cross-shard snapshot in progress, retry")

// errSnapBusy tells the snapshot coordinator a capture position still has
// staged transactions in front of it; the coordinator retries until the
// stages drain (new prepares are already rejected by the barrier).
var errSnapBusy = errors.New("dds: staged transactions draining, retry capture")

// bindRouter links the replica to the sharded router it belongs to, using
// the given shard (ring) id for handoff callbacks.
func (s *Service) bindRouter(r *Sharded, shardID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.router = r
	s.shardID = shardID
}

// frozenContains reports whether the hash lies in a frozen (mid-handoff)
// slice of this shard, the router's submit-time fast path. The ordered
// apply path enforces the same predicate authoritatively.
func (s *Service) frozenContains(h uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.frozenID != 0 && rangesContain(s.frozen, h)
}

// Lock acquires the named lock, blocking until granted or ctx is done.
// Unlike the token master-lock (§2.7), the lock is held without pinning
// the token.
func (s *Service) Lock(ctx context.Context, name string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("dds: service closed")
	}
	s.nextReq++
	reqID := s.nextReq
	ch := make(chan error, 1)
	s.lockWait[reqID] = ch
	s.pending[reqID] = pendingAcquire{name: name, reqID: reqID}
	s.mu.Unlock()

	if err := s.node.Multicast(encodeAcquire(name, reqID)); err != nil {
		s.dropWaiter(reqID)
		return err
	}
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		s.dropWaiter(reqID)
		// Withdraw the queued request so it cannot be granted later.
		_ = s.node.Multicast(encodeCancel(name, reqID))
		return ctx.Err()
	}
}

func (s *Service) dropWaiter(reqID uint64) {
	s.mu.Lock()
	delete(s.lockWait, reqID)
	delete(s.pending, reqID)
	s.mu.Unlock()
}

// Unlock releases the named lock held by this node. It returns once the
// release has applied locally, so a release racing a keyspace handoff
// surfaces ErrResharding to the caller (retry after the handoff) instead
// of silently leaving the migrated lock held. It waits for the ordered
// apply at most until ctx is done; a cancelled wait does not withdraw
// the release — it is already in the ordered stream — it only stops
// waiting for the local apply.
func (s *Service) Unlock(ctx context.Context, name string) error {
	s.mu.Lock()
	st := s.locks[name]
	if st == nil || st.owner != s.id {
		s.mu.Unlock()
		return ErrNotHolder
	}
	reqID := st.ownerReq
	inFlight := len(s.opWait[reqID]) > 0
	ch := make(chan error, 1)
	s.opWait[reqID] = append(s.opWait[reqID], ch)
	s.mu.Unlock()
	if !inFlight {
		// First caller multicasts; later concurrent Unlocks share the
		// same release's outcome instead of duplicating the op.
		if err := s.node.Multicast(encodeRelease(name, reqID)); err != nil {
			s.removeOpWaiter(reqID, ch)
			return err
		}
	}
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		s.removeOpWaiter(reqID, ch)
		return ctx.Err()
	}
}

// removeOpWaiter drops one waiter channel after a failed submit.
func (s *Service) removeOpWaiter(reqID uint64, ch chan error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	waiters := s.opWait[reqID]
	for i, w := range waiters {
		if w == ch {
			waiters = append(waiters[:i], waiters[i+1:]...)
			break
		}
	}
	if len(waiters) == 0 {
		delete(s.opWait, reqID)
	} else {
		s.opWait[reqID] = waiters
	}
}

// Holder reports the current owner of the named lock.
func (s *Service) Holder(name string) (core.NodeID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.locks[name]
	if st == nil || st.owner == wire.NoNode {
		return wire.NoNode, false
	}
	return st.owner, true
}

// --- public API: replicated map ---

// Set writes key=val cluster-wide and returns once the write has applied
// locally (read-your-writes). Concurrent Sets on one replica coalesce
// into a single ordered multi-op frame (see batch.go).
func (s *Service) Set(ctx context.Context, key string, val []byte) error {
	return s.doBatched(ctx, key, val, false)
}

// Delete removes a key cluster-wide. Deletes ride the same coalescer as
// Sets.
func (s *Service) Delete(ctx context.Context, key string) error {
	return s.doBatched(ctx, key, nil, true)
}

func (s *Service) doOp(ctx context.Context, build func(reqID uint64) []byte) error {
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
	if err := s.node.Multicast(build(reqID)); err != nil {
		s.removeOpWaiter(reqID, ch)
		return err
	}
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		s.removeOpWaiter(reqID, ch)
		return ctx.Err()
	}
}

// Get reads a key from the local replica's lock-free view — an eventual
// read: it reflects every op this replica has applied, not necessarily
// every op the ring has ordered. The returned slice is the caller's.
func (s *Service) Get(key string) ([]byte, bool) {
	return s.rview.get(key)
}

// Keys lists the local replica's keys from the lock-free view.
func (s *Service) Keys() []string {
	return s.rview.keys()
}

// Fence orders a no-op on this replica's ring and waits for its local
// apply. On return, every write ordered before Fence was invoked has
// applied here, so a local read that follows observes it — the read-index
// pattern over the token's total order. Fences are never rejected by
// handoff freezes or snapshot barriers, so fenced reads stay available
// mid-reshard. The wait is bounded by ctx.
func (s *Service) Fence(ctx context.Context) error {
	s.cReadFences.Inc()
	return s.doOp(ctx, func(reqID uint64) []byte { return encodeFence(reqID) })
}

// AppliedSeq reports the highest multicast sequence from origin whose op
// this replica has applied (directly or via snapshot).
func (s *Service) AppliedSeq(origin core.NodeID) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied[origin]
}

// ApplyIndex counts ordered applies on this replica — a monotone local
// progress measure (not comparable across replicas: snapshots collapse
// many ops into one apply).
func (s *Service) ApplyIndex() uint64 { return s.rview.applyIndex.Load() }

// Freshness reports when this replica last proved it was caught up: the
// later of its last ordered apply and its node's last token arrival (a
// token visit with nothing to deliver is still proof no ordered write is
// missing up to that instant). A replica in state transfer buffers its
// deliveries, so token visits prove nothing there: it reports the zero
// time until the transfer installs.
func (s *Service) Freshness() time.Time {
	if s.syncing.Load() {
		return time.Time{}
	}
	la := s.rview.lastApply()
	if tok := s.node.LastTokenArrival(); tok.After(la) {
		return tok
	}
	return la
}

// WaitCaughtUp blocks until this replica has applied origin's ops through
// seq, ctx expires, or the replica shuts down (retryable ErrResharding —
// the caller re-resolves the shard and retries).
func (s *Service) WaitCaughtUp(ctx context.Context, origin core.NodeID, seq uint64) error {
	for {
		s.mu.RLock()
		done := s.applied[origin] >= seq
		closed := s.closed
		s.mu.RUnlock()
		if done {
			return nil
		}
		if closed {
			return fmt.Errorf("%w: shard shut down", ErrResharding)
		}
		s.readWaiters.Add(1)
		s.waitMu.Lock()
		if s.waitCh == nil {
			s.waitCh = make(chan struct{})
		}
		ch := s.waitCh
		s.waitMu.Unlock()
		// Re-check after registering: an apply between the first check and
		// the channel fetch would otherwise be a missed wakeup.
		s.mu.RLock()
		done = s.applied[origin] >= seq
		closed = s.closed
		s.mu.RUnlock()
		if done || closed {
			s.readWaiters.Add(-1)
			if done {
				return nil
			}
			return fmt.Errorf("%w: shard shut down", ErrResharding)
		}
		select {
		case <-ch:
			s.readWaiters.Add(-1)
		case <-ctx.Done():
			s.readWaiters.Add(-1)
			return ctx.Err()
		}
	}
}

// wakeReadersLocked releases every WaitCaughtUp parked on this replica;
// called after the applied vector advances (and on shutdown). The atomic
// gate keeps the no-waiter case to one load.
func (s *Service) wakeReadersLocked() {
	if s.readWaiters.Load() == 0 {
		return
	}
	s.waitMu.Lock()
	if s.waitCh != nil {
		close(s.waitCh)
		s.waitCh = nil
	}
	s.waitMu.Unlock()
}

// Watch registers a callback for key changes, invoked in apply order.
func (s *Service) Watch(fn func(key string, val []byte, deleted bool)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watchers = append(s.watchers, fn)
}

// OnApply registers an apply-stream observer. Callbacks run after each
// ordered apply that changed at least one key, outside the replica's
// mutex but before the next ordered op applies (the event loop is
// serial) — the invalidation feed for read-path caches.
func (s *Service) OnApply(fn func(ApplyEvent)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyHooks = append(s.applyHooks, fn)
}

// --- ordered event handlers ---

// onDeliver routes one ordered delivery: data-service ops apply to the
// replica; everything else passes through to the application.
func (s *Service) onDeliver(d core.Delivery) {
	op, ok := decodeOp(d.Payload)
	if !ok {
		s.mu.RLock()
		h := s.app.OnDeliver
		s.mu.RUnlock()
		if h != nil {
			h(d)
		}
		return
	}
	s.mu.Lock()
	switch {
	case op.kind == opSnapDelta:
		// A fast-forward delta replays missed ops under their own
		// (origin, seq) stamps; routing the carrier through
		// applyFilteredLocked would advance the sender's applied entry
		// past the very ops it carries. It also bypasses the sync buffer:
		// it IS the state transfer a syncing replica is waiting for.
		s.applySnapDeltaLocked(d.Origin, d.Seq, op)
	case s.syncing.Load() && op.kind != opSnapshot:
		s.buffer = append(s.buffer, bufferedOp{origin: d.Origin, seq: d.Seq, op: op, raw: d.Payload})
	default:
		s.applyFilteredLocked(d.Origin, d.Seq, op, d.Payload)
	}
	post := s.postApply
	s.postApply = nil
	s.mu.Unlock()
	for _, fn := range post {
		fn()
	}
}

// onSys handles ordered membership announcements.
func (s *Service) onSys(e core.SysEvent) {
	switch e.Kind {
	case wire.SysNodeRemoved:
		s.mu.Lock()
		s.removalCount++
		s.logRemovalLocked(e.Subject, s.removalCount)
		s.releaseDeadLocked(e.Subject)
		// A removed coordinator aborts (or, post-commit, garbage
		// collects) the handoff it was driving. This is safe for the
		// benign case — a coordinator retiring its replica of a removed
		// ring after the commit — because its ordered purge precedes
		// its leave in this ring's stream, so the freeze is already
		// resolved by the time the removal applies.
		s.abortDeadCoordinatorLocked(e.Subject)
		s.queueOrphanKickLocked()
		post := s.postApply
		s.postApply = nil
		s.mu.Unlock()
		for _, fn := range post {
			fn()
		}
	case wire.SysNodeJoined:
		s.tracef("SysNodeJoined origin=%d subject=%d", e.Origin, e.Subject)
		if e.Subject == s.id && e.Origin != s.id {
			// We just joined an existing group: buffer until state
			// transfer completes, and ask for exactly what we miss. A
			// replica recovered from its WAL advertises its applied
			// vector so the deterministic responder can fast-forward it
			// with a delta instead of retransferring the full keyspace.
			s.enterSync()
			go s.sendSnapReq()
		}
	case wire.SysGroupMerged:
		// Both sides' replicas may have diverged: everyone resyncs to
		// the merging node's state, buffering until it arrives.
		s.tracef("SysGroupMerged origin=%d subject=%d", e.Origin, e.Subject)
		if e.Origin == s.id {
			snap := s.capture(wire.NoNode) // NoNode = all replicas
			s.enterSync()
			go s.node.Multicast(snap)
		} else {
			s.enterSync()
		}
	}
	s.mu.RLock()
	h := s.app.OnSys
	s.mu.RUnlock()
	if h != nil {
		h(e)
	}
}

func (s *Service) onMembership(e core.MembershipEvent) {
	s.mu.Lock()
	s.memberCount = len(e.Members)
	s.lowest = wire.NoNode
	live := make(map[core.NodeID]bool, len(e.Members))
	for _, m := range e.Members {
		live[m] = true
		if s.lowest == wire.NoNode || m < s.lowest {
			s.lowest = m
		}
	}
	s.live = live
	// A recovered replica that ends up alone holding a live token seeded
	// the ring itself (regeneration, not admission): there is nobody to
	// sync from, so its recovered state IS the ring state. Adopt it and
	// drain whatever buffered while waiting. A joining replica's initial
	// membership event carries Epoch 0 and never triggers this.
	if s.syncing.Load() && e.Epoch > 0 && len(e.Members) == 1 && e.Members[0] == s.id {
		s.tracef("seed-exit from sync (epoch=%d buffered=%d)", e.Epoch, len(s.buffer))
		if s.syncTimer != nil {
			s.syncTimer.Stop()
			s.syncTimer = nil
		}
		buf := s.buffer
		s.buffer = nil
		s.syncing.Store(false)
		for _, b := range buf {
			s.applyFilteredLocked(b.origin, b.seq, b.op, b.raw)
		}
	}
	router := s.router
	kick := len(s.orphans) > 0
	h := s.app.OnMembership
	post := s.postApply
	s.postApply = nil
	s.mu.Unlock()
	for _, fn := range post {
		fn()
	}
	if kick && router != nil {
		router.kickOrphans()
	}
	if h != nil {
		h(e)
	}
}

// sendSnapReq multicasts this replica's state-transfer request: the
// applied vector and removal count recovered from its WAL (or empty for
// a fresh joiner, which forces the full-snapshot path).
func (s *Service) sendSnapReq() {
	s.mu.RLock()
	router := s.router
	s.mu.RUnlock()
	var epoch uint64
	if router != nil {
		epoch = router.Epoch()
	}
	s.mu.Lock()
	applied := make(map[core.NodeID]uint64, len(s.applied))
	for o, v := range s.applied {
		applied[o] = v
	}
	// Recovered reshard or snapshot-barrier residue is rare and fiddly to
	// fast-forward through; a full snapshot resolves it authoritatively.
	wantFull := !s.recovered || len(applied) == 0 ||
		s.frozenID != 0 || s.staged != nil || s.snapID != 0
	removals := s.removalCount
	s.mu.Unlock()
	_ = s.node.Multicast(encodeSnapReqFrom(applied, removals, epoch, wantFull))
}

func (s *Service) onShutdown(reason string) {
	s.mu.Lock()
	s.closed = true
	// Drain the waiters: an op in flight on a stopping ring may never be
	// ordered. The error is retryable — for an elastically retired ring
	// the retry resolves against the new routing table; for a genuine
	// failure the retry surfaces the stopped node promptly.
	drainErr := fmt.Errorf("%w: shard shut down (%s)", ErrResharding, reason)
	for id, ch := range s.lockWait {
		delete(s.lockWait, id)
		delete(s.pending, id)
		ch <- drainErr
	}
	for id, chans := range s.opWait {
		delete(s.opWait, id)
		for _, ch := range chans {
			ch <- drainErr
		}
	}
	// Parked session/fence readers must not wait out their deadlines on a
	// ring that will never apply again.
	s.wakeReadersLocked()
	h := s.app.OnShutdown
	b := s.batcher
	s.mu.Unlock()
	// Quiesce the write coalescer after the drain: its buffered entries'
	// waiters just got the retryable shutdown error, so the frame they
	// rode in is dead weight — drop it.
	b.stop()
	if h != nil {
		h(reason)
	}
}

// enterSync starts buffering ops until a snapshot applies. If none arrives
// within snapshotWait (the snapshot sender may have died), the replica
// requests one explicitly.
func (s *Service) enterSync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracef("enterSync (already=%v)", s.syncing.Load())
	if !s.syncing.Load() {
		s.syncing.Store(true)
		s.buffer = nil
	}
	// (Re)arm even when already syncing: a recovered replica enters sync
	// at Recover time without a timer, and the ordered join/merge anchor
	// arriving here is what starts the state-transfer clock.
	s.armSyncTimerLocked()
}

func (s *Service) armSyncTimerLocked() {
	if s.syncTimer != nil {
		s.syncTimer.Stop()
	}
	s.syncTimer = time.AfterFunc(snapshotWait, func() {
		s.mu.Lock()
		stillSyncing := s.syncing.Load()
		if stillSyncing {
			s.tracef("sync fallback timer fired (lowest=%d buffered=%d)", s.lowest, len(s.buffer))
		}
		if stillSyncing && s.id == s.lowest {
			// Nobody is going to send us a snapshot (the sender died, or
			// every replica is syncing). As the deterministic leader,
			// adopt the buffered state, then publish an authoritative
			// snapshot so every replica resyncs to the same state at the
			// same ordered position.
			buf := s.buffer
			s.buffer = nil
			s.syncing.Store(false)
			for _, b := range buf {
				s.applyFilteredLocked(b.origin, b.seq, b.op, b.raw)
			}
			snap := s.captureTargetLocked(wire.NoNode)
			post := s.postApply
			s.postApply = nil
			s.mu.Unlock()
			for _, fn := range post {
				fn()
			}
			go s.node.Multicast(snap)
			return
		}
		if stillSyncing {
			s.armSyncTimerLocked()
		}
		s.mu.Unlock()
		if stillSyncing {
			_ = s.node.Multicast(encodeSnapReq())
		}
	})
}

// --- replicated state machine ---

// applyFilteredLocked applies an op unless the applied vector shows a
// snapshot already covered it. A filtered op from this node itself must
// still wake its local waiter: the op's effect is present in the snapshot
// state, so the caller's request has succeeded. This is the single
// ordered-apply choke point: the WAL append, the recent-log entry, and
// the apply-stream hooks all hang off it.
func (s *Service) applyFilteredLocked(origin core.NodeID, seq uint64, o op, raw []byte) {
	if seq <= s.applied[origin] {
		if origin == s.id {
			s.ackCoveredSelfOpLocked(o)
		}
		return
	}
	s.applied[origin] = seq
	if o.kind != opSnapshot && o.kind != opSnapReq && o.kind != opSnapReqFrom && o.kind != opSnapDelta {
		s.logRecentLocked(origin, seq, o, raw)
		s.walAppendLocked(origin, seq, o, raw)
	}
	s.applyLocked(origin, o)
	s.rview.stamp()
	s.wakeReadersLocked()
	s.flushApplyHookLocked(origin, seq)
}

// recentLogCap bounds the replay log; snapshots older than this many ops
// cannot be applied by an up-to-date replica and are skipped instead.
const recentLogCap = 4096

func (s *Service) logRecentLocked(origin core.NodeID, seq uint64, o op, raw []byte) {
	s.evictRecentLocked()
	s.recent = append(s.recent, bufferedOp{origin: origin, seq: seq, op: o, raw: raw})
}

func (s *Service) evictRecentLocked() {
	if len(s.recent) < recentLogCap {
		return
	}
	old := s.recent[0]
	if old.isRemoval {
		if old.seq > s.remEvictedHigh {
			s.remEvictedHigh = old.seq
		}
	} else if old.seq > s.evictedHigh[old.origin] {
		s.evictedHigh[old.origin] = old.seq
	}
	s.recent = s.recent[1:]
}

// walRemovalOrigin marks a WAL record carrying a membership removal
// rather than an ordered op: Seq is the removal's index in the ring's
// removal sequence, the payload the removed node's id. Node ids are
// 32-bit but never the all-ones sentinel (wire.NoNode is 0), so the
// marker cannot collide with a real origin.
const walRemovalOrigin = ^uint32(0)

// logRemovalLocked records one ordered membership removal in the recent
// log (so fast-forward deltas can replay it in position) and the WAL (so
// crash recovery re-runs the same dead-node cleanup).
func (s *Service) logRemovalLocked(dead core.NodeID, idx uint64) {
	s.evictRecentLocked()
	s.recent = append(s.recent, bufferedOp{origin: dead, seq: idx, isRemoval: true})
	if s.storage != nil && !s.recovering {
		payload := binary.LittleEndian.AppendUint32(nil, uint32(dead))
		_ = s.storage.Append(wal.Record{Origin: walRemovalOrigin, Seq: idx, Payload: payload})
		s.maybeCompactLocked()
	}
}

// walAppendLocked appends one ordered apply to the attached WAL (raw, as
// delivered) and compacts when the tail outgrows the snapshot threshold.
// Append errors are swallowed: durability degrades, ordering does not.
//
// A coalesced opBatch frame goes through the log's group-commit path:
// still exactly ONE record — replay dedup is keyed on (origin, seq), so
// the durable unit must match the ordered unit — but the backend issues
// one write and, under always-fsync, one fsync for the K ops it carries.
func (s *Service) walAppendLocked(origin core.NodeID, seq uint64, o op, raw []byte) {
	if s.storage == nil || s.recovering || len(raw) == 0 {
		return
	}
	rec := wal.Record{Origin: uint32(origin), Seq: seq, Payload: raw}
	if o.kind == opBatch {
		// Pipelined group commit: the append is buffered here, in order,
		// but under always-fsync the sync runs on the log's syncer
		// goroutine and only the riders' acks wait for it
		// (durable-before-acked) — the event loop, and with it the ring
		// cadence, never stalls on the disk. Groups from consecutive
		// frames share one fsync.
		pd := &batchDurable{origin: origin}
		pending, err := s.storage.AppendBatchDurable([]wal.Record{rec}, func(error) { s.batchDurableDone(pd) })
		if err == nil && pending {
			s.pendingDurable = pd
		}
	} else {
		_ = s.storage.Append(rec)
	}
	s.maybeCompactLocked()
}

func (s *Service) maybeCompactLocked() {
	if s.snapshotEvery > 0 && s.storage.LogBytes() >= s.snapshotEvery {
		s.compactLocked()
	}
}

// compactLocked folds the replica's full state into an atomic on-disk
// snapshot and truncates the WAL tail behind it.
func (s *Service) compactLocked() {
	if s.storage == nil || s.recovering {
		return
	}
	_ = s.storage.SaveSnapshot(encodeSnapshotState(s.snapshotStateLocked()))
}

// flushApplyHookLocked hands one apply's changed keys to the registered
// apply-stream observers via the post-apply queue, so they run outside
// s.mu (the same discipline as router callbacks).
func (s *Service) flushApplyHookLocked(origin core.NodeID, seq uint64) {
	keys := s.hookKeys
	s.hookKeys = nil
	if len(keys) == 0 || len(s.applyHooks) == 0 || s.recovering {
		return
	}
	hooks := s.applyHooks
	ev := ApplyEvent{Shard: s.shardID, Origin: origin, Seq: seq, Keys: keys}
	s.postApply = append(s.postApply, func() {
		for _, h := range hooks {
			h(ev)
		}
	})
}

// ackCoveredSelfOpLocked wakes waiters for a self-op whose effect arrived
// via snapshot rather than direct application.
func (s *Service) ackCoveredSelfOpLocked(o op) {
	switch o.kind {
	case opSet, opDel:
		s.signalOpLocked(s.id, o.reqID, nil)
	case opBatch:
		// Every rider's effect is in the snapshot state; wake them all,
		// and release the coalescer's pacing gate exactly as a direct
		// apply would.
		for i := range o.batch {
			s.signalOpLocked(s.id, o.batch[i].reqID, nil)
		}
		s.batcherAppliedLocked(s.id)
	case opAcquire:
		st := s.locks[o.key]
		if st != nil && st.owner == s.id && st.ownerReq == o.reqID {
			s.grantLocked(s.id, o.reqID)
		}
		// If the snapshot shows us queued, the grant fires when a later
		// release promotes us; if absent, the pending re-request logic
		// in applySnapshotLocked re-submits.
	case opRelease, opFreeze, opInstall, opFlip, opPurge,
		opTxnPrepare, opTxnCommit, opTxnAbort, opTxnDecide,
		opSnapFreeze, opSnapCapture, opSnapRelease, opFence:
		s.signalOpLocked(s.id, o.reqID, nil)
	}
}

// applyLocked applies one op; caller holds s.mu.
func (s *Service) applyLocked(origin core.NodeID, o op) {
	// Freeze enforcement: ordered writes into a mid-handoff slice are
	// rejected — deterministically, since the freeze op itself is ordered
	// — so the state captured at the freeze position stays authoritative
	// until the flip installs it on the target shard.
	if s.frozenID != 0 || len(s.retired) > 0 {
		switch o.kind {
		case opAcquire, opRelease, opCancel, opSet, opDel:
			h := fnv64a(o.key)
			if (s.frozenID != 0 && rangesContain(s.frozen, h)) || rangesContain(s.retired, h) {
				s.rejectFrozenLocked(origin, o)
				return
			}
		}
	}
	// Snapshot-barrier enforcement: while the shard is snap-frozen, new
	// map writes are rejected (retryably, at the same ordered position on
	// every replica) so the captured cut is identical across shards. Lock
	// traffic and staged-transaction commits/aborts still flow: locks are
	// not part of the capture, and the drain of staged transactions is
	// what the capture waits on.
	if s.snapID != 0 {
		switch o.kind {
		case opSet, opDel:
			s.node.Stats().Counter(stats.MetricSnapFrozenWrites).Inc()
			s.signalOpLocked(origin, o.reqID, ErrSnapshotting)
			return
		}
	}
	switch o.kind {
	case opAcquire:
		s.applyAcquireLocked(origin, o)
	case opRelease:
		s.applyReleaseLocked(origin, o)
	case opCancel:
		s.applyCancelLocked(origin, o)
	case opSet, opDel:
		e := [1]batchEntry{{del: o.kind == opDel, key: o.key, val: o.val}}
		s.publishLocked(e[:])
		s.signalOpLocked(origin, o.reqID, nil)
	case opBatch:
		// Deliberately absent from the freeze/retired and
		// snapshot-barrier switches above: the frame coalesces
		// independent keys, so those rejections run per entry inside.
		s.applyBatchLocked(origin, o)
	case opFence:
		// Ordered no-op: its apply is the fence. Deliberately exempt from
		// the freeze/retired/snapshot-barrier rejections above — fenced
		// reads must stay available mid-handoff, like plain reads.
		s.signalOpLocked(origin, o.reqID, nil)
	case opSnapshot:
		s.applySnapshotLocked(origin, o)
	case opSnapReq:
		// Deterministic responder: the lowest live member other than
		// the requester captures at this ordered position.
		if s.id != origin && s.id == s.responderLocked(origin) && !s.syncing.Load() {
			snap := s.captureTargetLocked(origin)
			go s.node.Multicast(snap)
		}
	case opFreeze:
		s.applyFreezeLocked(origin, o)
	case opInstall:
		s.applyInstallLocked(origin, o)
	case opFlip:
		s.applyFlipLocked(origin, o)
	case opAbortReshard:
		s.applyAbortReshardLocked(origin, o)
	case opPurge:
		s.applyPurgeLocked(origin, o)
	case opTxnPrepare:
		s.applyTxnPrepareLocked(origin, o)
	case opTxnCommit:
		s.applyTxnCommitLocked(origin, o)
	case opTxnAbort:
		s.applyTxnAbortLocked(origin, o)
	case opTxnDecide:
		s.applyTxnDecideLocked(origin, o)
	case opSnapReqFrom:
		s.applySnapReqFromLocked(origin, o)
	case opSnapFreeze:
		s.applySnapFreezeLocked(origin, o)
	case opSnapCapture:
		s.applySnapCaptureLocked(origin, o)
	case opSnapRelease:
		s.applySnapReleaseLocked(origin, o)
	}
}

// --- cross-shard transactions (2PC participant side) ---
//
// A transaction's writes for this shard arrive as one ordered prepare,
// stay staged (invisible) until the ordered commit applies them
// atomically, and vanish on the ordered abort. Staged transactions block
// reshard freezes of this shard (first-wins, retryable on the reshard
// side), so a commit never writes into a slice frozen after its prepare —
// the freeze/prepare order is serialized by the ring.

// applyTxnPrepareLocked stages one transaction's writes. Every touched
// key is checked against the frozen/retired ranges and the snapshot
// barrier, deterministically (all replicas decide at the same position).
func (s *Service) applyTxnPrepareLocked(origin core.NodeID, o op) {
	if s.snapID != 0 {
		s.node.Stats().Counter(stats.MetricSnapFrozenWrites).Inc()
		s.signalOpLocked(origin, o.reqID, ErrSnapshotting)
		return
	}
	reject := func(h uint64) bool {
		return (s.frozenID != 0 && rangesContain(s.frozen, h)) || rangesContain(s.retired, h)
	}
	for k := range o.kv {
		if reject(fnv64a(k)) {
			s.node.Stats().Counter(stats.MetricFrozenWrites).Inc()
			s.signalOpLocked(origin, o.reqID, ErrResharding)
			return
		}
	}
	for _, k := range o.dels {
		if reject(fnv64a(k)) {
			s.node.Stats().Counter(stats.MetricFrozenWrites).Inc()
			s.signalOpLocked(origin, o.reqID, ErrResharding)
			return
		}
	}
	s.txns[o.rid] = &txnStage{id: o.rid, by: origin, epoch: o.epoch, decideRing: o.decideRing, kv: o.kv, dels: o.dels}
	s.signalOpLocked(origin, o.reqID, nil)
}

// applyTxnCommitLocked makes a staged transaction's writes live at this
// ordered position. A commit for an already-resolved transaction (the
// stage was aborted by the coordinator's removal racing a late commit
// frame) is a no-op; nobody is waiting on it.
func (s *Service) applyTxnCommitLocked(origin core.NodeID, o op) {
	st := s.txns[o.rid]
	if st == nil {
		s.signalOpLocked(origin, o.reqID, nil)
		return
	}
	delete(s.txns, o.rid)
	s.publishLocked(writeEntries(st.kv, st.dels))
	s.signalOpLocked(origin, o.reqID, nil)
}

// applyTxnAbortLocked drops a staged transaction (idempotent).
func (s *Service) applyTxnAbortLocked(origin core.NodeID, o op) {
	if _, staged := s.txns[o.rid]; staged {
		delete(s.txns, o.rid)
		s.node.Stats().Counter(stats.MetricTxnAborts).Inc()
	}
	s.signalOpLocked(origin, o.reqID, nil)
}

// decisionCap bounds the replicated commit-record set: a record is only
// needed for the crash window between a transaction's phase 1 and phase
// 2 (milliseconds), not forever. Trimming is FIFO in apply order, so
// every replica of the decide ring trims identically.
const decisionCap = 1024

// applyTxnDecideLocked records a replicated commit decision on this
// (decide) ring. Once the record is ordered the transaction's outcome is
// commit everywhere: a replica resolving an orphaned stage finds the
// record here, and ring FIFO guarantees the record precedes its
// coordinator's removal in this ring's stream — so "coordinator removed,
// no record" proves phase 2 never started anywhere.
func (s *Service) applyTxnDecideLocked(origin core.NodeID, o op) {
	if !s.decisions[o.rid] {
		s.decisions[o.rid] = true
		s.decisionSeq = append(s.decisionSeq, o.rid)
		for len(s.decisionSeq) > decisionCap {
			delete(s.decisions, s.decisionSeq[0])
			s.decisionSeq = s.decisionSeq[1:]
		}
		s.node.Stats().Counter(stats.MetricTxnDecides).Inc()
	}
	s.signalOpLocked(origin, o.reqID, nil)
	s.queueOrphanKickLocked()
}

// queueOrphanKickLocked schedules an orphan-resolution pass across the
// router's shards after the current apply completes. Kicks fire on every
// event that can change a verdict — a decide record applying, a
// membership change, a sync completing — so no background sweeper is
// needed: verdicts are monotone (a record can never appear after its
// coordinator's removal has been processed), and each kick source covers
// one way a pending verdict becomes final.
func (s *Service) queueOrphanKickLocked() {
	if s.router == nil {
		return
	}
	router := s.router
	s.postApply = append(s.postApply, func() { router.kickOrphans() })
}

// localVerdict is the decide-ring replica's answer for an orphaned
// transaction: commit if the record applied here; abort once this
// replica is synced and the coordinator is gone from the ring's
// membership (every record it could have ordered has applied by then —
// its removal is ordered after them); pending otherwise.
func (s *Service) localVerdict(id uint64, coord core.NodeID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.decisions[id] {
		return verdictCommit
	}
	if s.syncing.Load() || s.closed || len(s.live) == 0 {
		return verdictPending
	}
	if !s.live[coord] {
		return verdictAbort
	}
	return verdictPending
}

// localSelfVerdict resolves a recovered stage this node itself
// coordinated: the pre-crash commit driver can never return, so once the
// decide replica is synced the record's presence alone decides.
func (s *Service) localSelfVerdict(id uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.decisions[id] {
		return verdictCommit
	}
	if s.syncing.Load() || s.closed || len(s.live) == 0 {
		return verdictPending
	}
	return verdictAbort
}

// resolveOrphans drives every parked orphan stage to the decide ring's
// verdict. Commit records are pushed onto this ring as an ordered
// opTxnCommit by its lowest live member (idempotent — duplicate pushes
// are no-ops, and the orphan entry clears when the commit applies);
// absent records abort the stage locally, which is deterministic across
// replicas because the verdict is monotone. Runs outside s.mu.
func (s *Service) resolveOrphans() {
	s.mu.Lock()
	if len(s.orphans) == 0 {
		s.mu.Unlock()
		return
	}
	router := s.router
	type orphan struct {
		id    uint64
		coord core.NodeID
		ring  int
	}
	pending := make([]orphan, 0, len(s.orphans))
	for id, coord := range s.orphans {
		tx := s.txns[id]
		if tx == nil {
			delete(s.orphans, id) // resolved by an ordered commit/abort
			continue
		}
		pending = append(pending, orphan{id: id, coord: coord, ring: tx.decideRing})
	}
	s.mu.Unlock()
	if router == nil {
		return
	}
	for _, o := range pending {
		var verdict int
		if o.coord == s.id {
			verdict = router.decideSelfVerdict(o.ring, o.id)
		} else {
			verdict = router.decideVerdict(o.ring, o.id, o.coord)
		}
		switch verdict {
		case verdictCommit:
			s.mu.Lock()
			_, still := s.txns[o.id]
			push := still && s.lowest == s.id && !s.closed
			s.mu.Unlock()
			if push {
				// The decide ring holds the record but this ring never saw
				// phase 2: finish it.
				s.node.Stats().Counter(stats.MetricTxnOrphanCommits).Inc()
				payload := encodeTxnCommit(o.id, 0)
				go func() { _ = s.node.Multicast(payload) }()
			}
		case verdictAbort:
			s.mu.Lock()
			if tx := s.txns[o.id]; tx != nil && tx.by == o.coord {
				delete(s.txns, o.id)
				s.node.Stats().Counter(stats.MetricTxnAborts).Inc()
				s.node.Stats().Counter(stats.MetricTxnOrphanAborts).Inc()
			}
			delete(s.orphans, o.id)
			s.mu.Unlock()
		}
	}
}

// PendingTxns reports the number of staged (prepared, unresolved)
// transactions on this replica — diagnostics and test assertions.
func (s *Service) PendingTxns() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.txns)
}

// --- cross-shard snapshot barrier (participant side) ---

// applySnapFreezeLocked raises the snapshot barrier on this shard. A
// shard mid-handoff refuses (the snapshot coordinator releases and
// reports the retryable conflict); a competing snapshot loses to the
// first (first-wins, like reshard freezes).
func (s *Service) applySnapFreezeLocked(origin core.NodeID, o op) {
	if s.frozenID != 0 || s.staged != nil {
		s.signalOpLocked(origin, o.reqID, ErrResharding)
		return
	}
	if s.snapID != 0 && s.snapID != o.rid {
		s.signalOpLocked(origin, o.reqID, ErrSnapshotting)
		return
	}
	s.snapID, s.snapBy = o.rid, origin
	s.signalOpLocked(origin, o.reqID, nil)
}

// applySnapCaptureLocked captures the shard's map at this ordered
// position — but only once every staged transaction has drained, so no
// shard's capture can include half of a cross-shard commit. The barrier
// already rejects new prepares, so the drain is bounded by the in-flight
// transactions' phase 2.
func (s *Service) applySnapCaptureLocked(origin core.NodeID, o op) {
	if s.snapID != o.rid {
		s.signalOpLocked(origin, o.reqID, ErrSnapshotting)
		return
	}
	if len(s.txns) > 0 {
		s.signalOpLocked(origin, o.reqID, errSnapBusy)
		return
	}
	s.signalOpLocked(origin, o.reqID, nil)
	s.queueSnapCaptureLocked(origin)
}

// queueSnapCaptureLocked hands the captured map to the coordinating
// router after the current apply completes (same post-apply discipline as
// the reshard capture).
func (s *Service) queueSnapCaptureLocked(origin core.NodeID) {
	if s.router == nil || !s.router.wantsSnapCapture(s.snapID) {
		return
	}
	img := s.rview.image()
	router, shard, rid := s.router, s.shardID, s.snapID
	s.postApply = append(s.postApply, func() {
		router.snapCaptured(shard, rid, &img)
	})
}

// applySnapReleaseLocked lifts the snapshot barrier.
func (s *Service) applySnapReleaseLocked(origin core.NodeID, o op) {
	if s.snapID == o.rid {
		s.snapID, s.snapBy = 0, 0
	}
	s.signalOpLocked(origin, o.reqID, nil)
}

// rejectFrozenLocked refuses one ordered write into a frozen slice. Every
// replica rejects at the same ordered position; the origin's replica also
// wakes the local waiter with the retryable error.
func (s *Service) rejectFrozenLocked(origin core.NodeID, o op) {
	s.node.Stats().Counter(stats.MetricFrozenWrites).Inc()
	if origin != s.id {
		return
	}
	switch o.kind {
	case opSet, opDel:
		s.signalOpLocked(origin, o.reqID, ErrResharding)
	case opAcquire:
		if ch, ok := s.lockWait[o.reqID]; ok {
			delete(s.lockWait, o.reqID)
			delete(s.pending, o.reqID)
			ch <- ErrResharding
		}
	case opRelease:
		// Unlock waits for its apply: surface the rejection so the
		// caller retries against the lock's post-handoff home.
		s.signalOpLocked(origin, o.reqID, ErrResharding)
		// opCancel needs no recovery: queued requests in the moving
		// slice were cancelled at the freeze.
	}
}

// applyFreezeLocked starts the handoff on a source shard: the listed hash
// ranges stop accepting writes, queued lock requests inside them are
// cancelled (their waiters retry against the target shard after the
// flip), and — on the coordinating node — the moving state is captured at
// exactly this ordered position.
func (s *Service) applyFreezeLocked(origin core.NodeID, o op) {
	if s.frozenID != 0 && s.frozenID != o.rid {
		// A competing handoff already froze this shard; first wins. The
		// loser's coordinator gets a prompt retryable failure instead of
		// waiting out its deadline.
		s.signalOpLocked(origin, o.reqID, ErrResharding)
		return
	}
	if s.snapID != 0 {
		// A cross-shard snapshot holds its barrier here; its release is
		// ordered shortly. The handoff coordinator aborts retryably.
		s.signalOpLocked(origin, o.reqID, ErrSnapshotting)
		return
	}
	if len(s.txns) > 0 {
		// Staged cross-shard transactions must resolve before the slice
		// can freeze: their commits write at ordered positions after the
		// prepare, and a freeze in between would strand half a commit in
		// the migrated slice. Aborting the handoff (retryably) keeps the
		// prepare -> commit window free of ownership changes.
		s.signalOpLocked(origin, o.reqID, ErrResharding)
		return
	}
	first := s.frozenID == 0
	s.frozenID = o.rid
	s.frozenBy = origin
	s.frozenEpoch = o.epoch
	s.frozen = append([]keyRange(nil), o.ranges...)
	if first {
		// Cancel queued acquisitions for moving locks. Held owners keep
		// their locks — ownership migrates with the state — but waiting
		// requests re-route to the target shard after the flip.
		for name, st := range s.locks {
			if !rangesContain(s.frozen, fnv64a(name)) {
				continue
			}
			for _, q := range st.queue {
				if q.node != s.id {
					continue
				}
				if ch, ok := s.lockWait[q.reqID]; ok {
					delete(s.lockWait, q.reqID)
					delete(s.pending, q.reqID)
					ch <- ErrResharding
				}
			}
			st.queue = nil
		}
	}
	s.signalOpLocked(origin, o.reqID, nil)
	s.queueCaptureLocked(origin)
}

// queueCaptureLocked hands the frozen slice's state to the router after
// the current apply completes. Frozen ranges are immutable from the
// freeze position on (every replica rejects writes into them), so a
// capture at any later position — including one observed through a
// snapshot during state transfer — is byte-identical to a capture at the
// freeze position itself.
func (s *Service) queueCaptureLocked(origin core.NodeID) {
	if s.router == nil || s.frozenID == 0 || !s.router.wantsCapture(s.frozenID) {
		return
	}
	cap := capturedState{kv: s.rview.image(), ranges: s.frozen, locks: make(map[string]*lockState)}
	for name, st := range s.locks {
		if st.owner != wire.NoNode && rangesContain(s.frozen, fnv64a(name)) {
			cap.locks[name] = &lockState{owner: st.owner, ownerReq: st.ownerReq}
		}
	}
	router, shard, rid := s.router, s.shardID, s.frozenID
	s.postApply = append(s.postApply, func() {
		router.freezeApplied(shard, rid, origin, cap)
	})
}

// applyInstallLocked stages moved state on a target shard. Nothing
// touches the live map until the ordered flip, so an abort leaves the
// replica untouched.
func (s *Service) applyInstallLocked(origin core.NodeID, o op) {
	if s.staged != nil && s.staged.id != o.rid {
		s.signalOpLocked(origin, o.reqID, ErrResharding) // competing handoff; first wins
		return
	}
	if s.staged == nil {
		s.staged = &stagedInstall{
			id: o.rid, by: origin, epoch: o.epoch,
			kv: make(map[string][]byte), locks: make(map[string]*lockState),
		}
	}
	maps.Copy(s.staged.kv, o.kv)
	for name, ls := range o.locks {
		s.staged.locks[name] = &lockState{owner: ls.owner, ownerReq: ls.ownerReq}
	}
	s.signalOpLocked(origin, o.reqID, nil)
}

// applyFlipLocked commits the handoff on a target shard: the staged state
// becomes live at this ordered position — every write submitted after a
// node flips its router is ordered after this point on this ring — and
// the router is told this target flipped so it can adopt the new routing
// epoch once every target has.
func (s *Service) applyFlipLocked(origin core.NodeID, o op) {
	// This ring gained ranges: rebuild the retired set from the flip's
	// authoritative table (an ordered position on this very ring, so
	// every replica rebuilds at the same point).
	if s.router != nil {
		s.retired = complementRanges(newHashRingFor(o.rings, defaultReplicas), s.shardID)
	}
	if s.staged != nil && s.staged.id == o.rid {
		s.publishLocked(writeEntries(s.staged.kv, nil))
		for name, ls := range s.staged.locks {
			s.locks[name] = ls
		}
		s.staged = nil
	}
	s.signalOpLocked(origin, o.reqID, nil)
	if s.router != nil {
		router, shard := s.router, s.shardID
		info := flipInfo{id: o.rid, epoch: o.epoch, rings: append([]int(nil), o.rings...), targets: append([]int(nil), o.targets...)}
		s.postApply = append(s.postApply, func() {
			router.targetFlipped(shard, info)
		})
	}
}

// abortDeadCoordinatorLocked is the participant-side abort: when the
// node that froze this shard (or staged installs on it) is removed from
// the membership, the handoff it was driving can never flip. The removal
// is an ordered position of this ring's stream, so every replica rolls
// back at the same point. If the flip already committed (the ordered
// purge arrived and is merely deferred), the removal finishes the purge
// instead.
func (s *Service) abortDeadCoordinatorLocked(dead core.NodeID) {
	var rid, epoch uint64
	touched := false
	if s.frozenID != 0 && s.frozenBy == dead {
		if s.purgeRID == s.frozenID {
			s.purgeFrozenLocked()
		} else {
			rid, epoch = s.frozenID, s.frozenEpoch
			s.frozenID, s.frozenBy, s.frozenEpoch = 0, 0, 0
			s.frozen = nil
			touched = true
		}
	}
	if s.staged != nil && s.staged.by == dead {
		rid, epoch = s.staged.id, s.staged.epoch
		s.staged = nil
		touched = true
	}
	if touched && s.router != nil {
		router := s.router
		s.postApply = append(s.postApply, func() { router.reshardAborted(rid, epoch) })
	}
	// Staged transactions whose coordinator died: with a replicated
	// commit record (decideRing >= 0) phase 2 may already have started on
	// other rings, so the stage parks as an orphan until the decide
	// ring's verdict — record present, commit; coordinator gone from the
	// decide ring without one, abort. Legacy stages (no decide ring)
	// presumed-abort at the removal as before: the removal is an ordered
	// position of this ring's stream, so every replica aborts the same
	// stages at the same point, and a commit the coordinator managed to
	// order before its removal was already applied.
	for id, tx := range s.txns {
		if tx.by != dead {
			continue
		}
		if tx.decideRing >= 0 {
			s.orphans[id] = dead
			continue
		}
		delete(s.txns, id)
		s.node.Stats().Counter(stats.MetricTxnAborts).Inc()
	}
	// A dead snapshot coordinator releases its barrier the same way.
	if s.snapID != 0 && s.snapBy == dead {
		s.snapID, s.snapBy = 0, 0
	}
}

// applyAbortReshardLocked rolls the handoff back: the source unfreezes
// and keeps its state, the target drops the staged installs, and every
// node stays on the old routing epoch.
func (s *Service) applyAbortReshardLocked(_ core.NodeID, o op) {
	touched := false
	if s.frozenID == o.rid {
		s.frozenID, s.frozenBy, s.frozenEpoch = 0, 0, 0
		s.frozen = nil
		s.purgeRID = 0
		touched = true
	}
	if s.staged != nil && s.staged.id == o.rid {
		s.staged = nil
		touched = true
	}
	if s.router != nil && touched {
		router := s.router
		rid, epoch := o.rid, o.epoch
		s.postApply = append(s.postApply, func() {
			router.reshardAborted(rid, epoch)
		})
	}
}

// applyPurgeLocked garbage-collects the handed-off slice from a source
// replica after the flip committed. The purge op is ordered on the
// source's own stream (after its freeze, so every replica purges the
// same immutable state), but its effect is deferred until this node's
// router has flipped: until then the source still serves reads of the
// frozen slice.
func (s *Service) applyPurgeLocked(origin core.NodeID, o op) {
	s.signalOpLocked(origin, o.reqID, nil)
	if s.frozenID != o.rid {
		return // aborted, already purged, or a different handoff
	}
	if s.router != nil && s.router.Epoch() < o.epoch {
		s.purgeRID = o.rid
		return // router not flipped yet; completeFlip finishes the job
	}
	s.purgeFrozenLocked()
}

// purgeIfPending runs a purge whose ordered op arrived before this
// node's flip; called by the router right after it adopts the epoch.
func (s *Service) purgeIfPending(rid uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.purgeRID != rid || s.frozenID != rid {
		return
	}
	s.purgeFrozenLocked()
}

// purgeFrozenLocked drops the frozen slice: the keys live on the target
// shard now, which the router routes to. The purge is silent — at the
// router level the keys still exist, so no delete notification is due.
func (s *Service) purgeFrozenLocked() {
	var gone []batchEntry
	img := s.rview.image()
	for k := range img.all() {
		if rangesContain(s.frozen, fnv64a(k)) {
			gone = append(gone, batchEntry{del: true, key: k})
		}
	}
	s.rview.publish(gone)
	for name := range s.locks {
		if rangesContain(s.frozen, fnv64a(name)) {
			delete(s.locks, name)
		}
	}
	// The slices left for good: writes into them stay rejected until a
	// later flip on this ring hands some of them back.
	s.retired = append(s.retired, s.frozen...)
	s.frozenID, s.frozenBy, s.frozenEpoch = 0, 0, 0
	s.frozen = nil
	s.purgeRID = 0
}

// setRetired installs the replica's initial not-owned ranges (router
// attach time, before the node starts).
func (s *Service) setRetired(rs []keyRange) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired = rs
}

func (s *Service) responderLocked(requester core.NodeID) core.NodeID {
	members := s.node.Members()
	best := wire.NoNode
	for _, m := range members {
		if m == requester {
			continue
		}
		if best == wire.NoNode || m < best {
			best = m
		}
	}
	return best
}

func (s *Service) applyAcquireLocked(origin core.NodeID, o op) {
	st := s.locks[o.key]
	if st == nil {
		st = &lockState{}
		s.locks[o.key] = st
	}
	if st.owner == wire.NoNode {
		st.owner = origin
		st.ownerReq = o.reqID
		s.grantLocked(origin, o.reqID)
	} else {
		st.queue = append(st.queue, lockReq{node: origin, reqID: o.reqID})
	}
}

func (s *Service) applyReleaseLocked(origin core.NodeID, o op) {
	// A stale release (owner already changed by membership cleanup or a
	// merge) still succeeds idempotently for the waiting Unlock caller.
	s.signalOpLocked(origin, o.reqID, nil)
	st := s.locks[o.key]
	if st == nil || st.owner != origin || st.ownerReq != o.reqID {
		return // stale release
	}
	s.promoteLocked(o.key, st)
}

func (s *Service) applyCancelLocked(origin core.NodeID, o op) {
	st := s.locks[o.key]
	if st == nil {
		return
	}
	if st.owner == origin && st.ownerReq == o.reqID {
		// Granted before the cancellation was ordered: treat as release.
		s.promoteLocked(o.key, st)
		return
	}
	for i, q := range st.queue {
		if q.node == origin && q.reqID == o.reqID {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return
		}
	}
}

func (s *Service) promoteLocked(name string, st *lockState) {
	if len(st.queue) == 0 {
		st.owner = wire.NoNode
		st.ownerReq = 0
		delete(s.locks, name)
		return
	}
	next := st.queue[0]
	st.queue = st.queue[1:]
	st.owner = next.node
	st.ownerReq = next.reqID
	s.grantLocked(next.node, next.reqID)
}

// grantLocked wakes the local waiter when this replica's node became owner.
func (s *Service) grantLocked(node core.NodeID, reqID uint64) {
	if node != s.id {
		return
	}
	if ch, ok := s.lockWait[reqID]; ok {
		delete(s.lockWait, reqID)
		delete(s.pending, reqID)
		ch <- nil
	}
}

func (s *Service) signalOpLocked(origin core.NodeID, reqID uint64, err error) {
	if origin != s.id {
		return
	}
	for _, ch := range s.opWait[reqID] {
		ch <- err
	}
	delete(s.opWait, reqID)
}

// releaseDeadLocked frees every lock and queue position owned by a node
// that left the membership; ordered, so all replicas do this at the same
// logical instant (§2.7).
func (s *Service) releaseDeadLocked(dead core.NodeID) {
	for name, st := range s.locks {
		filtered := st.queue[:0]
		for _, q := range st.queue {
			if q.node != dead {
				filtered = append(filtered, q)
			}
		}
		st.queue = filtered
		if st.owner == dead {
			s.promoteLocked(name, st)
		}
	}
}

// publishLocked makes entries live in the keyspace (one clone per touched
// bucket), then notifies watchers of each entry in order.
func (s *Service) publishLocked(entries []batchEntry) {
	s.rview.publish(entries)
	for i := range entries {
		e := &entries[i]
		s.notifyLocked(e.key, e.val, e.del)
	}
}

// writeEntries orders a staged write set for publishLocked: the sets in
// key order, then the deletes as listed.
func writeEntries(kv map[string][]byte, dels []string) []batchEntry {
	out := make([]batchEntry, 0, len(kv)+len(dels))
	for _, k := range slices.Sorted(maps.Keys(kv)) {
		out = append(out, batchEntry{key: k, val: kv[k]})
	}
	for _, k := range dels {
		out = append(out, batchEntry{del: true, key: k})
	}
	return out
}

func (s *Service) notifyLocked(key string, val []byte, deleted bool) {
	if len(s.applyHooks) > 0 {
		s.hookKeys = append(s.hookKeys, key)
	}
	for _, w := range s.watchers {
		w(key, val, deleted)
	}
}

// applySnapReqFromLocked answers a joiner's state-transfer request at
// its ordered position. The deterministic responder (lowest live member
// other than the requester) sends either a fast-forward delta — the ops
// and removals the requester's recovered applied vector misses, straight
// out of the recent log — or, when the log no longer covers the gap (or
// the request asked for it), a full targeted snapshot.
func (s *Service) applySnapReqFromLocked(origin core.NodeID, o op) {
	if s.id == origin || s.syncing.Load() || s.id != s.responderLocked(origin) {
		return
	}
	reg := s.node.Stats()
	if !o.wantFull {
		if entries, ok := s.deltaForLocked(o); ok {
			s.tracef("serving delta to n%d: %d entries, reqApplied=%v myApplied=%v", origin, len(entries), o.applied, s.applied)
			reg.Counter(stats.MetricRecoveryDeltas).Inc()
			payload := encodeSnapDelta(origin, entries)
			go s.node.Multicast(payload)
			return
		}
	}
	s.tracef("serving full snapshot to n%d (wantFull=%v reqApplied=%v myApplied=%v evictedHigh=%v)", origin, o.wantFull, o.applied, s.applied, s.evictedHigh)
	reg.Counter(stats.MetricRecoveryFulls).Inc()
	snap := s.captureTargetLocked(origin)
	go s.node.Multicast(snap)
}

// deltaSafeKind reports whether an op can ride a fast-forward delta.
// Reshard and snapshot-barrier ops are excluded: their effects depend on
// coordinator state the joiner cannot reconstruct mid-stream, so any gap
// containing one falls back to the full snapshot.
func deltaSafeKind(k opKind) bool {
	switch k {
	case opAcquire, opRelease, opCancel, opSet, opDel, opBatch, opFence,
		opTxnPrepare, opTxnCommit, opTxnAbort, opTxnDecide:
		return true
	}
	return false
}

// deltaForLocked assembles the fast-forward delta for a request, or
// reports that the recent log no longer covers the requester's gap.
func (s *Service) deltaForLocked(o op) ([]deltaEntry, bool) {
	// Mid-handoff or mid-barrier state does not fast-forward; and a
	// requester on another routing epoch needs the authoritative state.
	if s.frozenID != 0 || s.staged != nil || s.snapID != 0 {
		return nil, false
	}
	if s.router != nil && s.router.Epoch() != o.epoch {
		return nil, false
	}
	// Coverage: for every origin where we are ahead, and for the removal
	// sequence, the log must reach back to the requester's position.
	if o.removals > s.removalCount || s.remEvictedHigh > o.removals {
		return nil, false
	}
	for origin, mine := range s.applied {
		if mine > o.applied[origin] && s.evictedHigh[origin] > o.applied[origin] {
			return nil, false
		}
	}
	var out []deltaEntry
	for _, b := range s.recent {
		if b.isRemoval {
			if b.seq > o.removals {
				out = append(out, deltaEntry{removal: b.origin, remIdx: b.seq})
			}
			continue
		}
		if b.seq <= o.applied[b.origin] {
			continue
		}
		if !deltaSafeKind(b.op.kind) || len(b.raw) == 0 {
			return nil, false
		}
		out = append(out, deltaEntry{origin: b.origin, seq: b.seq, raw: b.raw, removal: wire.NoNode})
	}
	return out, true
}

// applySnapDeltaLocked fast-forwards this (targeted, syncing) replica:
// the missed ops and removals replay in ring order through the same
// filtered-apply path a live delivery uses, then the live sync buffer
// drains on top. Non-target replicas only advance the sender's applied
// entry, mirroring the no-effect carrier op.
func (s *Service) applySnapDeltaLocked(origin core.NodeID, seq uint64, o op) {
	if o.target == s.id && s.syncing.Load() {
		s.tracef("applying delta from n%d: %d entries, %d buffered", origin, len(o.delta), len(s.buffer))
		s.syncing.Store(false)
		if s.syncTimer != nil {
			s.syncTimer.Stop()
		}
		for _, e := range o.delta {
			if e.removal != wire.NoNode {
				s.applyRemovalReplayLocked(e.removal, e.remIdx)
				continue
			}
			if op2, ok := decodeOp(e.raw); ok {
				s.applyFilteredLocked(e.origin, e.seq, op2, e.raw)
			}
		}
		buf := s.buffer
		s.buffer = nil
		for _, b := range buf {
			s.applyFilteredLocked(b.origin, b.seq, b.op, b.raw)
		}
		// The replica is authoritative again: fold the fast-forward into
		// the on-disk snapshot so the next restart resumes from here.
		s.compactLocked()
		s.queueOrphanKickLocked()
	}
	if seq > s.applied[origin] {
		s.applied[origin] = seq
	}
	s.rview.stamp()
	s.wakeReadersLocked()
}

// applyRemovalReplayLocked re-applies a membership removal during gap,
// delta, or WAL replay: the same dead-node cleanup the ordered removal
// ran, guarded by the removal index so a covered removal is a no-op.
// Replaying removals at their recorded position is safe because ring
// FIFO ordered each removal before any op of the node's next
// incarnation.
func (s *Service) applyRemovalReplayLocked(dead core.NodeID, idx uint64) {
	if idx <= s.removalCount {
		return
	}
	s.removalCount = idx
	s.logRemovalLocked(dead, idx)
	s.releaseDeadLocked(dead)
	s.abortDeadCoordinatorLocked(dead)
}

// applySnapshotLocked installs a snapshot and replays buffered ops.
func (s *Service) applySnapshotLocked(origin core.NodeID, o op) {
	s.tracef("applySnapshot from n%d target=%d syncing=%v", origin, o.target, s.syncing.Load())
	if o.target != wire.NoNode {
		// Targeted at one (joining) replica: others skip it, and the
		// target applies it only while waiting for state transfer.
		if o.target != s.id {
			return
		}
		if !s.syncing.Load() {
			return
		}
	}
	// Broadcast snapshots (merge resync, fallback resync) are
	// authoritative for every replica, syncing or not: each one is an
	// ordered point where any divergence — for example from the
	// time-based sync fallback racing a snapshot — is healed. A replica
	// that was NOT syncing has applied ops ordered between the snapshot's
	// capture and its delivery; those must be replayed from the recent-op
	// log after the overwrite, or the snapshot must be skipped when the
	// log no longer covers the gap.
	st, err := decodeSnapshotState(o.val)
	if err != nil {
		return
	}
	var gapReplay []bufferedOp
	if !s.syncing.Load() {
		for origin, mine := range s.applied {
			if mine > st.applied[origin] && s.evictedHigh[origin] > st.applied[origin] {
				return // gap not covered by the log: keep our state
			}
		}
		if s.removalCount > st.removals && s.remEvictedHigh > st.removals {
			return // a removal in the gap was evicted: keep our state
		}
		for _, b := range s.recent {
			if b.isRemoval {
				if b.seq > st.removals {
					gapReplay = append(gapReplay, b)
				}
				continue
			}
			if b.seq > st.applied[b.origin] {
				gapReplay = append(gapReplay, b)
			}
		}
	}
	old := s.rview.image()
	s.installSnapshotStateLocked(st)
	// If the handoff's freeze op itself was covered by the snapshot,
	// re-queue the capture so a coordinating router still receives it
	// (frozen slices are immutable, so this capture equals the original).
	if s.frozenID != 0 {
		s.queueCaptureLocked(origin)
	}
	// Adopted stages whose coordinator is already gone from this ring's
	// membership will never see an ordered resolution: park them for the
	// decide ring's verdict, like a locally observed removal would have.
	for id, tx := range s.txns {
		if tx.decideRing >= 0 && len(s.live) > 0 && !s.live[tx.by] {
			s.orphans[id] = tx.by
		}
	}
	s.queueOrphanKickLocked()
	s.syncing.Store(false)
	if s.syncTimer != nil {
		s.syncTimer.Stop()
	}
	// Watchers must observe the state transfer: notify the diff between
	// the replaced state and the snapshot, in stable (key-sorted) order.
	for _, e := range diffImages(&old, &st.kv) {
		s.notifyLocked(e.key, e.val, e.del)
	}
	buf := s.buffer
	s.buffer = nil
	for _, b := range gapReplay {
		if b.isRemoval {
			s.applyRemovalReplayLocked(b.origin, b.seq)
			continue
		}
		s.applyFilteredLocked(b.origin, b.seq, b.op, b.raw)
	}
	for _, b := range buf {
		s.applyFilteredLocked(b.origin, b.seq, b.op, b.raw)
	}
	// An installed snapshot supersedes whatever the WAL held: fold it
	// into the on-disk snapshot so a crash right after the transfer
	// recovers the transferred state, not the pre-transfer log.
	s.compactLocked()
	// Local requests still in flight need no recovery here: the ring's
	// atomic multicast guarantees a live origin's message is eventually
	// delivered (the outbox and token copies survive regeneration and
	// merges), and the applied-vector filter plus ackCoveredSelfOpLocked
	// handle the snapshot-covered case.
}

// installSnapshotStateLocked adopts a decoded snapshot as this replica's
// full state — shared by ordered snapshot installs and WAL recovery. The
// sender's resharding state, staged transactions, and barriers come
// along: the ordered decisions below the snapshot's position must replay
// identically here. The recent log resets to the snapshot's baseline:
// ops applied before it must never replay on top of it (they may come
// from a pre-merge lineage it supersedes), and raising evictedHigh to
// the baseline makes any STALE snapshot deterministically skipped by the
// coverage check instead of rewinding state.
func (s *Service) installSnapshotStateLocked(st snapshotState) {
	s.rview.adopt(&st.kv)
	s.locks = st.locks
	if s.locks == nil {
		s.locks = make(map[string]*lockState)
	}
	s.applied = st.applied
	if s.applied == nil {
		s.applied = make(map[core.NodeID]uint64)
	}
	s.frozenID = st.frozenID
	s.frozenBy = st.frozenBy
	s.frozenEpoch = st.frozenEpoch
	s.frozen = st.frozen
	s.retired = st.retired
	s.staged = st.staged
	s.txns = st.txns
	if s.txns == nil {
		s.txns = make(map[uint64]*txnStage)
	}
	s.snapID, s.snapBy = st.snapID, st.snapBy
	s.removalCount = st.removals
	s.remEvictedHigh = st.removals
	s.decisionSeq = append([]uint64(nil), st.decisions...)
	s.decisions = make(map[uint64]bool, len(st.decisions))
	for _, id := range st.decisions {
		s.decisions[id] = true
	}
	s.recent = nil
	s.evictedHigh = make(map[core.NodeID]uint64, len(s.applied))
	for o, v := range s.applied {
		s.evictedHigh[o] = v
	}
}

// captureLocked snapshots the current state for the given target (NoNode
// = all replicas). Callers run inside an ordered handler, so the capture
// point is a well-defined position in the total order.
func (s *Service) capture(target core.NodeID) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.captureTargetLocked(target)
}

func (s *Service) captureTargetLocked(target core.NodeID) []byte {
	return encodeSnapshot(target, s.snapshotStateLocked())
}

// snapshotStateLocked assembles the replica's full replicated state —
// the same struct rides targeted transfers, broadcast resyncs, and the
// WAL's compacted on-disk snapshots.
func (s *Service) snapshotStateLocked() snapshotState {
	return snapshotState{
		kv: s.rview.image(), locks: s.locks, applied: s.applied,
		frozenID: s.frozenID, frozenBy: s.frozenBy, frozenEpoch: s.frozenEpoch,
		frozen: s.frozen, retired: s.retired, staged: s.staged,
		txns: s.txns, snapID: s.snapID, snapBy: s.snapBy,
		removals: s.removalCount, decisions: s.decisionSeq,
	}
}

// --- durability: WAL attachment and crash recovery ---

// Orphan-verdict states (see resolveOrphans and localVerdict).
const (
	verdictPending = iota
	verdictCommit
	verdictAbort
)

// SetStorage attaches a write-ahead log to this replica: every ordered
// apply is appended raw, and the tail compacts into a snapshot of the
// full replica state once it exceeds snapshotEvery bytes (0 disables
// size-triggered compaction). Call before the node starts, typically
// followed by Recover.
func (s *Service) SetStorage(log wal.Log, snapshotEvery int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.storage = log
	s.snapshotEvery = snapshotEvery
}

// Recover replays the attached log — compacted snapshot first, then the
// tail — rebuilding the replica's state as of the last append the log
// retained, and returns the number of tail records replayed. Call after
// SetStorage and before the node starts: the recovered applied vector is
// what the rejoin request advertises, so state transfer fast-forwards
// from here instead of retransferring the keyspace.
func (s *Service) Recover() (int, error) {
	s.mu.Lock()
	if s.storage == nil || s.closed {
		s.mu.Unlock()
		return 0, nil
	}
	snap, tail, err := s.storage.Recover()
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.recovering = true
	if snap != nil {
		if st, derr := decodeSnapshotState(snap); derr == nil {
			s.installSnapshotStateLocked(st)
		}
	}
	replayed := 0
	for _, rec := range tail {
		if rec.Origin == walRemovalOrigin {
			if len(rec.Payload) >= 4 {
				s.applyRemovalReplayLocked(core.NodeID(binary.LittleEndian.Uint32(rec.Payload)), rec.Seq)
				replayed++
			}
			continue
		}
		if o, ok := decodeOp(rec.Payload); ok {
			s.applyFilteredLocked(core.NodeID(rec.Origin), rec.Seq, o, rec.Payload)
			replayed++
		}
	}
	// Stages this node itself coordinated are orphans now: the pre-crash
	// commit driver died with the old process, so the decide ring's
	// verdict — not a retry that will never come — must resolve them.
	for id, tx := range s.txns {
		if tx.decideRing >= 0 && tx.by == s.id {
			s.orphans[id] = tx.by
		}
	}
	// Replay must not re-fire router callbacks or apply hooks: the
	// handoffs and captures they served are long resolved.
	s.postApply = nil
	s.hookKeys = nil
	s.recovering = false
	s.recovered = true
	if snap != nil || replayed > 0 {
		// Buffer ordered deliveries until state transfer anchors this
		// replica. The admitting token can still carry recent messages
		// whose delivery precedes the join announcement; applying them
		// now would graft a non-prefix of the ring's order onto the
		// recovered vector, and the rejoin request built from that
		// vector would make the responder's per-origin delta filter
		// replay older ops over newer effects. No fallback timer yet:
		// admission may take arbitrarily long, and the ordered
		// join/merge anchor (enterSync) starts the state-transfer
		// clock. A replica that instead seeds its own ring exits
		// through the singleton membership event.
		s.syncing.Store(true)
		s.buffer = nil
	}
	s.mu.Unlock()
	if replayed > 0 {
		s.node.Stats().Counter(stats.MetricRecoveryReplayed).Add(int64(replayed))
	}
	return replayed, nil
}

// String summarizes the replica (diagnostics).
func (s *Service) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return fmt.Sprintf("dds{node=%v keys=%d locks=%d syncing=%v}", s.id, len(s.rview.keys()), len(s.locks), s.syncing.Load())
}
