// Package txn adds multi-key cross-shard transactions to the sharded
// distributed data service: an epoch-pinned two-phase commit over the
// per-ring master locks.
//
// The sharded runtime totally orders each ring's traffic independently,
// so single-key operations are linearizable per key but two keys on
// different rings have no joint atomicity. A Coordinator restores it for
// transactions:
//
//	LOCK     every touched key's dds lock, acquired in one global order
//	         (shard id, then key) so concurrent coordinators cannot
//	         deadlock. The lock rides the same ring as the key, so a
//	         grant implies the local replica has applied every earlier
//	         ordered write to that key — reads under the lock are fresh.
//	PIN      the routing epoch. Any epoch advance — or a handoff in
//	         flight toward one — aborts the transaction with a retryable
//	         error; the ordered freeze/retired checks on each ring are
//	         the authoritative backstop (a prepare into a moving slice is
//	         rejected with ErrResharding at its ordered position).
//	PREPARE  one ordered multicast per participant ring staging the
//	         transaction's writes on every replica of that shard.
//	DECIDE   one ordered multicast on the decide ring replicating the
//	         commit record before any participant applies phase 2. This
//	         closes the classic 2PC window: a coordinator that dies
//	         mid-fan-out leaves stages the survivors resolve
//	         deterministically from the record (present: finish the
//	         commit; absent at the coordinator's ordered removal: abort,
//	         because ring FIFO proves phase 2 never started).
//	COMMIT   one ordered multicast per participant ring applying the
//	         staged writes atomically at that ring's position; or ABORT,
//	         dropping them. Participants whose coordinator was removed
//	         park the stage for the decide ring's verdict, and presume
//	         abort when the coordinator died before ordering a record.
//	UNLOCK   the keys. Readers that take the locks therefore see every
//	         write of a committed transaction or none ("atomic
//	         visibility"); bare Get readers converge per ring.
//
// Commit has no indeterminate outcome: phase-2 failures after the record
// is ordered report success — the outcome IS commit, and the unreached
// rings converge from the record. Every error Commit returns is an abort.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rcerr"
	"repro/internal/stats"
)

// Store is the sharded keyspace a Coordinator drives. *dds.Sharded
// implements it; tests may substitute fakes.
type Store interface {
	// Epoch returns the routing epoch the store currently routes by.
	Epoch() uint64
	// ShardFor maps a key or lock name to its owning shard (ring id).
	ShardFor(key string) int
	// GetLocal reads a key from its shard's local replica. The local
	// (eventual) read is sufficient here: transactional reads happen
	// under the per-ring master locks, whose ordered acquisition already
	// serialized this replica past every conflicting write.
	GetLocal(key string) ([]byte, bool)
	// Lock acquires the named per-ring master lock.
	Lock(ctx context.Context, name string) error
	// Unlock releases the named lock, waiting for the ordered apply at
	// most until ctx is done.
	Unlock(ctx context.Context, name string) error
	// NewTxnID mints a cluster-unique transaction id.
	NewTxnID() uint64
	// DecideRing returns the ring carrying replicated commit records
	// under the current routing table.
	DecideRing() int
	// TxnPrepare stages the transaction's writes for one shard at an
	// ordered position of its ring; decideRing (-1 = none) rides in the
	// stage so orphaned replicas know where the verdict lives.
	TxnPrepare(ctx context.Context, shard int, id uint64, epoch uint64, decideRing int, writes map[string][]byte, dels []string) error
	// TxnDecide orders the replicated commit record on the decide ring.
	TxnDecide(ctx context.Context, ring int, id uint64) error
	// TxnCommit applies the staged writes; TxnAbort drops them.
	TxnCommit(ctx context.Context, shard int, id uint64) error
	TxnAbort(ctx context.Context, shard int, id uint64) error
}

// ErrAborted reports a transaction that made no change anywhere: every
// participant either rejected the prepare or had its stage dropped. The
// cause is wrapped (ErrResharding, ErrSnapshotting, ErrEpochChanged, a
// lock timeout); the abort is retryable (it matches rcerr.ErrRetryable)
// — re-run the transaction.
var ErrAborted = rcerr.New("txn: transaction aborted, retry")

// defaultDeadline bounds Commit when the caller's context carries none:
// a transaction that cannot make progress (for example two coordinators
// on either side of an epoch flip ordering keys differently) must abort
// rather than hold its locks forever.
const defaultDeadline = 30 * time.Second

// commitPush bounds phase 2: the commit decision is made, so the pushes
// run on a context detached from the caller's cancellation.
const commitPush = 10 * time.Second

// Coordinator runs two-phase commits against a Store.
type Coordinator struct {
	store Store
	pin   func() func() error
	reg   *stats.Registry
}

// Option customizes a Coordinator.
type Option func(*Coordinator)

// WithRuntimePin pins transactions to the runtime's routing epoch: each
// transaction captures a core.EpochPin at Begin-time scope and aborts at
// any phase boundary where the epoch advanced or a handoff is in flight.
// Without it, the coordinator falls back to comparing Store.Epoch().
func WithRuntimePin(rt *core.Runtime) Option {
	return func(c *Coordinator) {
		c.pin = func() func() error {
			p := rt.PinEpoch()
			return p.Check
		}
	}
}

// WithStats counts phase-2 pushes handed to the background retrier
// (stats.MetricTxnPushOrphaned) in the registry.
func WithStats(reg *stats.Registry) Option {
	return func(c *Coordinator) { c.reg = reg }
}

// New builds a Coordinator over the store.
func New(store Store, opts ...Option) *Coordinator {
	c := &Coordinator{store: store}
	c.pin = func() func() error {
		pinned := store.Epoch()
		return func() error {
			if cur := store.Epoch(); cur != pinned {
				return fmt.Errorf("%w: pinned %d, now %d", core.ErrEpochChanged, pinned, cur)
			}
			return nil
		}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Txn is one transaction under construction: a read set and a write set,
// declared before Commit. The zero-effect transaction (reads only)
// commits without 2PC — it locks, reads, and unlocks.
type Txn struct {
	c      *Coordinator
	writes map[string][]byte
	dels   map[string]bool
	reads  map[string]bool
}

// Begin starts an empty transaction.
func (c *Coordinator) Begin() *Txn {
	return &Txn{
		c:      c,
		writes: make(map[string][]byte),
		dels:   make(map[string]bool),
		reads:  make(map[string]bool),
	}
}

// Set stages a write of key=val.
func (t *Txn) Set(key string, val []byte) *Txn {
	t.writes[key] = append([]byte(nil), val...)
	delete(t.dels, key)
	return t
}

// Delete stages a deletion of key.
func (t *Txn) Delete(key string) *Txn {
	t.dels[key] = true
	delete(t.writes, key)
	return t
}

// Read adds key to the read set; Commit returns its value as of the
// transaction's serialization point.
func (t *Txn) Read(key string) *Txn {
	t.reads[key] = true
	return t
}

// shardWrites groups one participant ring's share of the write set.
type shardWrites struct {
	kv   map[string][]byte
	dels []string
}

// Commit runs the transaction: lock in global order, pin the epoch, read
// the read set, prepare and commit the write set. It returns the read
// values at the transaction's serialization point. On ErrAborted nothing
// changed anywhere and the transaction can simply be retried.
func (t *Txn) Commit(ctx context.Context) (map[string][]byte, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, defaultDeadline)
		defer cancel()
	}
	c := t.c
	check := c.pin()

	// Global acquisition order: shard id, then key. Every coordinator
	// sorts the same way, so lock waits form no cycle.
	keys := make([]string, 0, len(t.reads)+len(t.writes)+len(t.dels))
	seen := make(map[string]bool)
	for k := range t.reads {
		seen[k] = true
		keys = append(keys, k)
	}
	for k := range t.writes {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range t.dels {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	shardOf := make(map[string]int, len(keys))
	for _, k := range keys {
		shardOf[k] = c.store.ShardFor(k)
	}
	sort.Slice(keys, func(i, j int) bool {
		si, sj := shardOf[keys[i]], shardOf[keys[j]]
		if si != sj {
			return si < sj
		}
		return keys[i] < keys[j]
	})

	var locked []string
	unlock := func() {
		for i := len(locked) - 1; i >= 0; i-- {
			// A release racing a keyspace handoff (or snapshot barrier) is
			// rejected retryably; the lock migrated with its owner intact,
			// so retrying until the epoch flips releases it on its new
			// home ring. Giving up instead would strand the lock and wedge
			// every later transaction on the key. Each lock gets its own
			// retry budget — one slice stuck in a long handoff must not
			// starve the releases of locks on healthy shards.
			uctx, cancel := context.WithTimeout(context.Background(), commitPush)
			for uctx.Err() == nil {
				err := c.store.Unlock(uctx, locked[i])
				if errors.Is(err, rcerr.ErrRetryable) {
					select {
					case <-uctx.Done():
					case <-time.After(2 * time.Millisecond):
					}
					continue
				}
				break // released, or not ours anymore (shard cleanup beat us)
			}
			cancel()
		}
	}
	abort := func(cause error) error {
		return fmt.Errorf("%w: %w", ErrAborted, cause)
	}

	for _, k := range keys {
		if err := c.store.Lock(ctx, k); err != nil {
			unlock()
			return nil, abort(fmt.Errorf("lock %q: %w", k, err))
		}
		locked = append(locked, k)
	}
	if err := check(); err != nil {
		unlock()
		return nil, abort(err)
	}

	// Serialization point: all locks held, epoch stable. Lock grants ride
	// the keys' own rings, so each local replica has applied every write
	// ordered before our acquisition — the reads are fresh.
	views := make(map[string][]byte, len(t.reads))
	for k := range t.reads {
		if v, ok := c.store.GetLocal(k); ok {
			views[k] = v
		}
	}

	byShard := make(map[int]*shardWrites)
	stage := func(shard int) *shardWrites {
		w := byShard[shard]
		if w == nil {
			w = &shardWrites{kv: make(map[string][]byte)}
			byShard[shard] = w
		}
		return w
	}
	for k, v := range t.writes {
		stage(shardOf[k]).kv[k] = v
	}
	for k := range t.dels {
		w := stage(shardOf[k])
		w.dels = append(w.dels, k)
	}
	if len(byShard) == 0 {
		unlock()
		return views, nil
	}
	participants := make([]int, 0, len(byShard))
	for sid := range byShard {
		participants = append(participants, sid)
	}
	sort.Ints(participants)

	id := c.store.NewTxnID()
	epoch := c.store.Epoch()
	decideRing := c.store.DecideRing()

	// Phase 1: stage the writes on every participant ring.
	var prepared []int
	rollback := func() {
		actx, cancel := context.WithTimeout(context.Background(), commitPush)
		defer cancel()
		for _, sid := range prepared {
			_ = c.store.TxnAbort(actx, sid, id)
		}
	}
	for _, sid := range participants {
		w := byShard[sid]
		if err := c.store.TxnPrepare(ctx, sid, id, epoch, decideRing, w.kv, w.dels); err != nil {
			// The failing shard must be aborted too: a prepare that timed
			// out after its multicast entered the ordered stream still
			// stages later, and an unresolved stage blocks every future
			// freeze and snapshot capture on that shard while this node
			// lives. Abort is idempotent, and ours orders after the
			// in-flight prepare on the same ring, so it always cleans up.
			prepared = append(prepared, sid)
			rollback()
			unlock()
			return nil, abort(fmt.Errorf("prepare shard %d: %w", sid, err))
		}
		prepared = append(prepared, sid)
	}
	if err := check(); err != nil {
		// An epoch moved (or is moving) under our staged writes: the
		// prepares held, but committing across two layouts risks writing
		// a key whose ring ownership just changed. Abort retryably.
		rollback()
		unlock()
		return nil, abort(err)
	}

	// Decide: replicate the commit record before any participant applies
	// phase 2. If ordering it fails we abort instead: the record may or
	// may not have landed on the decide ring, but the ordered aborts in
	// rollback() resolve every stage to abort regardless, and the id is
	// never reused, so a stray record is inert.
	if err := c.store.TxnDecide(ctx, decideRing, id); err != nil {
		rollback()
		unlock()
		return nil, abort(fmt.Errorf("decide on ring %d: %w", decideRing, err))
	}

	// Phase 2: the decision is commit. Push it to every participant on a
	// detached context — cancelling the caller's ctx here must not strand
	// half the rings.
	cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), commitPush)
	defer cancel()
	var failed []int
	for _, sid := range participants {
		if err := c.store.TxnCommit(cctx, sid, id); err != nil {
			failed = append(failed, sid)
		}
	}
	unlock()
	if len(failed) > 0 {
		// The commit record is ordered: the outcome IS commit, so report
		// success. The unreached rings converge from the record even if
		// this node dies right now; the background retrier just shortens
		// the window. TxnCommit is idempotent (a shard whose stage already
		// resolved applies a no-op).
		if c.reg != nil {
			c.reg.Counter(stats.MetricTxnPushOrphaned).Inc()
		}
		go func(pending []int) {
			for attempt := 0; attempt < 5 && len(pending) > 0; attempt++ {
				time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
				pctx, pcancel := context.WithTimeout(context.Background(), commitPush)
				var still []int
				for _, sid := range pending {
					if err := c.store.TxnCommit(pctx, sid, id); err != nil {
						still = append(still, sid)
					}
				}
				pcancel()
				pending = still
			}
		}(failed)
	}
	return views, nil
}
