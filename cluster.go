package raincore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dds"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Cluster is the unified handle on one node's membership in a Raincore
// deployment: the sharded multi-ring runtime, the sharded distributed
// data service, the cross-shard transaction coordinator and (optionally)
// the admin HTTP surface, built and started by one Open call.
//
// Every operation takes a context first and transparently retries the
// retryable failures the layers below surface — a Set racing an elastic
// grow, a Lock racing a snapshot barrier, a transaction aborted by an
// epoch flip — waking at the next routing-table event rather than
// polling blindly ("epoch-following" backoff). Callers therefore never
// meet ErrResharding, ErrSnapshotting, ErrEpochChanged or ErrTxnAborted
// unless their RetryPolicy's attempt budget runs out; errors that do
// surface are *Error values whose Retryable method (and the package's
// IsRetryable) give the machine-checkable classification.
type Cluster struct {
	rt          *core.Runtime
	dds         *dds.Sharded
	txn         *txn.Coordinator
	reg         *stats.Registry
	policy      RetryPolicy
	defaultRead []ReadOption
	backend     wal.Backend

	admin   *http.Server
	adminLn net.Listener

	// Joined latch: with peers configured, a freshly booted member that
	// seeded its own singleton group has not yet merged with them — its
	// pre-merge writes would be discarded by the lowest-ID-wins merge.
	expectPeers bool
	joined      atomic.Bool

	closed   atomic.Bool
	closeMu  sync.Mutex
	closeErr error
}

// RetryPolicy tunes the facade's built-in retry layer.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per operation; <= 0 retries until the
	// operation's context is done. The first try counts, so 1 disables
	// retries entirely.
	MaxAttempts int
	// BaseDelay and MaxDelay bound the exponential backoff between
	// attempts. The retry layer also wakes early at the next
	// routing-table publication or handoff abort, so the delay is a cap
	// on staleness, not the expected wait.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetryPolicy retries until the context is done, backing off from
// 1ms to 100ms between attempts (with epoch-following early wake-up).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 0, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond}
}

// delay returns the capped exponential backoff for the attempt (1-based).
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// defaultSnapshotEvery is the WAL compaction threshold when
// WithSnapshotEvery is not given.
const defaultSnapshotEvery = 4 << 20

// openConfig accumulates Open's functional options.
type openConfig struct {
	id          NodeID
	rings       int
	ring        RingConfig
	ringSet     bool
	transport   TransportConfig
	peers       map[NodeID][]Addr
	adminAddr   string
	policy      RetryPolicy
	reg         *stats.Registry
	trace       *trace.Log
	handlers    func(RingID) Handlers
	defaultRead []ReadOption

	storageDir     string
	storageBackend wal.Backend
	fsyncMode      string
	snapshotEvery  int64
}

// Option customizes Open.
type Option func(*openConfig)

// WithID sets this node's identity (required, non-zero).
func WithID(id NodeID) Option { return func(o *openConfig) { o.id = id } }

// WithRings sets the initial shard count S (default 1). Grow and Shrink
// change it at runtime.
func WithRings(n int) Option { return func(o *openConfig) { o.rings = n } }

// WithRingConfig sets the per-ring protocol template (timers, eligible
// membership, MaxBatch). When the template's Eligible list is empty,
// Open fills it with this node plus every WithPeer peer.
func WithRingConfig(rc RingConfig) Option {
	return func(o *openConfig) { o.ring, o.ringSet = rc, true }
}

// WithTransportConfig tunes the shared reliable unicast layer.
func WithTransportConfig(tc TransportConfig) Option {
	return func(o *openConfig) { o.transport = tc }
}

// WithPeer registers a peer's physical addresses; repeat per peer. Peers
// are reachable by every ring through the shared transport and, unless
// WithRingConfig supplies an explicit Eligible list, become part of the
// eligible membership.
func WithPeer(id NodeID, addrs ...Addr) Option {
	return func(o *openConfig) {
		if o.peers == nil {
			o.peers = make(map[NodeID][]Addr)
		}
		o.peers[id] = append(o.peers[id], addrs...)
	}
}

// WithAdmin serves the HTTP admin surface on addr: GET /health, GET
// /routing, GET /snapshot, POST /rings/add, POST /rings/remove?ring=N.
// Open fails if the address cannot be bound; AdminAddr reports the bound
// address (useful with ":0").
func WithAdmin(addr string) Option { return func(o *openConfig) { o.adminAddr = addr } }

// WithRetryPolicy replaces the DefaultRetryPolicy of the built-in retry
// layer.
func WithRetryPolicy(p RetryPolicy) Option { return func(o *openConfig) { o.policy = p } }

// WithDefaultReadOptions sets the consistency mode Cluster.Get applies
// when a call passes no ReadOption of its own — a cluster-wide default
// set once at Open instead of repeated per call (a gateway fronting the
// cluster sets its configured read mode this way). Explicit options on a
// Get call replace the default entirely — per-call WithEventual()
// overrides a stricter default. With no default configured, bare Gets
// keep the historical allocation-free eventual fast path.
func WithDefaultReadOptions(opts ...ReadOption) Option {
	return func(o *openConfig) { o.defaultRead = append(o.defaultRead, opts...) }
}

// WithStorage persists every ring replica's ordered applies to a
// checksummed write-ahead log under dir and restores them at the next
// Open: the node replays its last snapshot plus the log tail locally,
// then rejoins the cluster and fast-forwards through a delta state
// transfer covering only the ops it missed — instead of a full keyspace
// retransfer. The routing table (ring set and epoch) persists alongside,
// so a restarted node re-spawns the rings it hosted at crash time. Tune
// with WithFsyncMode and WithSnapshotEvery.
func WithStorage(dir string) Option { return func(o *openConfig) { o.storageDir = dir } }

// WithStorageBackend substitutes the durability backend WithStorage
// would build — NewMemoryStorage() gives tests crash-restart semantics
// (the backend survives a Close and recovers in-process) without disk.
// It overrides WithStorage when both are given.
func WithStorageBackend(b StorageBackend) Option {
	return func(o *openConfig) { o.storageBackend = b }
}

// WithFsyncMode selects the WAL durability point for WithStorage:
// "always" fsyncs every append, "batch" (the default) fsyncs on a short
// timer so a crash loses at most the last few milliseconds locally (the
// replicas still hold the data — recovery fast-forwards through state
// transfer), "none" leaves flushing to the OS.
func WithFsyncMode(mode string) Option { return func(o *openConfig) { o.fsyncMode = mode } }

// WithSnapshotEvery compacts a ring's WAL into an atomic snapshot once
// the log exceeds n bytes (default 4 MiB; <= 0 keeps the default).
func WithSnapshotEvery(n int64) Option { return func(o *openConfig) { o.snapshotEvery = n } }

// WithStats supplies the metric registry the runtime, transport, shards
// and retry layer record into (default: a private registry, readable via
// Cluster.Stats).
func WithStats(reg *StatsRegistry) Option { return func(o *openConfig) { o.reg = reg } }

// WithTrace records protocol events of every ring into the log.
func WithTrace(tl *TraceLog) Option { return func(o *openConfig) { o.trace = tl } }

// WithHandlers registers per-ring application handlers (ordered
// deliveries that are not data-service operations, membership events,
// system events, shutdown). fn is invoked once per ring, including rings
// spawned by later grows.
func WithHandlers(fn func(RingID) Handlers) Option {
	return func(o *openConfig) { o.handlers = fn }
}

// Open assembles and starts one cluster member over the given transport
// conns: the sharded multi-ring runtime, one data-service replica per
// ring routed by consistent hashing, the cross-shard transaction
// coordinator pinned to the routing epoch, and (with WithAdmin) the
// admin HTTP surface. It replaces the pre-facade composition older
// callers assembled by hand (runtime constructor, data-service attach,
// txn-coordinator constructor, hand-rolled retry loops).
//
// The cluster is started but not necessarily assembled when Open
// returns; peers discover each other through the BODYODOR protocol. Use
// WaitMembers to block until the membership converges.
func Open(ctx context.Context, conns []PacketConn, opts ...Option) (*Cluster, error) {
	o := openConfig{rings: 1, policy: DefaultRetryPolicy()}
	for _, opt := range opts {
		opt(&o)
	}
	if err := ctx.Err(); err != nil {
		return nil, opError("open", "", err)
	}
	if o.id == NoNode {
		return nil, opError("open", "", errors.New("node ID is required (WithID)"))
	}
	if !o.ringSet {
		o.ring = PaperRing()
	}
	if len(o.ring.Eligible) == 0 {
		o.ring.Eligible = append(o.ring.Eligible, o.id)
		for pid := range o.peers {
			o.ring.Eligible = append(o.ring.Eligible, pid)
		}
	}
	if o.reg == nil {
		o.reg = stats.NewRegistry()
	}
	fsync := wal.FsyncBatch
	if o.fsyncMode != "" {
		var err error
		if fsync, err = wal.ParseFsyncMode(o.fsyncMode); err != nil {
			return nil, opError("open", "", err)
		}
	}
	snapEvery := o.snapshotEvery
	if snapEvery <= 0 {
		snapEvery = defaultSnapshotEvery
	}
	backend := o.storageBackend
	if backend == nil && o.storageDir != "" {
		b, err := wal.Open(o.storageDir, wal.Options{Fsync: fsync, Stats: o.reg})
		if err != nil {
			return nil, opError("open", "", err)
		}
		backend = b
	}
	rcfg := core.RuntimeConfig{
		ID:        o.id,
		Rings:     o.rings,
		Ring:      o.ring,
		Transport: o.transport,
		Registry:  o.reg,
		Trace:     o.trace,
	}
	if backend != nil {
		// A persisted routing table trumps WithRings: the node re-spawns
		// the ring set it hosted at crash time on the epoch it last saw,
		// so its WAL replays line up ring-for-ring.
		meta, ok, err := backend.LoadRouting()
		if err != nil {
			_ = backend.Close()
			return nil, opError("open", "", err)
		}
		if ok && len(meta.Rings) > 0 {
			for _, rid := range meta.Rings {
				rcfg.RingIDs = append(rcfg.RingIDs, RingID(rid))
			}
			rcfg.RoutingEpoch = meta.Epoch
			// This is a restart, not a first boot: re-enter through the
			// ordered join path so the survivors fast-forward this node's
			// recovered replicas with a delta instead of a full resync.
			rcfg.Rejoin = true
		}
	}
	rt, err := core.NewShardedRuntime(rcfg, conns)
	if err != nil {
		if backend != nil {
			_ = backend.Close()
		}
		return nil, opError("open", "", err)
	}
	sharded, err := dds.AttachSharded(rt)
	if err != nil {
		rt.Close()
		if backend != nil {
			_ = backend.Close()
		}
		return nil, opError("open", "", err)
	}
	c := &Cluster{
		rt:          rt,
		dds:         sharded,
		txn:         txn.New(sharded, txn.WithRuntimePin(rt), txn.WithStats(o.reg)),
		reg:         o.reg,
		policy:      o.policy,
		defaultRead: o.defaultRead,
		backend:     backend,
		expectPeers: len(o.peers) > 0,
	}
	if backend != nil {
		// Attach each active ring's log and replay it locally before the
		// rings start: snapshot plus tail rebuild the replica's state and
		// applied vector, so the join-time state transfer only has to
		// cover the gap (a delta, not the keyspace).
		for _, rid := range rt.Routing().Rings {
			log, err := backend.Ring(int(rid))
			if err == nil {
				svc := sharded.Shard(int(rid))
				svc.SetStorage(log, snapEvery)
				_, err = svc.Recover()
			}
			if err != nil {
				rt.Close()
				_ = backend.Close()
				return nil, opError("open", "", fmt.Errorf("recover ring %v: %w", rid, err))
			}
		}
		// Rings grown later start empty (the handoff transfers their
		// slice); they only need a log attached for future appends.
		rt.OnRingSpawn(func(rid RingID, _ *Node) {
			if log, err := backend.Ring(int(rid)); err == nil {
				if svc := sharded.Shard(int(rid)); svc != nil {
					svc.SetStorage(log, snapEvery)
				}
			}
		})
		saveRouting := func(v RoutingView) {
			rings := make([]int, len(v.Rings))
			for i, r := range v.Rings {
				rings[i] = int(r)
			}
			_ = backend.SaveRouting(wal.RoutingMeta{Epoch: v.Epoch, Rings: rings})
		}
		saveRouting(rt.Routing())
		rt.RoutingWatch(saveRouting)
	}
	if o.handlers != nil {
		for _, rid := range rt.Routing().Rings {
			sharded.Shard(int(rid)).SetAppHandlers(o.handlers(rid))
		}
		// The dds spawn hook registered first (inside AttachSharded), so
		// the shard exists by the time this one runs for a grown ring.
		rt.OnRingSpawn(func(rid RingID, _ *Node) {
			sharded.Shard(int(rid)).SetAppHandlers(o.handlers(rid))
		})
	}
	for pid, addrs := range o.peers {
		rt.SetPeer(pid, addrs)
	}
	if o.adminAddr != "" {
		ln, err := net.Listen("tcp", o.adminAddr)
		if err != nil {
			rt.Close()
			return nil, opError("open", "", fmt.Errorf("admin listen %s: %w", o.adminAddr, err))
		}
		c.adminLn = ln
		c.admin = &http.Server{Handler: c.adminMux()}
		go func() { _ = c.admin.Serve(ln) }()
	}
	rt.Start()
	return c, nil
}

// retry runs fn under the cluster's RetryPolicy: retryable failures are
// absorbed (counted in the counter metric) with epoch-following backoff
// — the wait wakes at the next routing-table publication or handoff
// abort, capped by the policy's delay — until fn succeeds, the failure
// is permanent, the attempt budget runs out, or ctx is done. The
// terminal error is wrapped as *Error{Op: op, Key: key}.
func retry[T any](ctx context.Context, c *Cluster, op, key, counter string, fn func() (T, error)) (T, error) {
	var attempt int
	for {
		v, err := fn()
		if err == nil {
			return v, nil
		}
		attempt++
		if !IsRetryable(err) {
			return v, opError(op, key, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			// The context died while a retryable condition was up. The
			// taxonomy must not classify this terminal error retryable —
			// the caller's own retry loop would spin on a dead context —
			// so the context error is the wrapped cause and the retryable
			// one is flattened into the message.
			return v, opError(op, key, fmt.Errorf("gave up retrying (%v): %w", err, cerr))
		}
		if c.policy.MaxAttempts > 0 && attempt >= c.policy.MaxAttempts {
			return v, opError(op, key, err)
		}
		c.reg.Counter(counter).Inc()
		sig := c.rt.RoutingSignal()
		select {
		case <-ctx.Done():
			return v, opError(op, key, ctx.Err())
		case <-sig:
		case <-time.After(c.policy.delay(attempt)):
		}
	}
}

// retryErr is retry for operations with no result value.
func retryErr(ctx context.Context, c *Cluster, op, key string, fn func() error) error {
	_, err := retry(ctx, c, op, key, stats.MetricClusterRetries, func() (struct{}, error) {
		return struct{}{}, fn()
	})
	return err
}

// alive rejects operations on a closed cluster.
func (c *Cluster) alive(op, key string) error {
	if c.closed.Load() {
		return opError(op, key, errors.New("cluster is closed"))
	}
	return nil
}

// --- data operations (context-first, auto-retrying) ---

// Get reads a key from its shard's local replica under the requested
// consistency mode. With no options it is an eventual read — today's
// (and the historical) behavior: serve the local replica as-is, never
// blocking and never rejected by handoffs or snapshot barriers. The
// moded forms (WithSession, WithMaxStaleness, WithLinearizable,
// WithReadLease) may wait for the replica to catch up or order a fence
// on the key's ring; those waits honor ctx cancellation and deadlines
// throughout, and a shard shutting down mid-wait (an elastic shrink) is
// retried against the new routing table like any other retryable
// failure. Terminal failures surface as *Error{Op: "get"}.
func (c *Cluster) Get(ctx context.Context, key string, opts ...ReadOption) (val []byte, ok bool, err error) {
	if err := c.alive("get", key); err != nil {
		return nil, false, err
	}
	if len(opts) == 0 {
		// No per-call choice: the WithDefaultReadOptions mode, if any,
		// applies. An explicit option set always replaces the default.
		opts = c.defaultRead
	}
	if len(opts) == 0 {
		// Eventual fast path: purely local, nothing to wait on, so one
		// upfront ctx check suffices and the retry machinery stays out of
		// the way.
		if err := ctx.Err(); err != nil {
			return nil, false, opError("get", key, err)
		}
		v, ok := c.dds.GetLocal(key)
		return v, ok, nil
	}
	type getRes struct {
		v  []byte
		ok bool
	}
	r, err := retry(ctx, c, "get", key, stats.MetricClusterRetries, func() (getRes, error) {
		v, ok, err := c.dds.Get(ctx, key, opts...)
		return getRes{v, ok}, err
	})
	if err != nil {
		return nil, false, err
	}
	return r.v, r.ok, nil
}

// NewSession starts a read-your-writes session: writes made through it
// record their ordered position, and session reads — sess.Get, or
// Cluster.Get with WithSession(sess) on any node's Cluster — are
// guaranteed to observe them. Sessions are safe for concurrent use and
// cheap; use one per logical client.
func (c *Cluster) NewSession() *Session {
	return &Session{c: c, s: c.dds.NewSession()}
}

// Session is the facade's read-your-writes handle: Cluster semantics
// (context-first, auto-retrying, *Error taxonomy) over a dds session.
type Session struct {
	c *Cluster
	s *dds.Session
}

// Set writes key=val through the session, recording the write so later
// session reads observe it. Retries transient rejections like
// Cluster.Set.
func (s *Session) Set(ctx context.Context, key string, val []byte) error {
	if err := s.c.alive("set", key); err != nil {
		return err
	}
	return retryErr(ctx, s.c, "set", key, func() error { return s.s.Set(ctx, key, val) })
}

// Delete removes a key through the session, recording the deletion so
// later session reads observe it.
func (s *Session) Delete(ctx context.Context, key string) error {
	if err := s.c.alive("delete", key); err != nil {
		return err
	}
	return retryErr(ctx, s.c, "delete", key, func() error { return s.s.Delete(ctx, key) })
}

// Get reads a key at session (read-your-writes) consistency.
func (s *Session) Get(ctx context.Context, key string) ([]byte, bool, error) {
	return s.c.Get(ctx, key, dds.WithSession(s.s))
}

// Set writes key=val on the key's shard and returns once the write has
// applied locally (read-your-writes). A handoff or snapshot barrier over
// the key's slice is retried away internally.
func (c *Cluster) Set(ctx context.Context, key string, val []byte) error {
	if err := c.alive("set", key); err != nil {
		return err
	}
	return retryErr(ctx, c, "set", key, func() error { return c.dds.Set(ctx, key, val) })
}

// Delete removes a key on its shard, retrying transient rejections.
func (c *Cluster) Delete(ctx context.Context, key string) error {
	if err := c.alive("delete", key); err != nil {
		return err
	}
	return retryErr(ctx, c, "delete", key, func() error { return c.dds.Delete(ctx, key) })
}

// Lock acquires the named lock on its owning shard, blocking until
// granted or ctx is done, and retrying through handoff windows.
func (c *Cluster) Lock(ctx context.Context, name string) error {
	if err := c.alive("lock", name); err != nil {
		return err
	}
	return retryErr(ctx, c, "lock", name, func() error { return c.dds.Lock(ctx, name) })
}

// Unlock releases the named lock held by this node, retrying a release
// that races a keyspace handoff (the lock migrates with its owner
// intact) until it applies or ctx is done.
func (c *Cluster) Unlock(ctx context.Context, name string) error {
	if err := c.alive("unlock", name); err != nil {
		return err
	}
	return retryErr(ctx, c, "unlock", name, func() error { return c.dds.Unlock(ctx, name) })
}

// Holder reports the current owner of the named lock.
func (c *Cluster) Holder(name string) (NodeID, bool) { return c.dds.Holder(name) }

// Keys lists the union of all shards' keys, sorted.
func (c *Cluster) Keys() []string { return c.dds.Keys() }

// Watch registers a callback for key changes on every shard, including
// shards attached by later grows. See ShardedDDS.Watch for the ordering
// contract.
func (c *Cluster) Watch(fn func(key string, val []byte, deleted bool)) { c.dds.Watch(fn) }

// OnApply registers an observer of the ordered apply stream: fn runs
// once per applied operation that changed keys, on every shard
// (including later grows), after the replica's state advanced. A cache
// layer in front of the cluster (for example the gateway's read
// micro-cache) hooks this to evict entries the moment a write from ANY
// node applies locally, instead of waiting out a TTL. fn must not block:
// it runs on the shard's apply path.
func (c *Cluster) OnApply(fn func(ApplyEvent)) { c.dds.OnApply(fn) }

// --- transactions ---

// Tx is one multi-key cross-shard transaction under construction:
// declare the read and write sets, then Commit. Commit re-runs the
// transaction when it aborts retryably (an epoch flip, a handoff freeze,
// a snapshot barrier), so the caller only ever sees success or its
// context expiring.
type Tx struct {
	c *Cluster
	t *txn.Txn
}

// Txn starts an empty transaction.
func (c *Cluster) Txn() *Tx { return &Tx{c: c, t: c.txn.Begin()} }

// Set stages a write of key=val.
func (t *Tx) Set(key string, val []byte) *Tx { t.t.Set(key, val); return t }

// Delete stages a deletion of key.
func (t *Tx) Delete(key string) *Tx { t.t.Delete(key); return t }

// Read adds key to the read set; Commit returns its value as of the
// transaction's serialization point.
func (t *Tx) Read(key string) *Tx { t.t.Read(key); return t }

// Commit runs the transaction — lock in global order, pin the epoch,
// prepare and commit via 2PC — re-running it on retryable aborts until
// it commits or ctx is done. The returned map holds the read-set values
// at the serialization point of the attempt that committed. A
// transaction whose commit record is ordered reports success even if a
// phase-2 push failed: the unreached rings converge from the record, so
// no attempt is ever partially applied.
func (t *Tx) Commit(ctx context.Context) (map[string][]byte, error) {
	if err := t.c.alive("txn", ""); err != nil {
		return nil, err
	}
	return retry(ctx, t.c, "txn", "", stats.MetricClusterTxnRetries, func() (map[string][]byte, error) {
		return t.t.Commit(ctx)
	})
}

// --- cluster-wide operations ---

// Snapshot captures a consistent cut of the whole sharded keyspace (see
// ShardedDDS.Snapshot), retrying conflicts with in-flight reshards or
// concurrent snapshots.
func (c *Cluster) Snapshot(ctx context.Context) (map[string][]byte, error) {
	if err := c.alive("snapshot", ""); err != nil {
		return nil, err
	}
	return retry(ctx, c, "snapshot", "", stats.MetricClusterRetries, func() (map[string][]byte, error) {
		return c.dds.Snapshot(ctx)
	})
}

// Grow adds one ring to the runtime and migrates the keyspace slice the
// consistent-hash diff names onto it. Every node of the cluster must
// call Grow (the ring assembles via discovery; the lowest member
// coordinates the handoff). An aborted handoff — a transaction staged
// mid-freeze, a ring dying — is retried until ctx is done; a concurrent
// reshard on this node (ErrReshardInProgress) is a permanent error.
func (c *Cluster) Grow(ctx context.Context) (RingID, error) {
	if err := c.alive("grow", ""); err != nil {
		return 0, err
	}
	return retry(ctx, c, "grow", "", stats.MetricClusterRetries, func() (RingID, error) {
		return c.rt.AddRing(ctx)
	})
}

// Shrink removes the ring, handing its keyspace slice back to the
// survivors. Like Grow it must be called on every node and retries
// aborted handoffs.
func (c *Cluster) Shrink(ctx context.Context, ring RingID) error {
	if err := c.alive("shrink", ""); err != nil {
		return err
	}
	return retryErr(ctx, c, "shrink", "", func() error { return c.rt.RemoveRing(ctx, ring) })
}

// Multicast submits an application payload on the given ring with agreed
// ordering; it is delivered to the WithHandlers callbacks of every
// member.
func (c *Cluster) Multicast(ring RingID, payload []byte) error {
	if err := c.alive("multicast", ""); err != nil {
		return err
	}
	return opError("multicast", "", c.rt.Multicast(ring, payload))
}

// --- views and accessors ---

// Health returns the full runtime health view: per-ring membership and
// liveness, the routing epoch, and demux drop counters.
func (c *Cluster) Health() RuntimeHealth { return c.rt.HealthView() }

// Healthy reports whether every ring of this node is running.
func (c *Cluster) Healthy() bool { return c.rt.Healthy() }

// Joined reports whether this member has assembled with its configured
// peers: true once the combined membership holds more than this node
// (sticky — a later partition does not clear it), and trivially true for
// a member opened with no peers. A gateway fronting the cluster gates
// writes on it: a freshly booted member that seeded its own singleton
// group and has not yet merged would otherwise accept writes the
// lowest-ID-wins group merge silently discards.
func (c *Cluster) Joined() bool {
	if c.joined.Load() {
		return true
	}
	if !c.expectPeers || len(c.rt.Members()) > 1 {
		c.joined.Store(true)
		return true
	}
	return false
}

// Members returns the combined membership view (nodes present in every
// active ring).
func (c *Cluster) Members() []NodeID { return c.rt.Members() }

// Routing returns the current epoch-versioned routing table.
func (c *Cluster) Routing() RoutingView { return c.rt.Routing() }

// RoutingWatch registers a callback invoked after every routing-epoch
// publication.
func (c *Cluster) RoutingWatch(fn func(RoutingView)) { c.rt.RoutingWatch(fn) }

// Stats returns the cluster's metric registry.
func (c *Cluster) Stats() *StatsRegistry { return c.reg }

// Runtime exposes the underlying sharded runtime for advanced
// composition (per-ring nodes, spawn hooks). Most callers never need it.
func (c *Cluster) Runtime() *Runtime { return c.rt }

// DDS exposes the underlying sharded data service. Most callers should
// use the Cluster's own retrying operations instead.
func (c *Cluster) DDS() *ShardedDDS { return c.dds }

// AdminAddr reports the bound admin address ("" without WithAdmin).
func (c *Cluster) AdminAddr() string {
	if c.adminLn == nil {
		return ""
	}
	return c.adminLn.Addr().String()
}

// WaitMembers blocks until the combined membership view holds exactly n
// members, or ctx is done.
func (c *Cluster) WaitMembers(ctx context.Context, n int) error {
	for {
		if len(c.Members()) == n {
			return nil
		}
		select {
		case <-ctx.Done():
			return opError("wait-members", "", fmt.Errorf("membership %v after %w", c.Members(), ctx.Err()))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// --- shutdown ---

// closeDrain bounds how long Close waits for staged transactions to
// resolve before tearing the runtime down.
const closeDrain = 2 * time.Second

// Leave departs the cluster gracefully: every ring announces an ordered
// leave (peers converge immediately instead of waiting for failure
// detection), the departure is awaited at most until ctx is done, and
// the cluster is closed.
func (c *Cluster) Leave(ctx context.Context) error {
	if c.closed.Load() {
		return c.Close()
	}
	nodes := c.rt.Nodes()
	for _, n := range nodes {
		n.Leave()
	}
	for {
		all := true
		for _, n := range nodes {
			if !n.Stopped() {
				all = false
				break
			}
		}
		if all || ctx.Err() != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return c.Close()
}

// Close shuts the cluster down in order: staged cross-shard transactions
// are drained (bounded), the admin surface stops accepting requests, and
// the runtime closes every ring and the shared transport. It is
// idempotent — a second Close returns the first one's result.
func (c *Cluster) Close() error {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed.Swap(true) {
		return c.closeErr
	}
	// Drain: a staged (prepared but unresolved) transaction on a local
	// replica means some coordinator is mid-2PC; give it a bounded window
	// to commit or abort so this node's departure doesn't force the
	// presumed-abort path.
	deadline := time.Now().Add(closeDrain)
	for c.dds.PendingTxns() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if c.admin != nil {
		_ = c.admin.Close()
	}
	err := c.rt.Close()
	if c.backend != nil {
		// The backend closes after the rings: the last ordered applies
		// (and the decide records they may carry) reach the log first.
		if berr := c.backend.Close(); err == nil {
			err = berr
		}
	}
	c.closeErr = opError("close", "", err)
	return c.closeErr
}

// --- admin HTTP surface ---

// adminMux builds the admin handler set raincored historically served,
// now owned by the facade so every deployment gets the same surface.
func (c *Cluster) adminMux() *http.ServeMux {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("GET /health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Health())
	})
	mux.HandleFunc("GET /routing", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Routing())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		snap, batch, pools := c.statsSnapshot()
		writeJSON(w, map[string]any{
			"counters":   snap.Counters,
			"gauges":     snap.Gauges,
			"histograms": snap.Histograms,
			// Process-global transport internals: frames-per-syscall
			// amortization from the mmsg batching and wire buffer pool
			// effectiveness.
			"udp_batch":   batch,
			"frame_pools": pools,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap, _, _ := c.statsSnapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WriteText(w)
	})
	mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
		defer cancel()
		snap, err := c.Snapshot(ctx)
		if err != nil {
			http.Error(w, err.Error(), adminStatus(err))
			return
		}
		writeJSON(w, map[string]any{"routing": c.Routing(), "keys": snap})
	})
	mux.HandleFunc("POST /rings/add", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 60*time.Second)
		defer cancel()
		ringID, err := c.Grow(ctx)
		if err != nil {
			http.Error(w, err.Error(), adminStatus(err))
			return
		}
		writeJSON(w, map[string]any{"ring": ringID, "routing": c.Routing()})
	})
	mux.HandleFunc("POST /rings/remove", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.ParseUint(r.URL.Query().Get("ring"), 10, 32)
		if err != nil {
			http.Error(w, "want ?ring=N", http.StatusBadRequest)
			return
		}
		ringID := RingID(n)
		ctx, cancel := context.WithTimeout(r.Context(), 60*time.Second)
		defer cancel()
		if err := c.Shrink(ctx, ringID); err != nil {
			http.Error(w, err.Error(), adminStatus(err))
			return
		}
		writeJSON(w, map[string]any{"routing": c.Routing()})
	})
	return mux
}

// statsSnapshot is the single registry-snapshot code path behind both
// observability surfaces: GET /stats (JSON) and GET /metrics (Prometheus
// text) render from one call of this, so the two can never disagree
// about what one scrape observed.
func (c *Cluster) statsSnapshot() (stats.Snapshot, transport.BatchStatsSnapshot, wire.PoolStatsSnapshot) {
	return c.reg.Snapshot(), transport.BatchStats(), wire.PoolStats()
}

// adminStatus maps the error taxonomy onto HTTP: retryable conflicts are
// 409 (try again), everything else is a 500.
func adminStatus(err error) int {
	if IsRetryable(err) || errors.Is(err, ErrReshardInProgress) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}
