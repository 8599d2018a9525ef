package dds

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
)

// Sharded routes the distributed data service across the rings of a
// sharded multi-ring runtime. Keys and lock names are consistent-hashed
// onto one Service replica per ring, so each ring totally orders only its
// slice of the keyspace: per-key (and per-lock) ordering is preserved
// while aggregate throughput scales with the ring count.
//
// The shard set is elastic. The router consults the runtime's
// epoch-versioned routing table on every route: a grow or shrink
// (Runtime.AddRing / Runtime.RemoveRing) moves exactly the keyspace
// slices the consistent-hash diff names, through an ordered handoff
// (resharding.go) that freezes the moving slices, snapshots them out of
// the source shards, installs them into the targets via their rings'
// ordered streams, and flips every node to the new epoch at an ordered
// position — so per-key ordering survives the move. During the handoff
// window, writes into a moving slice fail with the retryable
// ErrResharding; every other key is routed and served without pause.
//
// Cross-shard atomicity is intentionally NOT provided: two keys on
// different shards are ordered independently, the same trade every
// hash-sharded store makes.
type Sharded struct {
	rt  *core.Runtime   // nil for a static (fixed shard list) router
	reg *stats.Registry // runtime registry for handoff metrics
	id  core.NodeID     // local node identity

	mu       sync.RWMutex
	epoch    uint64
	ring     *hashRing        // current epoch's key -> ring id map
	shards   map[int]*Service // by ring id; includes a mid-handoff target
	watchers []func(key string, val []byte, deleted bool)
	applyObs []func(ApplyEvent)
	// Write-batch observer, replayed onto replicas attached by later
	// grows.
	batchObs func(ops int)

	// Handoff observation state (participant side) and coordination
	// state (coordinator side); see resharding.go.
	reshardMu sync.Mutex
	obsID     uint64       // reshard id currently being observed
	obsFlips  map[int]bool // targets flipped for obsID
	lead      *leadReshard
	nextRID   uint64
	// Cross-shard transaction ids and the in-flight snapshot coordinator
	// state (see txn_api.go and snapshot.go).
	nextTxn  uint64
	snapLead *leadSnap

	// Per-shard read leases for linearizable reads (see read.go).
	leaseMu sync.Mutex
	leases  map[int]readLease
}

// NewSharded builds a static router over one Service replica per ring, in
// ring order (ring ids 0..len-1). The shard list is fixed for the
// lifetime of the router; every node of the cluster must construct it
// with the same shard count. Use AttachSharded for an elastic router.
func NewSharded(shards []*Service) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, errors.New("dds: sharded service needs at least one shard")
	}
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("dds: shard %d is nil", i)
		}
	}
	s := &Sharded{
		epoch:  1,
		ring:   newHashRing(len(shards), defaultReplicas),
		shards: make(map[int]*Service, len(shards)),
	}
	for i, svc := range shards {
		s.shards[i] = svc
	}
	return s, nil
}

// AttachSharded builds one Service replica per ring of the runtime,
// routes across them by the runtime's routing table, and registers as the
// runtime's Resharder so AddRing/RemoveRing migrate the keyspace through
// the ordered handoff. Call before Runtime.Start so every replica
// observes its ring's ordered stream from the first event.
func AttachSharded(rt *core.Runtime) (*Sharded, error) {
	view := rt.Routing()
	s := &Sharded{
		rt:     rt,
		reg:    rt.Stats(),
		id:     rt.ID(),
		epoch:  view.Epoch,
		shards: make(map[int]*Service, len(view.Rings)),
	}
	ids := make([]int, 0, len(view.Rings))
	for _, rid := range view.Rings {
		n := rt.Node(rid)
		if n == nil {
			return nil, fmt.Errorf("dds: runtime has no node for ring %v", rid)
		}
		s.attachReplica(int(rid), n)
		ids = append(ids, int(rid))
	}
	s.ring = newHashRingFor(ids, defaultReplicas)
	// Seed each replica's ownership guard: ordered writes for keys a
	// shard does not own are rejected, the backstop against writes
	// routed under a stale epoch.
	for _, id := range ids {
		s.shards[id].setRetired(complementRanges(s.ring, id))
	}
	rt.OnRingSpawn(func(id core.RingID, n *core.Node) { s.attachReplica(int(id), n) })
	rt.SetResharder(s)
	return s, nil
}

// attachReplica builds the replica for one ring and adds it to the shard
// map. A dynamically spawned ring's replica exists before the ring joins
// the routing table — it only becomes routable at the epoch flip.
func (s *Sharded) attachReplica(ringID int, n *core.Node) *Service {
	svc := New(n)
	svc.bindRouter(s, ringID)
	if s.ring != nil && !s.ring.hasID(ringID) {
		// A freshly spawned target ring owns nothing until its flip: the
		// whole circle is retired, so no stray write can land before the
		// handoff installs state.
		svc.setRetired(complementRanges(s.ring, ringID))
	}
	s.mu.Lock()
	next := make(map[int]*Service, len(s.shards)+1)
	for id, sh := range s.shards {
		next[id] = sh
	}
	next[ringID] = svc
	s.shards = next
	watchers := make([]func(string, []byte, bool), len(s.watchers))
	copy(watchers, s.watchers)
	applyObs := make([]func(ApplyEvent), len(s.applyObs))
	copy(applyObs, s.applyObs)
	batchObs := s.batchObs
	s.mu.Unlock()
	for _, fn := range watchers {
		svc.Watch(fn)
	}
	for _, fn := range applyObs {
		svc.OnApply(fn)
	}
	if batchObs != nil {
		svc.OnWriteBatch(batchObs)
	}
	return svc
}

// OnWriteBatch registers one observer of flushed batch sizes across
// every shard (the gateway's batch-size histogram). Call before the
// runtime starts; only one observer is supported.
func (s *Sharded) OnWriteBatch(fn func(ops int)) {
	s.mu.Lock()
	s.batchObs = fn
	shards := s.shards
	s.mu.Unlock()
	for _, svc := range shards {
		svc.OnWriteBatch(fn)
	}
}

// Epoch returns the routing epoch the router currently routes by.
func (s *Sharded) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// NumShards returns the active shard (ring) count of the current epoch.
func (s *Sharded) NumShards() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ring.ids)
}

// ShardFor returns the ring id owning the key or lock name.
func (s *Sharded) ShardFor(key string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.lookup(key)
}

// Shard returns the replica for a ring id (nil if unknown). A target ring
// mid-handoff is present before it becomes routable.
func (s *Sharded) Shard(i int) *Service {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[i]
}

// routeRead picks the replica serving reads for the key. Reads never
// block on a handoff: until the flip the source shard serves the frozen
// slice, after it the target does.
func (s *Sharded) routeRead(key string) *Service {
	s.mu.RLock()
	svc := s.shards[s.ring.lookup(key)]
	s.mu.RUnlock()
	return svc
}

// routeWrite picks the replica accepting writes for the key, failing fast
// with ErrResharding while the key's slice is frozen mid-handoff. The
// check here is advisory (no round trip); the ordered apply path enforces
// the same predicate authoritatively for writes racing the freeze.
func (s *Sharded) routeWrite(key string) (*Service, error) {
	h := fnv64a(key)
	s.mu.RLock()
	svc := s.shards[s.ring.owner(h)]
	s.mu.RUnlock()
	if svc == nil {
		return nil, fmt.Errorf("dds: no shard for key %q", key)
	}
	if svc.frozenContains(h) {
		if s.reg != nil {
			s.reg.Counter(stats.MetricFrozenWrites).Inc()
		}
		return nil, fmt.Errorf("%w: key %q", ErrResharding, key)
	}
	return svc, nil
}

// --- locks ---

// Lock acquires the named lock on its owning shard, blocking until
// granted or ctx is done. During a handoff of the lock's slice it fails
// with the retryable ErrResharding.
func (s *Sharded) Lock(ctx context.Context, name string) error {
	svc, err := s.routeWrite(name)
	if err != nil {
		return err
	}
	return svc.Lock(ctx, name)
}

// Unlock releases the named lock held by this node, waiting for the
// ordered apply at most until ctx is done. During a handoff of the
// lock's slice it fails with the retryable ErrResharding.
func (s *Sharded) Unlock(ctx context.Context, name string) error {
	svc, err := s.routeWrite(name)
	if err != nil {
		return err
	}
	return svc.Unlock(ctx, name)
}

// Holder reports the current owner of the named lock.
func (s *Sharded) Holder(name string) (core.NodeID, bool) { return s.routeRead(name).Holder(name) }

// --- replicated map ---

// Set writes key=val on the key's shard and returns once the write has
// applied locally (read-your-writes). During a handoff of the key's slice
// it fails with the retryable ErrResharding.
func (s *Sharded) Set(ctx context.Context, key string, val []byte) error {
	svc, err := s.routeWrite(key)
	if err != nil {
		return err
	}
	return svc.Set(ctx, key, val)
}

// GetLocal reads a key from its shard's local replica with no
// coordination — the eventual fast path (Get with no options is
// equivalent, minus the error return). It reflects every op the local
// replica has applied, not necessarily every op the ring has ordered.
func (s *Sharded) GetLocal(key string) ([]byte, bool) { return s.routeRead(key).Get(key) }

// routeReadShard is routeRead plus the shard id the key resolved to —
// the moded read path needs the id for session marks and read leases.
func (s *Sharded) routeReadShard(key string) (*Service, int) {
	s.mu.RLock()
	id := s.ring.lookup(key)
	svc := s.shards[id]
	s.mu.RUnlock()
	return svc, id
}

// Delete removes a key on its shard.
func (s *Sharded) Delete(ctx context.Context, key string) error {
	svc, err := s.routeWrite(key)
	if err != nil {
		return err
	}
	return svc.Delete(ctx, key)
}

// Keys lists the union of all active shards' keys, sorted. Each shard
// contributes only the keys it owns under the current epoch: between a
// handoff's flip and its ordered purge the source replica still holds
// (and serves reads of) the moved keys, which must not be double-counted.
func (s *Sharded) Keys() []string {
	s.mu.RLock()
	ring := s.ring
	type shardKeys struct {
		id  int
		svc *Service
	}
	svcs := make([]shardKeys, 0, len(ring.ids))
	for _, id := range ring.ids {
		if svc := s.shards[id]; svc != nil {
			svcs = append(svcs, shardKeys{id, svc})
		}
	}
	s.mu.RUnlock()
	var out []string
	for _, sh := range svcs {
		for _, k := range sh.svc.Keys() {
			if ring.lookup(k) == sh.id {
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Watch registers a callback for key changes on every shard, including
// shards attached by later grows. Callbacks for one shard arrive in that
// shard's apply order; there is no cross-shard order, matching the
// sharded consistency model. A handed-off key re-announces its value from
// the target shard at the flip, and because the source replica's stream
// may lag in real time, callbacks for a moving key can interleave between
// the two shards around a handoff — per-key monotonicity is guaranteed
// for routed reads (Get), not across watcher streams.
func (s *Sharded) Watch(fn func(key string, val []byte, deleted bool)) {
	s.mu.Lock()
	s.watchers = append(s.watchers, fn)
	svcs := make([]*Service, 0, len(s.shards))
	for _, sh := range s.shards {
		svcs = append(svcs, sh)
	}
	s.mu.Unlock()
	for _, sh := range svcs {
		sh.Watch(fn)
	}
}

// OnApply registers an apply-stream observer on every shard, including
// shards attached by later grows. Events for one shard arrive in that
// shard's apply order; there is no cross-shard order (the sharded
// consistency model). The gateway's micro-cache invalidation rides this.
func (s *Sharded) OnApply(fn func(ApplyEvent)) {
	s.mu.Lock()
	s.applyObs = append(s.applyObs, fn)
	svcs := make([]*Service, 0, len(s.shards))
	for _, sh := range s.shards {
		svcs = append(svcs, sh)
	}
	s.mu.Unlock()
	for _, sh := range svcs {
		sh.OnApply(fn)
	}
}

// kickOrphans re-evaluates every shard's orphaned transaction stages
// against the decide ring's verdicts. Invoked from the shards' kick
// points: a decide record applying, a membership change, a completed
// state transfer.
func (s *Sharded) kickOrphans() {
	s.mu.RLock()
	svcs := make([]*Service, 0, len(s.shards))
	for _, svc := range s.shards {
		svcs = append(svcs, svc)
	}
	s.mu.RUnlock()
	for _, svc := range svcs {
		svc.resolveOrphans()
	}
}

// DecideRing returns the ring carrying replicated commit records: the
// lowest active ring id of the current epoch. Every coordinator and
// every replica resolves the same ring for a given routing table, and
// the lowest ring survives shrinks (RemoveRing retires high ids).
func (s *Sharded) DecideRing() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	best := -1
	for _, id := range s.ring.ids {
		if best == -1 || id < best {
			best = id
		}
	}
	return best
}

// decideVerdict consults the local decide-ring replica for transaction
// id's outcome (every node hosts a replica of every ring).
func (s *Sharded) decideVerdict(ring int, id uint64, coord core.NodeID) int {
	svc := s.Shard(ring)
	if svc == nil {
		return verdictPending
	}
	return svc.localVerdict(id, coord)
}

// decideSelfVerdict resolves a WAL-recovered stage this node itself
// coordinated (see Service.localSelfVerdict).
func (s *Sharded) decideSelfVerdict(ring int, id uint64) int {
	svc := s.Shard(ring)
	if svc == nil {
		return verdictPending
	}
	return svc.localSelfVerdict(id)
}

// String summarizes the router (diagnostics).
func (s *Sharded) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return fmt.Sprintf("dds.Sharded{epoch=%d rings=%v}", s.epoch, s.ring.ids)
}
