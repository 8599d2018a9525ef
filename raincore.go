// Package raincore is the public face of this reproduction of "The
// Raincore Distributed Session Service for Networking Elements" (Fan &
// Bruck, IPPS 2001), grown into a sharded, elastic, transactional
// session service. Applications program against one handle — the
// Cluster — which Open assembles in a single call: the sharded
// multi-ring runtime (group membership, atomic reliable multicast,
// token-based mutual exclusion, S rings over one shared transport), the
// distributed data service consistent-hashed across the rings, the
// cross-shard transaction coordinator, and optionally an admin HTTP
// surface.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	cl, _ := raincore.Open(ctx, conns,
//	        raincore.WithID(1),
//	        raincore.WithRings(4),
//	        raincore.WithPeer(2, "10.0.0.2:7001"),
//	        raincore.WithPeer(3, "10.0.0.3:7001"))
//	defer cl.Close()
//	cl.WaitMembers(ctx, 3)
//	cl.Set(ctx, "config/router-7", payload)
//	views, _ := cl.Txn().Read("a").Set("b", v).Commit(ctx)
//	cl.Grow(ctx) // +1 ring, keyspace rebalanced via ordered handoff
//
// Every Cluster method takes a context first and transparently retries
// the transient failures the layers below produce (a write racing an
// elastic reshard, a transaction aborted by an epoch flip), following
// the routing epoch instead of polling. Failures that do surface are
// *Error values with a machine-checkable Retryable classification; see
// IsRetryable and ErrRetryable.
//
// The pre-facade composition shims deprecated by the facade release are
// now removed; Open plus its options are the only way to assemble a
// cluster member. See the MIGRATION section of the README.
package raincore

import (
	"repro/internal/core"
	"repro/internal/dds"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Core session-service types.
type (
	// NodeID identifies a cluster member.
	NodeID = core.NodeID
	// Node is one member of a Raincore cluster.
	Node = core.Node
	// Config assembles a node.
	Config = core.Config
	// Handlers are the ordered application callbacks.
	Handlers = core.Handlers
	// Delivery is one multicast message in agreed total order.
	Delivery = core.Delivery
	// MembershipEvent reports a membership view change.
	MembershipEvent = core.MembershipEvent
	// SysEvent is an ordered system announcement (join/removal/merge).
	SysEvent = core.SysEvent
	// OpenClient sends open-group messages from outside the cluster.
	OpenClient = core.OpenClient
	// RingConfig tunes the token-ring protocol timers.
	RingConfig = ring.Config
	// TransportConfig tunes the reliable unicast layer.
	TransportConfig = transport.Config
	// PacketConn is the unreliable datagram interface the transport
	// service runs over (§2.1).
	PacketConn = transport.PacketConn
	// Addr is a transport-level peer address.
	Addr = transport.Addr
	// StatsRegistry aggregates the runtime's counters and histograms.
	StatsRegistry = stats.Registry
	// TraceLog records protocol events for diagnostics.
	TraceLog = trace.Log
)

// Sharded multi-ring runtime types: S rings over one shared transport,
// with the data-service keyspace consistent-hashed across them. The
// Cluster facade owns one of each; the types remain exported for
// advanced composition and diagnostics.
type (
	// RingID identifies one ring of a sharded runtime.
	RingID = wire.RingID
	// Runtime owns a shared transport and one protocol node per ring.
	Runtime = core.Runtime
	// RuntimeConfig assembles a sharded runtime.
	RuntimeConfig = core.RuntimeConfig
	// RingHealth is one ring's slice of the combined health view.
	RingHealth = core.RingHealth
	// RuntimeHealth is the full health view: ring health, the routing
	// epoch, and unknown-ring frame drops (mis-epoch'd peers).
	RuntimeHealth = core.RuntimeHealth
	// RoutingView is a snapshot of the epoch-versioned routing table a
	// Runtime owns; Grow/Shrink advance its epoch.
	RoutingView = core.RoutingView
	// ShardedDDS routes the distributed data service across the rings
	// of a Runtime by consistent key hashing, following the routing
	// table across elastic grows and shrinks.
	ShardedDDS = dds.Sharded
	// ApplyEvent describes one applied ordered operation to Cluster.OnApply
	// observers: the shard, the op's (origin, seq) position, and the keys
	// it changed.
	ApplyEvent = dds.ApplyEvent
	// StorageBackend is the durability backend behind WithStorage: a
	// per-ring write-ahead log plus snapshot store and the persisted
	// routing table. WithStorage builds the file-backed one;
	// NewMemoryStorage builds an in-process one for tests.
	StorageBackend = wal.Backend
)

// NewMemoryStorage returns an in-process StorageBackend whose logs
// survive a Cluster.Close — crash-restart tests Open a new Cluster over
// the same backend and exercise the full recovery path without disk.
func NewMemoryStorage() StorageBackend { return wal.NewMemory() }

// Cross-shard transaction types: epoch-pinned two-phase commit over the
// per-ring master locks. Cluster.Txn is the facade entry point; the
// coordinator types remain exported for advanced composition.
type (
	// TxnCoordinator runs multi-key cross-shard transactions against a
	// ShardedDDS.
	TxnCoordinator = txn.Coordinator
	// Txn is one coordinator-level transaction under construction. The
	// facade's Cluster.Txn returns a *Tx, which adds automatic retry of
	// retryable aborts on top.
	Txn = txn.Txn
	// EpochPin freezes a caller's view of the routing epoch across a
	// multi-step operation; Check reports ErrEpochChanged once it moves.
	EpochPin = core.EpochPin
)

// Read-consistency types: Cluster.Get serves reads from the key's local
// shard replica, and the options pick how stale that replica may be.
// See the README's "Read consistency" table for the mode × guarantee ×
// cost trade-offs.
type (
	// ReadOption selects a read's consistency mode; no option = eventual.
	ReadOption = dds.ReadOption
	// ReadConsistency enumerates the read modes.
	ReadConsistency = dds.ReadConsistency
)

// Read-consistency options, forwarded from the dds layer. WithSession is
// defined on the facade (it takes a *Session).
var (
	// WithEventual selects the eventual mode explicitly (the default).
	WithEventual = dds.WithEventual
	// WithMaxStaleness serves locally only if the replica proved itself
	// caught up within d; otherwise it fences on the key's ring first.
	WithMaxStaleness = dds.WithMaxStaleness
	// WithLinearizable fences on the key's ring before serving, so the
	// read observes every write ordered before it began.
	WithLinearizable = dds.WithLinearizable
	// WithReadLease amortizes linearizable fences over a lease window
	// pinned to the routing epoch (implies WithLinearizable).
	WithReadLease = dds.WithReadLease
)

// WithSession selects session (read-your-writes) consistency against the
// given session's writes.
func WithSession(s *Session) ReadOption { return dds.WithSession(s.s) }

// The error taxonomy. Every sentinel here that is transient matches
// ErrRetryable under errors.Is (equivalently raincore.IsRetryable); the
// Cluster facade absorbs those internally, so they are mainly of
// interest to callers composing the layers by hand.
var (
	// ErrResharding marks a write rejected because its keyspace slice is
	// mid-handoff; retryable — the slice unfreezes at the epoch flip.
	ErrResharding = dds.ErrResharding
	// ErrReshardAborted reports a handoff that rolled back to the old
	// routing epoch; retryable — the ring set is unchanged.
	ErrReshardAborted = core.ErrReshardAborted
	// ErrReshardInProgress rejects overlapping grow/shrink requests. NOT
	// retryable: re-running after the in-flight reshard would reshard
	// twice.
	ErrReshardInProgress = core.ErrReshardInProgress
	// ErrSnapshotting marks a write rejected because a cross-shard
	// consistent snapshot holds its barrier; retryable.
	ErrSnapshotting = dds.ErrSnapshotting
	// ErrEpochChanged reports a pinned routing epoch that advanced (or a
	// handoff in flight toward the next one); retryable — re-pin.
	ErrEpochChanged = core.ErrEpochChanged
	// ErrTxnAborted reports a transaction that changed nothing anywhere;
	// retryable — re-run the transaction.
	ErrTxnAborted = txn.ErrAborted
)

// NoNode is the zero NodeID.
const NoNode = wire.NoNode

// Ring0 is the default ring of a single-ring deployment and the anchor
// ring of a sharded runtime.
const Ring0 = wire.Ring0

// NewNode builds a single-ring cluster member over the given transport
// conns — the paper's original per-node API, still the right tool for
// bare ordered-multicast deployments with no data service.
func NewNode(cfg Config, conns []PacketConn) (*Node, error) {
	return core.NewNode(cfg, conns)
}

// NewOpenClient builds an open-group client (§2.6).
var NewOpenClient = core.NewOpenClient

// ListenUDP opens a real UDP conn, the production transport of §2.1.
var ListenUDP = transport.ListenUDP

// FastRing returns tight simulation timers (milliseconds).
var FastRing = core.FastRing

// PaperRing returns timers matching the paper's deployment regime
// (sub-two-second fail-over, §3.2).
var PaperRing = core.PaperRing
