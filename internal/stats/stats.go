// Package stats collects the metrics the paper's evaluation is built on:
// packets and bytes on the wire, CPU task switches (each wake-up of the
// group-communication layer on a node that is otherwise processing network
// traffic, §4.1), and latency distributions.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be negative only for test correction; protocol code
// must only add non-negative deltas).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter and returns the previous value.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }

// Gauge is an atomically updated instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a named collection of counters, gauges and histograms. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns the current counter and gauge values, sorted by name in
// the rendered form. Histograms are summarized by count/p50/p99/max.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSummary
}

// Snapshot captures all metric values at a point in time.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSummary, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Load()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Load()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.Summary()
	}
	return s
}

// String renders the snapshot as stable, sorted lines for logs and tests.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %s = %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge %s = %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "histogram %s = count=%d p50=%v p99=%v max=%v\n",
			n, h.Count, h.P50, h.P99, h.Max)
	}
	return b.String()
}

// Canonical metric names used across the repo. Keeping them here avoids
// typo-split counters between packages.
const (
	// MetricTaskSwitches counts wake-ups of the group-communication
	// layer: one per received protocol packet and one per protocol timer
	// fire (§4.1's CPU overhead metric).
	MetricTaskSwitches = "task_switches"
	// MetricPacketsSent / MetricPacketsRecv count wire packets.
	MetricPacketsSent = "packets_sent"
	MetricPacketsRecv = "packets_recv"
	// MetricBytesSent / MetricBytesRecv count wire payload bytes.
	MetricBytesSent = "bytes_sent"
	MetricBytesRecv = "bytes_recv"
	// MetricRetransmits counts transport-level retransmissions.
	MetricRetransmits = "retransmits"
	// MetricSendFailures counts failure-on-delivery notifications.
	MetricSendFailures = "send_failures"
	// MetricTokenPasses counts confirmed token handoffs.
	MetricTokenPasses = "token_passes"
	// MetricTokenRegens counts 911 token regenerations.
	MetricTokenRegens = "token_regens"
	// MetricMsgsDelivered counts multicast messages delivered upward.
	MetricMsgsDelivered = "msgs_delivered"
	// MetricMsgsSent counts multicast messages submitted by this node.
	MetricMsgsSent = "msgs_sent"
	// MetricMerges counts completed group merges.
	MetricMerges = "merges"
	// MetricDemuxDrops counts frames addressed to a ring the local
	// demultiplexer has no receiver for. A persistently rising value
	// means a peer routes traffic for a ring this node does not host —
	// typically a routing-epoch mismatch after an elastic grow/shrink.
	MetricDemuxDrops = "demux_drops"
	// MetricReshards counts completed routing-epoch handoffs observed by
	// this node (grow or shrink).
	MetricReshards = "reshards_completed"
	// MetricReshardAborts counts handoffs that aborted and stayed on the
	// old routing epoch.
	MetricReshardAborts = "reshard_aborts"
	// MetricReshardKeysMoved counts keys installed into a target shard by
	// handoffs this node coordinated.
	MetricReshardKeysMoved = "reshard_keys_moved"
	// MetricFrozenWrites counts writes rejected with ErrResharding
	// because they addressed a frozen (mid-handoff) keyspace slice.
	MetricFrozenWrites = "frozen_writes_rejected"
	// MetricSnapFrozenWrites counts writes and transaction prepares
	// rejected with ErrSnapshotting because a cross-shard snapshot held
	// its barrier on the key's shard.
	MetricSnapFrozenWrites = "snapshot_frozen_writes"
	// MetricTxnCommits counts cross-shard transactions this node
	// coordinated to a successful commit.
	MetricTxnCommits = "txn_commits"
	// MetricTxnAborts counts cross-shard transaction stages this node's
	// replicas dropped, one per participant ring: coordinated aborts of
	// staged state plus stages aborted by their coordinator's ordered
	// removal. Abort ops for never-staged shards do not count.
	MetricTxnAborts = "txn_aborts"
	// MetricSnapshots counts cross-shard consistent snapshots this node
	// coordinated to completion.
	MetricSnapshots = "snapshots_taken"
	// MetricClusterRetries counts retryable failures the Cluster facade's
	// retry layer absorbed for single-key operations (Set, Delete, Lock,
	// Unlock, Snapshot, Grow, Shrink) before succeeding or giving up.
	MetricClusterRetries = "cluster_op_retries"
	// MetricClusterTxnRetries counts retryable transaction aborts the
	// Cluster facade's retry layer absorbed (each one a re-run of the
	// whole transaction).
	MetricClusterTxnRetries = "cluster_txn_retries"
	// MetricChunkedFrames counts oversized session frames this node split
	// into datagram-sized chunks on send (one per frame, not per chunk) —
	// typically master-lock release bursts that exceed the datagram
	// limit.
	MetricChunkedFrames = "chunked_frames"
	// MetricChunksAssembled counts chunked frames this node reassembled
	// on receive.
	MetricChunksAssembled = "chunks_assembled"
	// MetricChunkDrops counts chunks discarded as stale, duplicate, or
	// inconsistent during reassembly.
	MetricChunkDrops = "chunk_drops"
	// MetricReadsEventual / MetricReadsSession / MetricReadsBounded /
	// MetricReadsLinearizable count local-replica reads served per
	// consistency mode (router-level Get; a fenced read still counts once
	// here when it is finally served).
	MetricReadsEventual     = "reads_eventual"
	MetricReadsSession      = "reads_session"
	MetricReadsBounded      = "reads_bounded"
	MetricReadsLinearizable = "reads_linearizable"
	// MetricReadFences counts read fences ordered on a ring: linearizable
	// reads outside a valid lease, plus bounded-staleness reads whose
	// replica was staler than the bound.
	MetricReadFences = "read_fences"
	// MetricReadLeaseHits counts linearizable reads served locally inside
	// a still-valid epoch-pinned read lease (no fence needed).
	MetricReadLeaseHits = "read_lease_hits"
	// MetricReadSessionWaits counts session reads that had to park until
	// the local replica caught up to the session's write marks.
	MetricReadSessionWaits = "read_session_waits"
	// MetricGatewayRequests counts gateway requests; the gateway labels it
	// by op, read mode and outcome via LabeledName
	// (gateway_requests_total{op=...,mode=...,outcome=...}).
	MetricGatewayRequests = "gateway_requests_total"
	// MetricGatewayCoalesced counts reads served by fan-in from another
	// in-flight upstream fetch of the same key×mode (no upstream read of
	// their own).
	MetricGatewayCoalesced = "gateway_coalesced_total"
	// MetricGatewayCacheHits counts reads served from the gateway's
	// optional per-entry TTL micro-cache.
	MetricGatewayCacheHits = "gateway_cache_hits_total"
	// MetricGatewayUpstream counts upstream cluster reads the gateway
	// actually issued (the denominator coalescing and caching shrink).
	MetricGatewayUpstream = "gateway_upstream_reads_total"
	// GaugeGatewayInflight is the number of gateway requests currently
	// being served.
	GaugeGatewayInflight = "gateway_inflight"
	// HistGatewayLatency is gateway request latency; the gateway labels it
	// by read mode (gateway_latency{mode=...}), rendered on /metrics as
	// gateway_latency_seconds bucket series.
	HistGatewayLatency = "gateway_latency"
	// MetricWALAppends counts ordered applies appended to a wal log.
	MetricWALAppends = "wal_appends_total"
	// MetricWALFsyncs counts fsyncs issued by the wal layer (per-append
	// under fsync_mode=always, per batch window under batch).
	MetricWALFsyncs = "wal_fsyncs_total"
	// MetricSnapshotCompactions counts wal tail compactions into an
	// atomic snapshot file.
	MetricSnapshotCompactions = "snapshot_compactions_total"
	// MetricRecoveryReplayed counts wal records replayed through the
	// ordered-apply path during crash recovery.
	MetricRecoveryReplayed = "recovery_replayed_records"
	// MetricRecoveryDeltas counts rejoins served by a delta fast-forward
	// (only the ops the joiner missed) instead of a full snapshot.
	MetricRecoveryDeltas = "recovery_delta_fastforwards"
	// MetricRecoveryFulls counts rejoins that fell back to a full
	// targeted snapshot retransfer.
	MetricRecoveryFulls = "recovery_full_snapshots"
	// MetricTxnDecides counts replicated commit records this node's
	// decide-ring replica applied.
	MetricTxnDecides = "txn_decide_records"
	// MetricTxnOrphanCommits / MetricTxnOrphanAborts count in-doubt
	// staged transactions deterministically terminated from the decide
	// ring after their coordinator failed (or its phase-2 push did).
	MetricTxnOrphanCommits = "txn_orphan_commits"
	MetricTxnOrphanAborts  = "txn_orphan_aborts"
	// MetricTxnPushOrphaned counts phase-2 commit pushes the coordinator
	// abandoned after ordering the decide record; survivors finish them.
	MetricTxnPushOrphaned = "txn_commit_pushes_orphaned"
	// HistMulticastLatency is submit-to-deliver latency at the origin.
	HistMulticastLatency = "multicast_latency"
	// HistReshardPause is the coordinator-observed handoff window: first
	// freeze submitted to final flip applied. Only the moving keyspace
	// slice rejects writes during this window.
	HistReshardPause = "reshard_pause"
	// HistTokenRoundTrip is the token's full-ring round-trip time.
	HistTokenRoundTrip = "token_round_trip"
	// HistTokenRest is how long each token possession at this member
	// rested before its pass, labeled by ring (token_rest{ring=...},
	// rendered as token_rest_seconds): the rotation's rest budget goes to
	// the members with work, so a ring's rest shows up where its writes
	// are.
	HistTokenRest = "token_rest"
	// MetricTokenIdlePasses counts passes this member made on arrival,
	// with no work while the ring's rest was spent elsewhere; labeled by
	// ring.
	MetricTokenIdlePasses = "token_idle_passes_total"
	// MetricTokenBudgetPasses counts passes this member made because its
	// possession attached everything the attach budget (MaxBatch) allows;
	// labeled by ring. A ring that counts many is budget-bound: a larger
	// MaxBatch would carry more per visit.
	MetricTokenBudgetPasses = "token_budget_passes_total"
	// MetricDDSBatchFlushes counts write-coalescer flushes: multi-op
	// opBatch frames submitted to the ordered stream.
	MetricDDSBatchFlushes = "dds_batch_flushes_total"
	// MetricDDSBatchedOps counts the individual Set/Delete ops carried by
	// those frames; batched_ops/flushes is the achieved batch factor.
	MetricDDSBatchedOps = "dds_batched_ops_total"
	// MetricWALBatchAppends counts group-commit appends: AppendBatch
	// calls that wrote a record group with at most one fsync.
	MetricWALBatchAppends = "wal_batch_appends_total"
	// HistGatewayWriteBatch is the per-flush op count observed by a
	// gateway's member replica — the write analog of the read
	// coalescer's fan-in ratio.
	HistGatewayWriteBatch = "gateway_write_batch_size"
	// MetricGatewayPremergeRejects counts writes rejected with 503
	// because the member's replica had not yet joined its group — the
	// lowest-ID-wins merge would silently discard them otherwise.
	MetricGatewayPremergeRejects = "gateway_premerge_rejects_total"
)

// Rate converts a counter delta observed over an elapsed duration into a
// per-second rate. It guards against zero and negative durations.
func Rate(delta int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(delta) / elapsed.Seconds()
}
