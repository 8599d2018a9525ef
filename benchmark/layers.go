package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json lists exactly these names, every
// untraced run prints every end-to-end one and every traced run every
// per-layer one (0 where the layer is not on the workload's path).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the base median it may worsen by
}

var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_p95_ms", "ms", "lower", 0.20},
	{"ack_gap_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.10},
}

var layerMetrics = []metricDef{
	// gateway
	{"gateway.put_p50_ms", "ms", "lower", 0},
	{"gateway.put_p95_ms", "ms", "lower", 0},
	{"gateway.put_hi_pct", "%", "higher", 0},
	{"gateway.put_hi_ms", "ms", "lower", 0},
	{"gateway.get_lin_p50_ms", "ms", "lower", 0},
	{"gateway.get_lin_hi_pct", "%", "higher", 0},
	{"gateway.get_lin_hi_ms", "ms", "lower", 0},
	{"gateway.get_ev_p50_us", "us", "lower", 0},
	{"gateway.txn_p50_ms", "ms", "lower", 0},
	{"gateway.http_self_us_p50_put", "us", "lower", 0},
	{"gateway.http_self_us_p50_get_lin", "us", "lower", 0},
	{"gateway.http_self_us_p50_get_ev", "us", "lower", 0},
	{"gateway.http_self_us_p50_txn", "us", "lower", 0},
	{"gateway.put_stage_sum_share", "ratio", "higher", 0},
	{"gateway.coalesced_share", "ratio", "higher", 0},
	{"gateway.upstream_reads_per_get", "ratio", "lower", 0},
	{"gateway.shed_429", "count", "lower", 0},
	{"gateway.retryable_503", "count", "lower", 0},
	{"gateway.deadline_504", "count", "lower", 0},
	// raincore (facade)
	{"raincore.set_ms_p50", "ms", "lower", 0},
	{"raincore.get_lin_ms_p50", "ms", "lower", 0},
	{"raincore.write_hi_pct", "%", "higher", 0},
	{"raincore.write_hi_ms", "ms", "lower", 0},
	{"raincore.set_per_s", "1/s", "higher", 0},
	{"raincore.retries_per_op", "ratio", "lower", 0},
	{"raincore.txn_retries_per_txn", "ratio", "lower", 0},
	{"raincore.single_node_set_per_s", "1/s", "higher", 0},
	// dds
	{"dds.ops_per_flush", "ratio", "higher", 0},
	{"dds.flushes_per_s", "1/s", "lower", 0},
	{"dds.submit_to_apply_ms_p50", "ms", "lower", 0},
	{"dds.submit_to_apply_ms_p95", "ms", "lower", 0},
	{"dds.replica_lag_ms_p50", "ms", "lower", 0},
	{"dds.replica_lag_ms_p95", "ms", "lower", 0},
	{"dds.ack_after_apply_us_p50", "us", "lower", 0},
	{"dds.fences_per_lin_get", "ratio", "lower", 0},
	{"dds.lease_hit_share", "ratio", "higher", 0},
	{"dds.session_wait_share", "ratio", "lower", 0},
	{"dds.get_local_per_s", "1/s", "higher", 0},
	{"dds.get_ev_per_s", "1/s", "higher", 0},
	{"dds.get_session_per_s", "1/s", "higher", 0},
	{"dds.get_bounded_per_s", "1/s", "higher", 0},
	{"dds.get_lease_per_s", "1/s", "higher", 0},
	{"dds.get_lin_per_s", "1/s", "higher", 0},
	{"dds.frozen_rejects", "count", "lower", 0},
	// txn
	{"txn.commit_ms_p50", "ms", "lower", 0},
	{"txn.aborts_per_commit", "ratio", "lower", 0},
	{"txn.decide_records_per_commit", "ratio", "lower", 0},
	// core / ring
	{"ring.token_rtt_ms_p50", "ms", "lower", 0},
	{"ring.token_rtt_ms_p90", "ms", "lower", 0},
	{"ring.token_passes_per_s", "1/s", "higher", 0},
	{"ring.msgs_per_token_pass", "ratio", "higher", 0},
	{"ring.token_regens", "count", "lower", 0},
	{"ring.merges", "count", "lower", 0},
	{"ring.token_regens_per_cycle", "ratio", "lower", 0},
	{"ring.merges_per_cycle", "ratio", "lower", 0},
	{"core.removals_per_cycle", "ratio", "lower", 0},
	{"ring.sm_step_ns", "ns", "lower", 0},
	{"ring.sm_step_allocs", "count", "lower", 0},
	{"ring.idle_cpu_pct", "%", "lower", 0},
	// transport / wire
	{"transport.datagrams_per_op", "ratio", "lower", 0},
	{"transport.bytes_per_op", "bytes", "lower", 0},
	{"transport.retransmits", "count", "lower", 0},
	{"transport.send_failures", "count", "lower", 0},
	{"transport.frames_per_syscall", "ratio", "higher", 0},
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.allocs_per_frame", "count", "lower", 0},
	{"wire.pool_hit_share", "ratio", "higher", 0},
	// wal
	{"wal.append_us_p50", "us", "lower", 0},
	{"wal.append_us_p95", "us", "lower", 0},
	{"wal.durable_wait_us_p50", "us", "lower", 0},
	{"wal.records_per_op", "ratio", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.fsyncs_per_op", "ratio", "lower", 0},
	{"wal.snapshot_ms_p50", "ms", "lower", 0},
	{"wal.compactions", "count", "lower", 0},
	{"wal.replayed_records", "count", "lower", 0},
	{"wal.delta_rejoins", "count", "higher", 0},
	{"wal.full_rejoins", "count", "lower", 0},
	{"wal.replayed_records_per_cycle", "ratio", "lower", 0},
	{"wal.delta_rejoins_per_cycle", "ratio", "higher", 0},
	{"wal.full_rejoins_per_cycle", "ratio", "lower", 0},
	// simnet
	{"simnet.dropped", "count", "lower", 0},
	{"simnet.delivered_per_op", "ratio", "lower", 0},
	// failover
	{"failover.gap_p50_ms", "ms", "lower", 0},
	{"failover.gap_max_ms", "ms", "lower", 0},
	{"failover.write_max_ms", "ms", "lower", 0},
	{"failover.rejoin_p50_ms", "ms", "lower", 0},
	{"failover.cycles", "count", "higher", 0},
	{"failover.lost_acked_writes", "count", "lower", 0},
	// proc
	{"proc.fail_share", "ratio", "lower", 0},
	{"proc.cpu_ms_per_kop", "ms", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.heap_peak_mb", "MB", "lower", 0},
	{"proc.gc_pause_ms_total", "ms", "lower", 0},
	{"proc.goroutines_end", "count", "lower", 0},
	{"proc.generator_late_ms_max", "ms", "lower", 0},
}

// layerOf is the module a per-layer metric belongs to: its name's prefix.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// --- registry deltas (traced pass) ---

// layerCommon derives the per-layer counters and ratios every workload
// shares from the registry growth over the run's windows. ops is every
// completed client operation in them, writes the ones that had to be
// ordered.
func (e *env) layerCommon(ops, writes int64) {
	if e.tr == nil {
		return
	}
	tot := &e.tot
	o, wr := float64(ops), float64(writes)
	set := func(name string, v float64) { e.setLayer(name, v, int(ops)) }

	set("dds.ops_per_flush", ratio(e.delta(stats.MetricDDSBatchedOps), e.delta(stats.MetricDDSBatchFlushes)))
	set("dds.flushes_per_s", ratio(e.delta(stats.MetricDDSBatchFlushes), tot.seconds))
	set("dds.fences_per_lin_get", ratio(e.delta(stats.MetricReadFences), e.delta(stats.MetricReadsLinearizable)))
	set("dds.lease_hit_share", ratio(e.delta(stats.MetricReadLeaseHits), e.delta(stats.MetricReadsLinearizable)))
	set("dds.session_wait_share", ratio(e.delta(stats.MetricReadSessionWaits), e.delta(stats.MetricReadsSession)))
	set("dds.frozen_rejects", e.delta(stats.MetricFrozenWrites))
	set("raincore.retries_per_op", ratio(e.delta(stats.MetricClusterRetries), o))
	commits := e.delta(stats.MetricTxnCommits)
	set("raincore.txn_retries_per_txn", ratio(e.delta(stats.MetricClusterTxnRetries), commits))
	set("txn.aborts_per_commit", ratio(e.delta(stats.MetricTxnAborts), commits))
	set("txn.decide_records_per_commit", ratio(e.delta(stats.MetricTxnDecides), commits))

	passes := e.delta(stats.MetricTokenPasses)
	set("ring.token_passes_per_s", ratio(passes, tot.seconds))
	set("ring.msgs_per_token_pass", ratio(e.delta(stats.MetricMsgsSent), passes))
	set("ring.token_regens", e.delta(stats.MetricTokenRegens))
	set("ring.merges", e.delta(stats.MetricMerges))
	e.setLayer("ring.token_rtt_ms_p50", ms(int64(tot.rtt.P50)), int(tot.rtt.Count))
	e.setLayer("ring.token_rtt_ms_p90", ms(int64(tot.rtt.P90)), int(tot.rtt.Count))

	set("transport.retransmits", e.delta(stats.MetricRetransmits))
	set("transport.send_failures", e.delta(stats.MetricSendFailures))
	set("transport.datagrams_per_op", ratio(float64(tot.trace.datagrams), wr))
	set("transport.bytes_per_op", ratio(float64(tot.trace.wireBytes), wr))
	set("transport.frames_per_syscall", ratio(float64(tot.trace.sentFrames), float64(tot.trace.sendCalls)))
	set("wire.pool_hit_share", ratio(float64(tot.trace.poolHits), float64(tot.trace.poolGets)))

	set("wal.records_per_op", ratio(float64(tot.trace.walRecords), wr))
	set("wal.bytes_per_user_byte", ratio(float64(tot.trace.walBytes), float64(tot.trace.userBytes)))
	set("wal.fsyncs_per_op", ratio(e.delta(stats.MetricWALFsyncs), wr))
	set("wal.compactions", e.delta(stats.MetricSnapshotCompactions))
	set("wal.replayed_records", e.delta(stats.MetricRecoveryReplayed))
	set("wal.delta_rejoins", e.delta(stats.MetricRecoveryDeltas))
	set("wal.full_rejoins", e.delta(stats.MetricRecoveryFulls))

	set("simnet.dropped", e.deltaPrefix("simnet_drop_"))
	set("simnet.delivered_per_op", ratio(e.delta(simnet.MetricDelivered), o))

	set("proc.allocs_per_op", ratio(float64(tot.proc.mallocs), o))
	set("proc.gc_pause_ms_total", ms(int64(tot.proc.gcPause)))
	set("proc.heap_peak_mb", float64(tot.heapMax.Load())/(1<<20))
}

// layerGateway derives the gateway's own counters (gw-paced only).
func (e *env) layerGateway() {
	if e.tr == nil {
		return
	}
	gets := e.deltaPrefix(stats.MetricGatewayRequests, `op="get"`)
	e.setLayer("gateway.coalesced_share", ratio(e.delta(stats.MetricGatewayCoalesced), gets), int(gets))
	e.setLayer("gateway.upstream_reads_per_get", ratio(e.delta(stats.MetricGatewayUpstream), gets), int(gets))
	e.setLayer("gateway.shed_429", e.deltaPrefix(stats.MetricGatewayRequests, `outcome="shed"`), 1)
	e.setLayer("gateway.retryable_503", e.deltaPrefix(stats.MetricGatewayRequests, `outcome="unavailable"`)+e.deltaPrefix(stats.MetricGatewayRequests, `outcome="premerge"`), 1)
	e.setLayer("gateway.deadline_504", e.deltaPrefix(stats.MetricGatewayRequests, `outcome="timeout"`), 1)
}

// traceCounts is the decorators' and the process-global transport counters
// at one instant, or their growth between two.
type traceCounts struct {
	datagrams, wireBytes  int64
	walRecords, walBytes  int64
	userBytes             int64
	sentFrames, sendCalls int64 // transport.BatchStats: UDP rig only
	poolHits, poolGets    int64 // wire.PoolStats
}

func (t *tracer) counts() traceCounts {
	batch, pool := transport.BatchStats(), wire.PoolStats()
	return traceCounts{
		datagrams: t.datagrams.Load(), wireBytes: t.wireBytes.Load(),
		walRecords: t.walRecords.Load(), walBytes: t.walBytes.Load(),
		userBytes:  t.userBytes.Load(),
		sentFrames: batch.SentFrames, sendCalls: batch.SendCalls,
		poolHits: pool.Hits, poolGets: pool.Gets,
	}
}

// add accumulates the growth between two readings.
func (c *traceCounts) add(from, to traceCounts) {
	c.datagrams += to.datagrams - from.datagrams
	c.wireBytes += to.wireBytes - from.wireBytes
	c.walRecords += to.walRecords - from.walRecords
	c.walBytes += to.walBytes - from.walBytes
	c.userBytes += to.userBytes - from.userBytes
	c.sentFrames += to.sentFrames - from.sentFrames
	c.sendCalls += to.sendCalls - from.sendCalls
	c.poolHits += to.poolHits - from.poolHits
	c.poolGets += to.poolGets - from.poolGets
}

// --- spans (traced pass) ---

// layerFromTrace derives the per-layer timings from the recorded spans.
func (e *env) layerFromTrace() {
	tr := e.tr
	p := func(name string, s *samples, q float64, scale func(int64) float64) {
		sorted := s.sorted()
		e.setLayer(name, scale(percentile(sorted, q)), len(sorted))
	}
	p("raincore.set_ms_p50", tr.byName("raincore.set"), 50, ms)
	wait, lag, appends := tr.byName("dds.submit_to_apply"), tr.byName("dds.replica_lag"), tr.byName("wal.append")
	p("dds.submit_to_apply_ms_p50", wait, 50, ms)
	p("dds.submit_to_apply_ms_p95", wait, 95, ms)
	p("dds.replica_lag_ms_p50", lag, 50, ms)
	p("dds.replica_lag_ms_p95", lag, 95, ms)
	p("dds.ack_after_apply_us_p50", tr.byName("dds.ack_after_apply"), 50, us)
	p("wal.append_us_p50", appends, 50, us)
	p("wal.append_us_p95", appends, 95, us)
	p("wal.durable_wait_us_p50", tr.byName("wal.durable_wait"), 50, us)
	p("wal.snapshot_ms_p50", tr.byName("wal.snapshot"), 50, ms)
	if e.p.workload != "gw-paced" {
		return
	}
	p("txn.commit_ms_p50", tr.byName("txn.commit"), 50, ms)

	// Self times of the client round trips per op type, the facade time of
	// the linearizable GETs, and the PUT latency budget: the mean stage spans
	// of a PUT (gateway self time, wait for the ordered apply, return after
	// it) over the mean client round trip.
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	self := selfTimes(spans)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	httpSelf := make(map[string]*samples)
	for _, kind := range []opKind{opSet, opGetLin, opGetEv, opTxn} {
		httpSelf["gateway.http."+kind.String()] = &samples{}
	}
	linGets := &samples{}
	var http, stages float64
	var puts int
	for _, s := range spans {
		if hs := httpSelf[s.Name]; hs != nil {
			hs.ns = append(hs.ns, self[s.ID])
		}
		switch {
		case s.Name == "raincore.get" && byID[s.Parent].Name == "gateway.http.get_lin":
			linGets.ns = append(linGets.ns, s.dur())
		case s.Name == "gateway.http.set":
			http += float64(s.dur())
			stages += float64(self[s.ID])
			puts++
		case s.Name == "dds.submit_to_apply" || s.Name == "dds.ack_after_apply":
			if set := byID[s.Parent]; byID[set.Parent].Name == "gateway.http.set" {
				stages += float64(s.dur())
			}
		}
	}
	for _, kind := range []opKind{opSet, opGetLin, opGetEv, opTxn} {
		p("gateway.http_self_us_p50_"+kindSuffix[kind], httpSelf["gateway.http."+kind.String()], 50, us)
	}
	p("raincore.get_lin_ms_p50", linGets, 50, ms)
	e.setLayer("gateway.put_stage_sum_share", ratio(stages, http), puts)
}

var kindSuffix = [...]string{opSet: "put", opGetLin: "get_lin", opGetEv: "get_ev", opTxn: "txn"}

// --- micro-probes (traced pass) ---

// microProbes measures the fixed, workload-independent per-layer numbers:
// the ring state machine and the wire codec driven with no I/O, an idle
// cluster's CPU, and a single-member cluster's write throughput (the
// write path with everything but token travel).
func (e *env) microProbes(ctx context.Context) error {
	// One token possession: receive a token carrying two piggybacked
	// messages, hold-timer fire, pass acknowledged — three Steps.
	sm := ring.New(ring.Config{ID: 1})
	sm.Step(ring.EvStart{})
	members := []wire.NodeID{1, 2, 3}
	payload := make([]byte, valueBytes)
	stepNS, stepAllocs := timeLoop(probeIters, func(i int) {
		seq := uint64(10 + i)
		sm.Step(ring.EvTokenReceived{From: 3, Tok: &wire.Token{
			Epoch: 2, Seq: seq, Members: members,
			Msgs: []wire.Message{
				{Origin: 2, Seq: uint64(i)*2 + 1, Visited: 1, Payload: payload},
				{Origin: 3, Seq: uint64(i)*2 + 2, Visited: 2, Payload: payload},
			},
		}})
		sm.Step(ring.EvTimer{Kind: ring.TimerTokenHold})
		sm.Step(ring.EvTokenAcked{To: 2, Epoch: 2, Seq: seq + 1})
	})
	e.setLayer("ring.sm_step_ns", stepNS/3, probeIters)
	e.setLayer("ring.sm_step_allocs", stepAllocs/3, probeIters)

	// An 8-message token frame through the encoder and the zero-copy
	// decoder.
	tok := &wire.Token{Epoch: 2, Seq: 10, Members: members}
	for i := 0; i < rigMaxBatch; i++ {
		tok.Msgs = append(tok.Msgs, wire.Message{Origin: 1, Seq: uint64(i + 1), Visited: 1, Payload: payload})
	}
	frame := wire.AppendTokenRing(nil, 1, tok)
	buf := make([]byte, 0, len(frame))
	encNS, encAllocs := timeLoop(probeIters, func(int) { buf = wire.AppendTokenRing(buf[:0], 1, tok) })
	var envl wire.Envelope
	var decErr error
	decNS, decAllocs := timeLoop(probeIters, func(int) {
		if err := wire.DecodeViewInto(&envl, frame); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("wire probe: %w", decErr)
	}
	e.setLayer("wire.encode_ns", encNS, probeIters)
	e.setLayer("wire.decode_ns", decNS, probeIters)
	e.setLayer("wire.allocs_per_frame", encAllocs+decAllocs, probeIters)

	idle, err := idleCPU(ctx, e.p)
	if err != nil {
		return fmt.Errorf("idle probe: %w", err)
	}
	e.setLayer("ring.idle_cpu_pct", idle, 1)
	single, n, err := singleNodeSets(ctx, e.p)
	if err != nil {
		return fmt.Errorf("single-node probe: %w", err)
	}
	e.setLayer("raincore.single_node_set_per_s", single, n)
	return nil
}

const (
	probeWindow = 2 * time.Second
	probeIters  = 200000
)

// timeLoop runs fn n times on this goroutine and returns the mean
// nanoseconds and heap allocations per call.
func timeLoop(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(took) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// idleCPU is the process CPU share an assembled, idle 3-member cluster
// burns just circulating its tokens.
func idleCPU(ctx context.Context, p params) (float64, error) {
	dir, err := os.MkdirTemp(p.tmp, "idle-")
	if err != nil {
		return 0, err
	}
	g, err := openRig(ctx, rigConfig{members: rigMembers, seed: p.seed, dir: dir})
	if err != nil {
		return 0, err
	}
	defer g.close()
	cpu0, t0 := cpuTime(), time.Now()
	time.Sleep(probeWindow)
	return 100 * float64(cpuTime()-cpu0) / float64(time.Since(t0)) / float64(runtime.GOMAXPROCS(0)), nil
}

// singleNodeSets is write-burst's caller set against a 1-member cluster:
// the ceiling set_per_s would reach if the token never had to travel.
func singleNodeSets(ctx context.Context, p params) (float64, int, error) {
	dir, err := os.MkdirTemp(p.tmp, "single-")
	if err != nil {
		return 0, 0, err
	}
	g, err := openRig(ctx, rigConfig{members: 1, seed: p.seed, dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer g.close()
	t := newKeyTable("b", burstKeys)
	lctx, stop := context.WithCancel(ctx)
	defer stop()
	// The probe's operations are not the run's: they count into an env of
	// their own.
	probe := &env{p: p}
	var measuring atomic.Bool
	var sets, dels atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < burstCallers; c++ {
		gen := newBurstGen(p.seed, c, burstCallers, burstKeys)
		wg.Add(1)
		go func() {
			defer wg.Done()
			burstCaller(lctx, probe, g.cluster(1), t, gen, uint32(c+1), &measuring, &sets, &dels)
		}()
	}
	time.Sleep(probeWindow / 4)
	measuring.Store(true)
	t0 := time.Now()
	time.Sleep(probeWindow)
	n := sets.Load()
	rate := float64(n) / time.Since(t0).Seconds()
	stop()
	wg.Wait()
	return rate, int(n), nil
}
