package raincore

// Facade tests: drive the Cluster API end to end over the simulated
// network — the retry layer's behavior under elastic grows, prompt
// context cancellation, and the ordered-shutdown/no-leak contract of
// Close.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
)

// simClusters opens n Clusters over one simulated switch, rings shards
// each, with fast timers, and waits for the combined membership to
// converge. Cleanup closes every cluster and the network.
func simClusters(t *testing.T, n, rings int) (*simnet.Network, []*Cluster) {
	t.Helper()
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i + 1)
	}
	rc := FastRing()
	rc.HungryTimeout = 400 * time.Millisecond
	rc.StarvingRetry = 300 * time.Millisecond
	rc.BodyodorInterval = 50 * time.Millisecond
	rc.Eligible = ids
	tc := transport.DefaultConfig()
	tc.AckTimeout = 10 * time.Millisecond
	var clusters []*Cluster
	for _, id := range ids {
		conn := transport.NewSimConn(net.MustEndpoint(simnet.Addr(fmt.Sprintf("node-%d", id))))
		opts := []Option{
			WithID(id),
			WithRings(rings),
			WithRingConfig(rc),
			WithTransportConfig(tc),
		}
		for _, other := range ids {
			if other != id {
				opts = append(opts, WithPeer(other, Addr(fmt.Sprintf("node-%d", other))))
			}
		}
		cl, err := Open(context.Background(), []PacketConn{conn}, opts...)
		if err != nil {
			t.Fatalf("Open node %v: %v", id, err)
		}
		t.Cleanup(func() { cl.Close() })
		clusters = append(clusters, cl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, cl := range clusters {
		if err := cl.WaitMembers(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	return net, clusters
}

// TestClusterDataOps exercises the context-first single-key surface and
// the error taxonomy on the happy path.
func TestClusterDataOps(t *testing.T) {
	_, cls := simClusters(t, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := cls[0].Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cls[0].Get(ctx, "k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if err := cls[0].Lock(ctx, "l"); err != nil {
		t.Fatal(err)
	}
	if owner, held := cls[0].Holder("l"); !held || owner != 1 {
		t.Fatalf("Holder = %v, %v", owner, held)
	}
	if err := cls[0].Unlock(ctx, "l"); err != nil {
		t.Fatal(err)
	}
	if err := cls[0].Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	views, err := cls[0].Txn().Set("a", []byte("1")).Set("b", []byte("2")).Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 0 {
		t.Fatalf("write-only txn returned reads: %v", views)
	}
	// Converged on the other node.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok, _ := cls[1].Get(ctx, "a"); ok && string(v) == "1" {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("txn write never converged on peer")
}

// TestClusterSetRidesThroughGrow is the retry layer's core contract: a
// closed-loop writer keeps issuing Set while the cluster grows by one
// ring, and never observes an error — ErrResharding is internal control
// flow now.
func TestClusterSetRidesThroughGrow(t *testing.T) {
	_, cls := simClusters(t, 3, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	epoch0 := cls[0].Routing().Epoch
	stop := make(chan struct{})
	var sets atomic.Int64
	writeErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("grow-key-%d", i%256)
			if err := cls[0].Set(ctx, key, []byte("x")); err != nil {
				select {
				case writeErr <- err:
				default:
				}
				return
			}
			sets.Add(1)
		}
	}()
	// Let the writer reach steady state before moving the keyspace.
	for sets.Load() < 50 {
		time.Sleep(time.Millisecond)
	}

	growErrs := make(chan error, len(cls))
	for _, cl := range cls {
		cl := cl
		go func() {
			_, err := cl.Grow(ctx)
			growErrs <- err
		}()
	}
	for range cls {
		if err := <-growErrs; err != nil {
			t.Fatalf("Grow: %v", err)
		}
	}
	// Keep writing on the new epoch, then stop.
	post := sets.Load()
	for sets.Load() < post+50 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(stop)

	select {
	case err := <-writeErr:
		t.Fatalf("a Set surfaced an error across the grow: %v", err)
	default:
	}
	if got := cls[0].Routing().Epoch; got != epoch0+1 {
		t.Fatalf("routing epoch = %d, want %d", got, epoch0+1)
	}
	// The grow really moved part of the keyspace, and the coordinator
	// timed the handoff window it paused writes for.
	var moved int64
	var pause stats.HistogramSummary
	for _, cl := range cls {
		moved += cl.Stats().Counter(stats.MetricReshardKeysMoved).Load()
		if s := cl.Stats().Histogram(stats.HistReshardPause).Summary(); s.Count > 0 {
			pause = s
		}
	}
	if moved == 0 {
		t.Error("the grow moved no keys")
	}
	if pause.Count != 1 || pause.Max <= 0 {
		t.Errorf("handoff pause: %d samples, max %v; want one positive window", pause.Count, pause.Max)
	}
	if retries := cls[0].Stats().Counter("cluster_op_retries").Load(); retries > 0 {
		t.Logf("retry layer absorbed %d rejections", retries)
	}
}

// TestClusterRetryHonorsCancel pins the other half of the retry
// contract: a retryable condition that never clears must not trap the
// caller — cancellation surfaces promptly. A one-sided Grow (the peers
// never spawn the ring, so the handoff cannot start) keeps the node in
// the resharding state, which deterministically aborts every epoch-pinned
// transaction with the retryable ErrEpochChanged.
func TestClusterRetryHonorsCancel(t *testing.T) {
	_, cls := simClusters(t, 3, 2)

	growCtx, stopGrow := context.WithCancel(context.Background())
	growDone := make(chan struct{})
	go func() {
		defer close(growDone)
		_, _ = cls[0].Grow(growCtx) // stuck: peers never call Grow
	}()
	// Wait until the node reports the reshard in flight.
	deadline := time.Now().Add(10 * time.Second)
	for !cls[0].Health().Resharding && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !cls[0].Health().Resharding {
		t.Fatal("one-sided Grow never entered the resharding state")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cls[0].Txn().Set("x", []byte("1")).Commit(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("commit succeeded during a wedged reshard")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the context error to surface, got: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to surface; the retry loop must not spin past ctx", elapsed)
	}
	var e *Error
	if !errors.As(err, &e) || e.Op != "txn" {
		t.Fatalf("want *raincore.Error{Op: txn}, got %T: %v", err, err)
	}
	stopGrow()
	<-growDone
}

// TestErrorTaxonomy verifies the machine-checkable classification the
// acceptance contract names: every retryable sentinel matches
// ErrRetryable via errors.Is, the permanent ones do not, and wrapping
// through *Error preserves both.
func TestErrorTaxonomy(t *testing.T) {
	retryable := []error{ErrResharding, ErrSnapshotting, ErrEpochChanged, ErrReshardAborted, ErrTxnAborted}
	for _, err := range retryable {
		if !IsRetryable(err) {
			t.Errorf("IsRetryable(%v) = false, want true", err)
		}
		wrapped := &Error{Op: "set", Key: "k", Err: fmt.Errorf("attempt 3: %w", err)}
		if !IsRetryable(wrapped) || !wrapped.Retryable() {
			t.Errorf("wrapped %v lost its retryable class", err)
		}
		if !errors.Is(wrapped, err) {
			t.Errorf("wrapped %v lost its identity", err)
		}
	}
	permanent := []error{ErrReshardInProgress, context.Canceled, context.DeadlineExceeded, errors.New("boom")}
	for _, err := range permanent {
		if IsRetryable(err) {
			t.Errorf("IsRetryable(%v) = true, want false", err)
		}
	}
}

// TestClusterCloseIsOrderedAndIdempotent: Close twice returns the same
// result, and operations after Close fail cleanly.
func TestClusterCloseIsOrderedAndIdempotent(t *testing.T) {
	_, cls := simClusters(t, 2, 1)
	cl := cls[0]
	if err := cl.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := cl.Set(context.Background(), "k", nil); err == nil {
		t.Fatal("Set on a closed cluster succeeded")
	}
}

// TestOpenCloseLeaksNoGoroutines: an Open→use→Close cycle returns the
// process to its starting goroutine count (manual check; the module has
// no goleak dependency).
func TestOpenCloseLeaksNoGoroutines(t *testing.T) {
	// Settle anything older tests left winding down.
	time.Sleep(100 * time.Millisecond)
	before := runtime.NumGoroutine()

	net := simnet.New(simnet.Options{})
	rc := FastRing()
	rc.Eligible = []NodeID{1}
	conn := transport.NewSimConn(net.MustEndpoint("solo"))
	cl, err := Open(context.Background(), []PacketConn{conn},
		WithID(1), WithRings(2), WithRingConfig(rc), WithAdmin("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := cl.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if cl.AdminAddr() == "" {
		t.Fatal("WithAdmin did not bind")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	net.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before Open, %d after Close — leak", before, runtime.NumGoroutine())
}

// TestDefaultReadOptions: a cluster opened with WithDefaultReadOptions
// applies the configured mode to bare Gets (proved via the per-mode read
// counters), while an explicit per-call option still replaces it.
func TestDefaultReadOptions(t *testing.T) {
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	rc := FastRing()
	rc.Eligible = []NodeID{1}
	conn := transport.NewSimConn(net.MustEndpoint(simnet.Addr("node-1")))
	cl, err := Open(context.Background(), []PacketConn{conn},
		WithID(1), WithRings(2), WithRingConfig(rc),
		WithDefaultReadOptions(WithMaxStaleness(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := cl.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(ctx, "k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("default-mode Get = %q, %v, %v", v, ok, err)
	}
	if n := cl.Stats().Counter(stats.MetricReadsBounded).Load(); n != 1 {
		t.Fatalf("bare Get did not use the default bounded mode: reads_bounded = %d", n)
	}
	// Explicit eventual replaces the default.
	if _, ok, err := cl.Get(ctx, "k", WithEventual()); err != nil || !ok {
		t.Fatalf("explicit eventual Get failed: %v %v", ok, err)
	}
	if n := cl.Stats().Counter(stats.MetricReadsBounded).Load(); n != 1 {
		t.Fatalf("explicit option did not replace the default: reads_bounded = %d", n)
	}
}

// TestAdminMetricsMatchesStats: GET /metrics serves valid Prometheus
// text exposition and both observability surfaces render through the
// same snapshot path.
func TestAdminMetricsMatchesStats(t *testing.T) {
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	rc := FastRing()
	rc.Eligible = []NodeID{1}
	conn := transport.NewSimConn(net.MustEndpoint(simnet.Addr("node-1")))
	cl, err := Open(context.Background(), []PacketConn{conn},
		WithID(1), WithRings(1), WithRingConfig(rc), WithAdmin("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := cl.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + cl.AdminAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := stats.ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{"# TYPE msgs_delivered counter", "multicast_latency_seconds_bucket",
		`token_idle_passes_total{ring="0"}`, `token_budget_passes_total{ring="0"}`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}
