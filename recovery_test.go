package raincore

// Durability-subsystem tests: crash a member, restart it from its WAL,
// and assert it rejoins via the delta fast-forward path with the same
// keyspace as the survivors — plus the replicated-commit-record
// guarantees (a coordinator death mid-2PC resolves deterministically)
// and the gateway's apply-stream cache eviction.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
)

// openSimMember opens one facade member over the simulated switch. A
// nil backend disables durability. The ring template keeps SeqBase 0 so
// a restarted incarnation seeds a fresh (higher) sequence range from the
// wall clock, exactly like a production restart.
func openSimMember(t *testing.T, net *simnet.Network, ids []NodeID, id NodeID, rings int, backend StorageBackend) *Cluster {
	t.Helper()
	ep, err := net.Endpoint(simnet.Addr(fmt.Sprintf("wal-n%d", id)))
	if err != nil {
		t.Fatal(err)
	}
	tc := transport.DefaultConfig()
	tc.AckTimeout = 10 * time.Millisecond
	rc := FastRing()
	rc.Eligible = ids
	opts := []Option{
		WithID(id),
		WithRings(rings),
		WithRingConfig(rc),
		WithTransportConfig(tc),
	}
	if backend != nil {
		opts = append(opts, WithStorageBackend(backend))
	}
	for _, other := range ids {
		if other != id {
			opts = append(opts, WithPeer(other, Addr(fmt.Sprintf("wal-n%d", other))))
		}
	}
	cl, err := Open(context.Background(), []PacketConn{transport.NewSimConn(ep)}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// waitValue polls an eventual read until the key holds want.
func waitValue(t *testing.T, cl *Cluster, key, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var v []byte
	var ok bool
	for time.Now().Before(deadline) {
		v, ok, _ = cl.Get(context.Background(), key)
		if ok && string(v) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("key %q = %q (ok=%v), want %q", key, v, ok, want)
}

// TestClusterRestartFromWALSingleNode is the pure-replay path: with no
// peers to transfer state from, a restarted node must rebuild its entire
// keyspace from its own snapshot + log tail.
func TestClusterRestartFromWALSingleNode(t *testing.T) {
	net := simnet.New(simnet.Options{})
	defer net.Close()
	backend := NewMemoryStorage()
	ids := []NodeID{1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cl := openSimMember(t, net, ids, 1, 2, backend)
	if err := cl.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := cl.Set(ctx, fmt.Sprintf("k-%d", i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent: a second call returns the first result.
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	cl2 := openSimMember(t, net, ids, 1, 2, backend)
	defer cl2.Close()
	// The keyspace is back before any peer traffic: local replay only.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k-%d", i)
		v, ok, err := cl2.Get(ctx, key)
		if err != nil || !ok || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("after restart %q = %q (ok=%v, err=%v)", key, v, ok, err)
		}
	}
	if replayed := cl2.Stats().Counter(stats.MetricRecoveryReplayed).Load(); replayed < n {
		t.Fatalf("recovery_replayed_records = %d, want >= %d", replayed, n)
	}
	// The ring reassembles and the restarted node accepts writes again.
	if err := cl2.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Set(ctx, "post-restart", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRestartRecoversViaDelta is the full property test: a loaded
// member is crashed (silenced mid-flight, including two staged 2PC
// transactions — one with its commit record ordered, one without), the
// survivors resolve both deterministically from the decide ring, and the
// restarted node replays its WAL and fast-forwards through a delta state
// transfer — not a full keyspace retransfer — back to keyspace
// equivalence. Concurrent transactions never fail permanently, Close is
// idempotent, and the test leaks no goroutines.
func TestCrashRestartRecoversViaDelta(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	net := simnet.New(simnet.Options{})
	defer net.Close()
	ids := []NodeID{1, 2, 3}
	backends := map[NodeID]StorageBackend{}
	for _, id := range ids {
		backends[id] = NewMemoryStorage()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cls := map[NodeID]*Cluster{}
	for _, id := range ids {
		cls[id] = openSimMember(t, net, ids, id, 2, backends[id])
	}
	defer func() {
		for _, cl := range cls {
			_ = cl.Close()
		}
	}()
	for _, id := range ids {
		if err := cls[id].WaitMembers(ctx, 3); err != nil {
			t.Fatal(err)
		}
	}

	// Seed load; every write lands in node 3's replica (and so its WAL).
	const seeded = 60
	for i := 0; i < seeded; i++ {
		if err := cls[1].Set(ctx, fmt.Sprintf("seed-%d", i), []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"mid-abort", "mid-commit"} {
		if err := cls[1].Set(ctx, k, []byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	waitValue(t, cls[3], fmt.Sprintf("seed-%d", seeded-1), "s", 10*time.Second)
	waitValue(t, cls[3], "mid-commit", "before", 10*time.Second)

	// Node 3 stops mid-2PC: transaction A staged with no commit record
	// (must abort), transaction B staged WITH its commit record ordered
	// but phase 2 never started (must commit — the record is the
	// decision).
	d3 := cls[3].DDS()
	epoch := d3.Epoch()
	decide := d3.DecideRing()
	idA, idB := d3.NewTxnID(), d3.NewTxnID()
	if err := d3.TxnPrepare(ctx, d3.ShardFor("mid-abort"), idA, epoch, decide,
		map[string][]byte{"mid-abort": []byte("torn")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d3.TxnPrepare(ctx, d3.ShardFor("mid-commit"), idB, epoch, decide,
		map[string][]byte{"mid-commit": []byte("after")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d3.TxnDecide(ctx, decide, idB); err != nil {
		t.Fatal(err)
	}
	// TxnPrepare/TxnDecide return at the coordinator's local apply; wait
	// until both survivors hold the two stages and the decide record
	// before crashing — the scenario under test is a coordinator that
	// dies after its commit record is ordered (replicated), not one whose
	// record never left the machine.
	stagedBy := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, id := range []NodeID{1, 2} {
			if cls[id].DDS().PendingTxns() != 2 ||
				cls[id].Stats().Counter(stats.MetricTxnDecides).Load() == 0 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(stagedBy) {
			t.Fatalf("staged 2PC state never replicated: n1 pending=%d n2 pending=%d",
				cls[1].DDS().PendingTxns(), cls[2].DDS().PendingTxns())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Survivor transaction load racing the crash: outcomes must be
	// success or a clean retryable abort (which the facade retries until
	// its deadline) — never a permanent failure, which would mean a
	// commit left partially applied.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits, permanent atomic.Int64
	var firstPermanent atomic.Value
	for _, id := range []NodeID{1, 2} {
		cl := cls[id]
		nid := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := []byte(fmt.Sprintf("w%v-%d", nid, i))
				lctx, lcancel := context.WithTimeout(context.Background(), 15*time.Second)
				_, err := cl.Txn().Set("load-x", v).Set("load-y", v).Commit(lctx)
				lcancel()
				switch {
				case err == nil:
					commits.Add(1)
				case !IsRetryable(err) && !errors.Is(err, context.DeadlineExceeded):
					permanent.Add(1)
					firstPermanent.CompareAndSwap(nil, err.Error())
				}
			}
		}()
	}

	// Crash: silence the address (no leave, no goodbye), then reap the
	// dead process's runtime. The WAL backend survives, like a disk.
	net.SetNodeDown("wal-n3", true)
	_ = cls[3].Runtime().Close()

	// The survivors detect the death and resolve both orphans from the
	// decide ring: B commits (record present), A aborts (record absent
	// at the coordinator's ordered removal).
	for _, id := range []NodeID{1, 2} {
		waitValue(t, cls[id], "mid-commit", "after", 20*time.Second)
		v, ok, _ := cls[id].Get(ctx, "mid-abort")
		if !ok || string(v) != "before" {
			t.Fatalf("node %v: mid-abort = %q (ok=%v), want \"before\"", id, v, ok)
		}
	}
	drained := time.Now().Add(10 * time.Second)
	for (cls[1].DDS().PendingTxns() > 0 || cls[2].DDS().PendingTxns() > 0) && time.Now().Before(drained) {
		time.Sleep(2 * time.Millisecond)
	}
	if n1, n2 := cls[1].DDS().PendingTxns(), cls[2].DDS().PendingTxns(); n1 > 0 || n2 > 0 {
		t.Fatalf("staged transactions leaked past the crash: node1=%d node2=%d", n1, n2)
	}

	// Load written while the node is down — the recovery gap.
	const down = 40
	for i := 0; i < down; i++ {
		if err := cls[1].Set(ctx, fmt.Sprintf("down-%d", i), []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if commits.Load() == 0 {
		t.Fatal("no survivor transaction committed around the crash")
	}
	if n := permanent.Load(); n != 0 {
		t.Fatalf("%d transactions failed permanently around the crash; first: %v", n, firstPermanent.Load())
	}

	// Restart from the WAL: replay locally, rejoin, delta fast-forward.
	net.SetNodeDown("wal-n3", false)
	cls[3] = openSimMember(t, net, ids, 3, 2, backends[3])
	if replayed := cls[3].Stats().Counter(stats.MetricRecoveryReplayed).Load(); replayed == 0 {
		t.Fatal("restarted node replayed no WAL records")
	}
	for _, id := range ids {
		if err := cls[id].WaitMembers(ctx, 3); err != nil {
			t.Fatal(err)
		}
	}
	waitValue(t, cls[3], fmt.Sprintf("down-%d", down-1), "d", 20*time.Second)
	waitValue(t, cls[3], "mid-commit", "after", 20*time.Second)
	if v, ok, _ := cls[3].Get(ctx, "mid-abort"); !ok || string(v) != "before" {
		t.Fatalf("restarted node: mid-abort = %q (ok=%v), want \"before\"", v, ok)
	}

	// The rejoin was served as a delta fast-forward, not a full keyspace
	// retransfer. The responder side counts the mode.
	deltas := cls[1].Stats().Counter(stats.MetricRecoveryDeltas).Load() +
		cls[2].Stats().Counter(stats.MetricRecoveryDeltas).Load()
	fulls := cls[1].Stats().Counter(stats.MetricRecoveryFulls).Load() +
		cls[2].Stats().Counter(stats.MetricRecoveryFulls).Load()
	if deltas == 0 {
		t.Fatalf("no delta fast-forward served (deltas=%d fulls=%d)", deltas, fulls)
	}
	if fulls != 0 {
		t.Fatalf("restart fell back to a full retransfer (deltas=%d fulls=%d)", deltas, fulls)
	}

	// Keyspace equivalence: same key set, same values, on all three.
	equivDeadline := time.Now().Add(20 * time.Second)
	for {
		equal := true
		mismatch := ""
		ref := cls[1].Keys()
		for _, id := range []NodeID{2, 3} {
			got := cls[id].Keys()
			if len(got) != len(ref) {
				equal = false
				mismatch = fmt.Sprintf("node %v holds %d keys, node 1 holds %d", id, len(got), len(ref))
				break
			}
		}
		if equal {
		keys:
			for _, k := range ref {
				want, _, _ := cls[1].Get(ctx, k)
				for _, id := range []NodeID{2, 3} {
					v, ok, _ := cls[id].Get(ctx, k)
					if !ok || string(v) != string(want) {
						equal = false
						mismatch = fmt.Sprintf("key %q: node 1 = %q, node %v = %q (ok=%v)", k, want, id, v, ok)
						break keys
					}
				}
			}
		}
		if equal {
			break
		}
		if time.Now().After(equivDeadline) {
			t.Fatalf("keyspaces diverged: %s", mismatch)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Tear down; double-Close on the restarted member must be a no-op.
	for _, id := range ids {
		if err := cls[id].Close(); err != nil {
			t.Fatalf("close node %v: %v", id, err)
		}
	}
	if err := cls[3].Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	net.Close()

	// Goroutine hygiene: everything the clusters started must wind down.
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+10 && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+10 {
		t.Fatalf("goroutine leak: %d now vs %d at start", n, baseGoroutines)
	}
}

// TestGatewayCacheInvalidationAcrossNodes wires the gateway's micro-cache
// to the cluster's ordered-apply stream: a write through node 1 must
// evict node 2's gateway cache entry when it applies — long before the
// (deliberately huge) TTL would expire it.
func TestGatewayCacheInvalidationAcrossNodes(t *testing.T) {
	net := simnet.New(simnet.Options{})
	defer net.Close()
	ids := []NodeID{1, 2}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cls := map[NodeID]*Cluster{}
	for _, id := range ids {
		cls[id] = openSimMember(t, net, ids, id, 2, nil)
		defer cls[id].Close()
	}
	for _, id := range ids {
		if err := cls[id].WaitMembers(ctx, 2); err != nil {
			t.Fatal(err)
		}
	}

	// TTL far beyond the test horizon: only apply-stream eviction can
	// make a cross-node write visible through this gateway in time.
	gw, err := gateway.New(gateway.Options{
		Backend:  cls[2],
		Registry: cls[2].Stats(),
		CacheTTL: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	cls[2].OnApply(func(e ApplyEvent) {
		for _, k := range e.Keys {
			gw.Invalidate(k)
		}
	})
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	get := func() (string, bool) {
		resp, err := http.Get(srv.URL + "/kv/hot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", false
		}
		var body struct {
			Value  []byte `json:"value"`
			Cached bool   `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return string(body.Value), body.Cached
	}

	if err := cls[1].Set(ctx, "hot", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Wait for v1 through the gateway, then read again so the entry is
	// definitely cached.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := get(); v == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway never served v1")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v, cached := get(); v != "v1" || !cached {
		t.Fatalf("second read = %q cached=%v, want cached v1", v, cached)
	}

	// The cross-node write: node 1 commits v2; node 2's replica applies
	// it, the hook evicts, and the very next gateway read is fresh.
	if err := cls[1].Set(ctx, "hot", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if v, _ := get(); v == "v2" {
			return
		}
		if time.Now().After(deadline) {
			v, cached := get()
			t.Fatalf("gateway still serves %q (cached=%v) after cross-node write", v, cached)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
