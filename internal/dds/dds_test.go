package dds

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// ddsCluster builds a session cluster with a data-service replica per node.
type ddsCluster struct {
	tc   *core.TestCluster
	svcs map[core.NodeID]*Service
}

func startDDS(t *testing.T, n int) *ddsCluster {
	t.Helper()
	tc, err := core.NewTestCluster(core.ClusterOptions{N: n, DeferStart: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)
	dc := &ddsCluster{tc: tc, svcs: make(map[core.NodeID]*Service)}
	for id, node := range tc.Nodes {
		dc.svcs[id] = New(node)
	}
	tc.StartAll()
	if err := tc.WaitAssembled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return dc
}

func (dc *ddsCluster) waitKey(t *testing.T, id core.NodeID, key, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if v, ok := dc.svcs[id].Get(key); ok && string(v) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	v, _ := dc.svcs[id].Get(key)
	t.Fatalf("node %v key %q = %q, want %q", id, key, v, want)
}

func TestReplicatedSetVisibleEverywhere(t *testing.T) {
	dc := startDDS(t, 3)
	ctx := context.Background()
	if err := dc.svcs[1].Set(ctx, "color", []byte("blue")); err != nil {
		t.Fatal(err)
	}
	for _, id := range dc.tc.IDs {
		dc.waitKey(t, id, "color", "blue", 5*time.Second)
	}
}

func TestReadYourWrites(t *testing.T) {
	dc := startDDS(t, 3)
	if err := dc.svcs[2].Set(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Set returns only after local apply.
	if v, ok := dc.svcs[2].Get("k"); !ok || string(v) != "v" {
		t.Fatalf("read-your-writes violated: %q %v", v, ok)
	}
}

func TestDeleteReplicates(t *testing.T) {
	dc := startDDS(t, 3)
	ctx := context.Background()
	if err := dc.svcs[1].Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, id := range dc.tc.IDs {
		dc.waitKey(t, id, "k", "v", 5*time.Second)
	}
	if err := dc.svcs[1].Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		gone := true
		for _, id := range dc.tc.IDs {
			if _, ok := dc.svcs[id].Get("k"); ok {
				gone = false
			}
		}
		if gone {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("delete did not replicate")
}

func TestLastWriterWinsConsistency(t *testing.T) {
	dc := startDDS(t, 4)
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, id := range dc.tc.IDs {
		wg.Add(1)
		go func(id core.NodeID) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := dc.svcs[id].Set(ctx, "contended", []byte(fmt.Sprintf("%v-%d", id, i))); err != nil {
					t.Error(err)
				}
			}
		}(id)
	}
	wg.Wait()
	time.Sleep(200 * time.Millisecond) // let the last write circulate
	ref, ok := dc.svcs[1].Get("contended")
	if !ok {
		t.Fatal("key missing after contention")
	}
	for _, id := range dc.tc.IDs {
		got, _ := dc.svcs[id].Get("contended")
		if string(got) != string(ref) {
			t.Fatalf("replicas diverge: node %v has %q, node 1 has %q", id, got, ref)
		}
	}
}

func TestLockMutualExclusion(t *testing.T) {
	dc := startDDS(t, 3)
	var mu sync.Mutex
	inCS, maxCS := 0, 0
	var wg sync.WaitGroup
	for _, id := range dc.tc.IDs {
		wg.Add(1)
		go func(id core.NodeID) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				if err := dc.svcs[id].Lock(ctx, "L"); err != nil {
					cancel()
					t.Errorf("node %v: %v", id, err)
					return
				}
				mu.Lock()
				inCS++
				if inCS > maxCS {
					maxCS = inCS
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inCS--
				mu.Unlock()
				if err := dc.svcs[id].Unlock(ctx, "L"); err != nil {
					t.Errorf("node %v unlock: %v", id, err)
				}
				cancel()
			}
		}(id)
	}
	wg.Wait()
	if maxCS != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxCS)
	}
}

func TestLockQueueFIFOAcrossNodes(t *testing.T) {
	dc := startDDS(t, 2)
	ctx := context.Background()
	if err := dc.svcs[1].Lock(ctx, "q"); err != nil {
		t.Fatal(err)
	}
	got := make(chan core.NodeID, 1)
	go func() {
		if err := dc.svcs[2].Lock(ctx, "q"); err == nil {
			got <- 2
		}
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("lock granted while held")
	default:
	}
	if err := dc.svcs[1].Unlock(context.Background(), "q"); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-got:
		if id != 2 {
			t.Fatalf("granted to %v", id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued waiter never granted")
	}
	if err := dc.svcs[2].Unlock(context.Background(), "q"); err != nil {
		t.Fatal(err)
	}
}

func TestUnlockWithoutHoldingFails(t *testing.T) {
	dc := startDDS(t, 2)
	if err := dc.svcs[1].Unlock(context.Background(), "nope"); err != ErrNotHolder {
		t.Fatalf("err = %v, want ErrNotHolder", err)
	}
}

func TestLockCancellationWithdrawsRequest(t *testing.T) {
	dc := startDDS(t, 2)
	ctx := context.Background()
	if err := dc.svcs[1].Lock(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if err := dc.svcs[2].Lock(ctx2, "c"); err == nil {
		t.Fatal("lock acquired while held")
	}
	// After cancellation, releasing must leave the lock free (the queued
	// request was withdrawn), and a fresh acquire succeeds immediately.
	if err := dc.svcs[1].Unlock(context.Background(), "c"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, held := dc.svcs[1].Holder("c"); !held {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if holder, held := dc.svcs[1].Holder("c"); held {
		t.Fatalf("lock still held by %v after release + withdrawn queue entry", holder)
	}
}

func TestDeadHolderLockReleased(t *testing.T) {
	dc := startDDS(t, 3)
	ctx := context.Background()
	if err := dc.svcs[2].Lock(ctx, "hot"); err != nil {
		t.Fatal(err)
	}
	// Node 3 queues behind node 2.
	granted := make(chan struct{})
	go func() {
		if err := dc.svcs[3].Lock(ctx, "hot"); err == nil {
			close(granted)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	// Node 2 crashes while holding the lock.
	dc.tc.Net.SetNodeDown(core.Addr(2), true)
	select {
	case <-granted:
		// The ordered SysNodeRemoved released the dead node's lock and
		// promoted node 3 (§2.7).
	case <-time.After(15 * time.Second):
		t.Fatal("lock never released after holder death")
	}
}

func TestJoinerReceivesStateSnapshot(t *testing.T) {
	// Start a 3-node cluster, write state, isolate node 3 long enough to
	// be removed, write more, then heal: the rejoiner must converge to
	// the full state via the ordered snapshot.
	dc := startDDS(t, 3)
	ctx := context.Background()
	if err := dc.svcs[1].Set(ctx, "pre", []byte("1")); err != nil {
		t.Fatal(err)
	}
	dc.tc.Net.Partition([]simnet.Addr{core.Addr(1), core.Addr(2)}, []simnet.Addr{core.Addr(3)})
	if err := dc.tc.WaitMembership(10*time.Second, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := dc.svcs[1].Set(ctx, "during", []byte("2")); err != nil {
		t.Fatal(err)
	}
	dc.tc.Net.Heal()
	if err := dc.tc.WaitAssembled(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	dc.waitKey(t, 3, "pre", "1", 10*time.Second)
	dc.waitKey(t, 3, "during", "2", 10*time.Second)
	// And post-rejoin writes flow everywhere.
	if err := dc.svcs[3].Set(ctx, "post", []byte("3")); err != nil {
		t.Fatal(err)
	}
	for _, id := range dc.tc.IDs {
		dc.waitKey(t, id, "post", "3", 10*time.Second)
	}
}

func TestWatchObservesChangesInOrder(t *testing.T) {
	dc := startDDS(t, 2)
	var mu sync.Mutex
	var seen []string
	dc.svcs[2].Watch(func(key string, val []byte, deleted bool) {
		mu.Lock()
		seen = append(seen, fmt.Sprintf("%s=%s del=%v", key, val, deleted))
		mu.Unlock()
	})
	ctx := context.Background()
	dc.svcs[1].Set(ctx, "a", []byte("1"))
	dc.svcs[1].Set(ctx, "a", []byte("2"))
	dc.svcs[1].Delete(ctx, "a")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n >= 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"a=1 del=false", "a=2 del=false", "a= del=true"}
	if len(seen) != 3 {
		t.Fatalf("watch saw %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("watch[%d] = %q, want %q", i, seen[i], want[i])
		}
	}
}

func TestAppPassthroughPreserved(t *testing.T) {
	dc := startDDS(t, 2)
	got := make(chan string, 1)
	dc.svcs[2].SetAppHandlers(core.Handlers{
		OnDeliver: func(d core.Delivery) {
			select {
			case got <- string(d.Payload):
			default:
			}
		},
	})
	if err := dc.tc.Nodes[1].Multicast([]byte("app message")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p != "app message" {
			t.Fatalf("passthrough payload = %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("app payload not passed through")
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		enc  []byte
		want op
	}{
		{"acquire", encodeAcquire("l1", 7), op{kind: opAcquire, key: "l1", reqID: 7}},
		{"release", encodeRelease("l2", 8), op{kind: opRelease, key: "l2", reqID: 8}},
		{"cancel", encodeCancel("l3", 9), op{kind: opCancel, key: "l3", reqID: 9}},
		{"set", encodeSet("k", []byte("v"), 10), op{kind: opSet, key: "k", val: []byte("v"), reqID: 10}},
		{"del", encodeDel("k2", 11), op{kind: opDel, key: "k2", reqID: 11}},
		{"snapreq", encodeSnapReq(), op{kind: opSnapReq}},
	}
	for _, c := range cases {
		got, ok := decodeOp(c.enc)
		if !ok {
			t.Fatalf("%s: decode failed", c.name)
		}
		if got.kind != c.want.kind || got.key != c.want.key || got.reqID != c.want.reqID || string(got.val) != string(c.want.val) {
			t.Fatalf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestAppPayloadNotMistakenForOp(t *testing.T) {
	for _, p := range [][]byte{nil, {}, []byte("hello"), {ddsMagic}, {ddsMagic, 99, 1}} {
		if _, ok := decodeOp(p); ok {
			t.Fatalf("payload %x decoded as dds op", p)
		}
	}
}

func TestSnapshotStateCodec(t *testing.T) {
	st := snapshotState{
		kv: imageOf(map[string][]byte{"a": []byte("1"), "b": {}}),
		locks: map[string]*lockState{
			"L": {owner: 3, ownerReq: 9, queue: []lockReq{{node: 1, reqID: 2}, {node: 2, reqID: 5}}},
		},
	}
	enc := encodeSnapshot(wire.NoNode, st)
	o, ok := decodeOp(enc)
	if !ok || o.kind != opSnapshot {
		t.Fatal("snapshot decode failed")
	}
	got, err := decodeSnapshotState(o.val)
	if err != nil {
		t.Fatal(err)
	}
	if kv := maps.Collect(got.kv.all()); string(kv["a"]) != "1" || len(kv) != 2 {
		t.Fatalf("kv = %v", kv)
	}
	l := got.locks["L"]
	if l == nil || l.owner != 3 || l.ownerReq != 9 || len(l.queue) != 2 || l.queue[1].reqID != 5 {
		t.Fatalf("locks = %+v", l)
	}
}

// imageOf builds a keyspace image holding kv.
func imageOf(kv map[string][]byte) viewImage {
	var img viewImage
	for k, v := range kv {
		img.put(k, v)
	}
	return img
}

// TestSnapshotInstallNotifiesDiff installs a snapshot on a live replica
// and checks what its watchers see: exactly the keys the snapshot adds or
// changes, in key order, then exactly the keys it removes, in key order —
// and nothing for keys whose value it leaves as it was.
func TestSnapshotInstallNotifiesDiff(t *testing.T) {
	dc := startDDS(t, 1)
	s := dc.svcs[1]
	ctx := context.Background()
	before := make(map[string][]byte)
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i))
		if err := s.Set(ctx, k, v); err != nil {
			t.Fatal(err)
		}
		before[k] = v
	}
	after := make(map[string][]byte)
	var want []string
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%02d", i)
		switch i % 4 {
		case 0: // unchanged, in a fresh slice
			after[k] = append([]byte(nil), before[k]...)
		case 1: // changed
			after[k] = []byte(fmt.Sprintf("w%d", i))
			want = append(want, k+"="+string(after[k]))
		}
		// i%4 == 2, 3: removed
	}
	for i := 0; i < 6; i++ { // added
		k := fmt.Sprintf("n%02d", i)
		after[k] = []byte(fmt.Sprintf("x%d", i))
		want = append(want, k+"="+string(after[k]))
	}
	sort.Strings(want)
	for i := 0; i < 40; i++ {
		if i%4 >= 2 {
			want = append(want, fmt.Sprintf("k%02d deleted", i))
		}
	}

	var mu sync.Mutex
	var seen []string
	s.Watch(func(key string, val []byte, deleted bool) {
		mu.Lock()
		defer mu.Unlock()
		if deleted {
			seen = append(seen, key+" deleted")
		} else {
			seen = append(seen, key+"="+string(val))
		}
	})
	s.mu.Lock()
	st := s.snapshotStateLocked()
	st.kv = imageOf(after)
	o, ok := decodeOp(encodeSnapshot(s.id, st))
	if !ok {
		s.mu.Unlock()
		t.Fatal("snapshot decode failed")
	}
	s.syncing.Store(true)
	s.applySnapshotLocked(s.id, o)
	s.mu.Unlock()

	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(seen, want) {
		t.Fatalf("install notified\n%v\nwant\n%v", seen, want)
	}
	for k, v := range after {
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("after install %q = %q,%v; want %q", k, got, ok, v)
		}
	}
	if n := len(s.Keys()); n != len(after) {
		t.Fatalf("after install %d keys, want %d", n, len(after))
	}
}
