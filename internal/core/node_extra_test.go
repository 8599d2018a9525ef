package core

import (
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestTraceRecordsProtocolEvents(t *testing.T) {
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	log := trace.New(256)
	rc := FastRing()
	rc.Eligible = []NodeID{1, 2}
	n1, err := NewNode(Config{ID: 1, Ring: rc, Trace: log},
		[]transport.PacketConn{transport.NewSimConn(net.MustEndpoint("a"))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n1.Close() })
	rc2 := FastRing()
	rc2.Eligible = []NodeID{1, 2}
	n2, err := NewNode(Config{ID: 2, Ring: rc2},
		[]transport.PacketConn{transport.NewSimConn(net.MustEndpoint("b"))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n2.Close() })
	n1.SetPeer(2, []transport.Addr{"b"})
	n2.SetPeer(1, []transport.Addr{"a"})
	n1.Start()
	n2.Start()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && len(n1.Members()) != 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the token circulate
	if log.CountKind(trace.KindMembership) == 0 {
		t.Fatal("no membership events traced")
	}
	if log.CountKind(trace.KindTokenRecv) == 0 && log.CountKind(trace.KindTokenPass) == 0 {
		t.Fatalf("no token events traced:\n%s", log.Dump())
	}
	if log.CountKind(trace.KindMerge) == 0 && log.CountKind(trace.KindStateChange) == 0 {
		t.Fatal("no state/merge events traced")
	}
}

func TestMulticastPayloadIsolated(t *testing.T) {
	rec := newRecorder()
	tc := startCluster(t, 2, rec)
	buf := []byte("original")
	if err := tc.Nodes[1].Multicast(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // caller reuses the buffer immediately
	rec.waitPayload(t, 2, "original", 5*time.Second)
}

func TestDoubleCloseIsSafe(t *testing.T) {
	rec := newRecorder()
	tc := startCluster(t, 2, rec)
	if err := tc.Nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	if err := tc.Nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEpochAdvancesOnRegeneration(t *testing.T) {
	rec := newRecorder()
	tc := startCluster(t, 3, rec)
	before := tc.Nodes[1].Epoch()
	// Kill whoever holds the token long enough to force a regeneration.
	tc.Net.SetNodeDown(Addr(2), true)
	tc.Net.SetNodeDown(Addr(3), true)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if len(tc.Nodes[1].Members()) == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := tc.Nodes[1].Epoch(); got < before {
		t.Fatalf("epoch went backwards: %d -> %d", before, got)
	}
	if tc.Nodes[1].State() == ring.Down {
		t.Fatal("survivor shut down")
	}
}

func TestStateReflectsTokenPossession(t *testing.T) {
	rec := newRecorder()
	tc := startCluster(t, 1, rec)
	// A singleton always holds its token.
	if got := tc.Nodes[1].State(); got != ring.Eating {
		t.Fatalf("singleton state = %v, want EATING", got)
	}
}

func TestZeroIDRejected(t *testing.T) {
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	_, err := NewNode(Config{ID: 0},
		[]transport.PacketConn{transport.NewSimConn(net.MustEndpoint("z"))})
	if err == nil {
		t.Fatal("zero ID accepted")
	}
}

func TestSetEligibleExpandsDiscovery(t *testing.T) {
	// Two nodes that initially do not know each other; updating the
	// eligible membership online (§2.4) lets them merge.
	net := simnet.New(simnet.Options{})
	t.Cleanup(net.Close)
	mk := func(id NodeID, addr simnet.Addr) *Node {
		rc := FastRing()
		rc.Eligible = []NodeID{id} // alone
		n, err := NewNode(Config{ID: id, Ring: rc},
			[]transport.PacketConn{transport.NewSimConn(net.MustEndpoint(addr))})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	n1 := mk(1, "e1")
	n2 := mk(2, "e2")
	n1.SetPeer(2, []transport.Addr{"e2"})
	n2.SetPeer(1, []transport.Addr{"e1"})
	n1.Start()
	n2.Start()
	time.Sleep(100 * time.Millisecond)
	if len(n1.Members()) != 1 || len(n2.Members()) != 1 {
		t.Fatal("nodes merged without eligibility")
	}
	n1.SetEligible([]NodeID{1, 2})
	n2.SetEligible([]NodeID{1, 2})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(n1.Members()) == 2 && len(n2.Members()) == 2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("online eligibility update did not merge: %v / %v", n1.Members(), n2.Members())
}

func TestTokenRoundTripHistogramPopulates(t *testing.T) {
	rec := newRecorder()
	tc := startCluster(t, 3, rec)
	time.Sleep(100 * time.Millisecond)
	sum := tc.Nodes[1].Stats().Histogram(stats.HistTokenRoundTrip).Summary()
	if sum.Count == 0 {
		t.Fatal("token round-trip histogram empty")
	}
	if sum.Mean <= 0 {
		t.Fatalf("round trip mean = %v", sum.Mean)
	}
}

func TestTokenRestMetricsPopulate(t *testing.T) {
	// Node 1 writes while 2 and 3 have nothing to do: the rotation's rest
	// goes to node 1, the others pass on arrival, and both show on the
	// ring-labeled series.
	rec := newRecorder()
	tc := startCluster(t, 3, rec)
	rest := stats.LabeledName(stats.HistTokenRest, "ring", "0")
	idle := stats.LabeledName(stats.MetricTokenIdlePasses, "ring", "0")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := tc.Nodes[1].Multicast([]byte("w")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		writer := tc.Nodes[1].Stats().Snapshot()
		other := tc.Nodes[2].Stats().Snapshot()
		if writer.Histograms[rest].Count > 0 && other.Counters[idle] > 0 &&
			other.Histograms[rest].Count > 0 {
			return
		}
	}
	t.Fatalf("rest metrics did not populate:\n%v", tc.Nodes[2].Stats().Snapshot())
}

func TestTokenBudgetPassesCount(t *testing.T) {
	// Node 1 queues far more than its two-message attach budget: its
	// possessions spend the budget and pass at once, and those passes are
	// counted as budget passes. Node 2 never writes, so it has none.
	rc := FastRing()
	rc.MaxBatch = 2
	tc, err := NewTestCluster(ClusterOptions{N: 3, Ring: rc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)
	if err := tc.WaitAssembled(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	budget := stats.LabeledName(stats.MetricTokenBudgetPasses, "ring", "0")
	for i := 0; i < 64; i++ {
		if err := tc.Nodes[1].Multicast([]byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tc.Nodes[1].Stats().Snapshot().Counters[budget] >= 8 {
			if n := tc.Nodes[2].Stats().Snapshot().Counters[budget]; n != 0 {
				t.Fatalf("idle node 2 counted %d budget passes", n)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("budget passes did not count:\n%v", tc.Nodes[1].Stats().Snapshot())
}

func TestMulticastLatencyHistogramPopulates(t *testing.T) {
	rec := newRecorder()
	tc := startCluster(t, 2, rec)
	for i := 0; i < 5; i++ {
		if err := tc.Nodes[1].Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tc.Nodes[1].Stats().Histogram(stats.HistMulticastLatency).Count() >= 5 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("multicast latency histogram did not reach 5 samples")
}

var _ = wire.NoNode
