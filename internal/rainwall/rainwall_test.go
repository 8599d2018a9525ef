package rainwall

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

func startRainwall(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSingleNodeCapacityBound(t *testing.T) {
	c := startRainwall(t, 1)
	w := NewWorkload(WorkloadConfig{Seed: 1, Flows: 200, TotalBps: 600e6, VIPs: len(c.Pool)})
	samples := c.Run(w, RunOptions{Ticks: 100, TickLen: 10 * time.Millisecond})
	got := SteadyThroughput(samples, 10)
	if got > DefaultCapacityBps*1.01 {
		t.Fatalf("single node forwarded %.1f Mbps, capacity is %.1f", got/1e6, DefaultCapacityBps/1e6)
	}
	if got < DefaultCapacityBps*0.95 {
		t.Fatalf("single node forwarded %.1f Mbps under overload, want close to capacity", got/1e6)
	}
}

func TestThroughputScalesWithNodes(t *testing.T) {
	measure := func(n int) float64 {
		c := startRainwall(t, n)
		defer c.Close()
		w := NewWorkload(WorkloadConfig{Seed: 2, Flows: 400, TotalBps: 600e6, VIPs: len(c.Pool)})
		samples := c.Run(w, RunOptions{Ticks: 100, TickLen: 10 * time.Millisecond})
		return SteadyThroughput(samples, 10)
	}
	t1 := measure(1)
	t2 := measure(2)
	t4 := measure(4)
	s2 := t2 / t1
	s4 := t4 / t1
	// Figure 3's shape: near-2x at two nodes, near-4x (mildly sublinear)
	// at four.
	if s2 < 1.7 || s2 > 2.05 {
		t.Fatalf("2-node scaling = %.2f (t1=%.1f t2=%.1f Mbps), want ~1.97", s2, t1/1e6, t2/1e6)
	}
	if s4 < 3.2 || s4 > 4.05 {
		t.Fatalf("4-node scaling = %.2f (t1=%.1f t4=%.1f Mbps), want ~3.76", s4, t1/1e6, t4/1e6)
	}
	if s4 <= s2 {
		t.Fatalf("scaling not monotone: s2=%.2f s4=%.2f", s2, s4)
	}
}

func TestPolicyFiltersTraffic(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 2, Policy: WebOnly()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Non-web traffic: every flow is dropped by the policy.
	w := NewWorkload(WorkloadConfig{Seed: 3, Flows: 50, TotalBps: 50e6, VIPs: len(c.Pool), WebTraffic: false})
	// Force all ports off 80/443 so the whole workload is droppable.
	for i := range w.Flows {
		if p := w.Flows[i].Tuple.DstPort; p == 80 || p == 443 {
			w.Flows[i].Tuple.DstPort = 8080
		}
	}
	samples := c.Run(w, RunOptions{Ticks: 20, TickLen: 10 * time.Millisecond})
	if got := Throughput(samples); got != 0 {
		t.Fatalf("non-web traffic forwarded %.1f Mbps through WebOnly policy", got/1e6)
	}
	var filtered float64
	for _, s := range samples {
		filtered += s.FilteredBits
	}
	if filtered == 0 {
		t.Fatal("no bits recorded as filtered")
	}
	// Web traffic passes.
	w2 := NewWorkload(WorkloadConfig{Seed: 4, Flows: 50, TotalBps: 50e6, VIPs: len(c.Pool), WebTraffic: true})
	samples = c.Run(w2, RunOptions{Ticks: 20, TickLen: 10 * time.Millisecond})
	if got := Throughput(samples); got < 45e6 {
		t.Fatalf("web traffic forwarded only %.1f Mbps", got/1e6)
	}
}

func TestFailoverUnderTwoSeconds(t *testing.T) {
	// The paper's §3.2 claim: a client sees about a 2-second hiccup when
	// a gateway's cable is pulled, then traffic fully resumes. Paper-like
	// timers; paced run so the protocol reacts in real time.
	c, err := NewCluster(ClusterConfig{N: 2, Ring: core.PaperRing()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitReady(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(WorkloadConfig{Seed: 5, Flows: 100, TotalBps: 100e6, VIPs: len(c.Pool)})
	tick := 20 * time.Millisecond
	failAt := 50
	samples := c.Run(w, RunOptions{
		Ticks:   300,
		TickLen: tick,
		Paced:   true,
		OnTick: func(i int) {
			if i == failAt {
				c.FailNode(2)
			}
		},
	})
	preTick := MeanTickBits(samples[10:failAt])
	// Find the first tick after the failure where delivery is back to
	// >= 90% of the pre-failure rate and stays there for 10 ticks.
	recovered := -1
	for i := failAt; i < len(samples)-10; i++ {
		ok := true
		for j := i; j < i+10; j++ {
			if samples[j].DeliveredBits < 0.9*preTick {
				ok = false
				break
			}
		}
		if ok {
			recovered = i
			break
		}
	}
	if recovered < 0 {
		t.Fatalf("traffic never recovered after failover (pre=%.1f Mbps)\n%s",
			preTick/tick.Seconds()/1e6, c.FailoverReport(samples, failAt, tick))
	}
	// The failure must actually be visible: some tick under the threshold.
	dipped := false
	for i := failAt; i < recovered; i++ {
		if samples[i].DeliveredBits < 0.9*preTick {
			dipped = true
		}
	}
	if recovered > failAt && !dipped {
		t.Fatalf("recovery index moved without an observable dip\n%s", c.FailoverReport(samples, failAt, tick))
	}
	gap := time.Duration(recovered-failAt) * tick
	if gap > 2*time.Second {
		t.Fatalf("failover took %v, paper promises under two seconds\n%s", gap, c.FailoverReport(samples, failAt, tick))
	}
	t.Logf("failover gap = %v (pre-failure %.1f Mbps)", gap, preTick/tick.Seconds()/1e6)
}

func TestRecoveredNodeTakesTrafficBack(t *testing.T) {
	c := startRainwall(t, 2)
	w := NewWorkload(WorkloadConfig{Seed: 6, Flows: 100, TotalBps: 150e6, VIPs: len(c.Pool)})
	c.FailNode(2)
	if err := c.TC.WaitMembership(15*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	// All VIPs on node 1: capacity-limited to 95 Mbps.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && !c.allBound() {
		time.Sleep(time.Millisecond)
	}
	samples := c.Run(w, RunOptions{Ticks: 50, TickLen: 10 * time.Millisecond})
	solo := SteadyThroughput(samples, 5)
	if solo > DefaultCapacityBps*1.01 {
		t.Fatalf("degraded cluster forwarded %.1f Mbps above single-node capacity", solo/1e6)
	}
	// Plug the cable back in: the node merges back. Established
	// connections stay where they are (stickiness), so offer new
	// connections — they balance across both nodes and throughput rises.
	c.RecoverNode(2)
	if err := c.TC.WaitAssembled(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	seed := int64(100)
	for time.Now().Before(deadline) {
		seed++
		fresh := NewWorkload(WorkloadConfig{Seed: seed, Flows: 100, TotalBps: 150e6, VIPs: len(c.Pool)})
		samples = c.Run(fresh, RunOptions{Ticks: 30, TickLen: 10 * time.Millisecond})
		if SteadyThroughput(samples, 5) > 1.4*DefaultCapacityBps {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("throughput stayed at %.1f Mbps after recovery", SteadyThroughput(samples, 5)/1e6)
}

func TestPacketEngineSticky(t *testing.T) {
	e := NewPacketEngine()
	e.SetMembers([]core.NodeID{1, 2, 3})
	first := e.Assign(42)
	if first == wire.NoNode {
		t.Fatal("no assignment")
	}
	// A new member joining must not move the established connection.
	e.SetMembers([]core.NodeID{1, 2, 3, 4})
	if got := e.Assign(42); got != first {
		t.Fatalf("connection moved %v -> %v on join", first, got)
	}
	// Removing the target reassigns to a survivor.
	var survivors []core.NodeID
	for _, m := range []core.NodeID{1, 2, 3, 4} {
		if m != first {
			survivors = append(survivors, m)
		}
	}
	e.SetMembers(survivors)
	second := e.Assign(42)
	if second == first || second == wire.NoNode {
		t.Fatalf("reassignment after failure = %v", second)
	}
}

func TestPacketEngineBalance(t *testing.T) {
	e := NewPacketEngine()
	members := []core.NodeID{1, 2, 3, 4}
	e.SetMembers(members)
	counts := map[core.NodeID]int{}
	const conns = 40000
	for i := uint64(0); i < conns; i++ {
		counts[e.Assign(i)]++
	}
	for _, m := range members {
		share := float64(counts[m]) / conns
		if share < 0.22 || share > 0.28 {
			t.Fatalf("node %v got %.1f%% of connections, want ~25%%", m, share*100)
		}
	}
}

func TestPacketEngineForget(t *testing.T) {
	e := NewPacketEngine()
	e.SetMembers([]core.NodeID{1, 2})
	e.Assign(7)
	if e.Table() != 1 {
		t.Fatalf("table = %d", e.Table())
	}
	e.Forget(7)
	if e.Table() != 0 {
		t.Fatalf("table after forget = %d", e.Table())
	}
}

func TestPolicyRules(t *testing.T) {
	tcp := TCP
	p := &Policy{
		Rules: []Rule{
			{Proto: &tcp, DstPortLo: 22, Verdict: Drop},
			{SrcNet: 0x0A000000, SrcMask: 8, Verdict: Accept},
		},
		Default: Drop,
	}
	cases := []struct {
		t    FiveTuple
		want Verdict
	}{
		{FiveTuple{SrcIP: 0x0A010101, DstPort: 22, Proto: TCP}, Drop},   // rule 1
		{FiveTuple{SrcIP: 0x0A010101, DstPort: 80, Proto: TCP}, Accept}, // rule 2
		{FiveTuple{SrcIP: 0x0B010101, DstPort: 80, Proto: TCP}, Drop},   // default
		{FiveTuple{SrcIP: 0x0A010101, DstPort: 22, Proto: UDP}, Accept}, // rule 1 is TCP-only
	}
	for i, c := range cases {
		if got := p.Evaluate(c.t); got != c.want {
			t.Fatalf("case %d (%v): verdict %v, want %v", i, c.t, got, c.want)
		}
	}
}

func TestWorkloadGenerator(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 9, Flows: 500, TotalBps: 100e6, VIPs: 4, WebTraffic: true})
	if len(w.Flows) != 500 {
		t.Fatalf("flows = %d", len(w.Flows))
	}
	var sum float64
	for _, f := range w.Flows {
		sum += f.RateBps
		if f.VIP < 0 || f.VIP >= 4 {
			t.Fatalf("flow VIP = %d", f.VIP)
		}
		if p := f.Tuple.DstPort; p != 80 && p != 443 {
			t.Fatalf("web workload flow aimed at port %d", p)
		}
	}
	if sum < 99e6 || sum > 101e6 {
		t.Fatalf("rates sum to %.1f Mbps, want 100", sum/1e6)
	}
	// Determinism.
	w2 := NewWorkload(WorkloadConfig{Seed: 9, Flows: 500, TotalBps: 100e6, VIPs: 4, WebTraffic: true})
	for i := range w.Flows {
		if w.Flows[i].Tuple != w2.Flows[i].Tuple || w.Flows[i].RateBps != w2.Flows[i].RateBps {
			t.Fatal("workload not deterministic for equal seeds")
		}
	}
}

func TestFiveTupleString(t *testing.T) {
	s := FiveTuple{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 1234, DstPort: 80, Proto: TCP}.String()
	if s != "tcp 10.0.0.1:1234 -> 192.168.0.1:80" {
		t.Fatalf("String() = %q", s)
	}
}

func TestLoadFiguresSharedAcrossCluster(t *testing.T) {
	c := startRainwall(t, 2)
	w := NewWorkload(WorkloadConfig{Seed: 12, Flows: 100, TotalBps: 100e6, VIPs: len(c.Pool)})
	c.Run(w, RunOptions{Ticks: 30, TickLen: 10 * time.Millisecond})
	// Both gateways forwarded traffic; each replica eventually shows the
	// other's load figure via the data service.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		loads := c.Gateways[1].ClusterLoads()
		if len(loads) == 2 && loads[2] > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("load figures not shared: %v", c.Gateways[1].ClusterLoads())
}

func TestChurnRebalancesAfterRecovery(t *testing.T) {
	// With connection churn, a recovered gateway wins traffic back
	// automatically: fresh connections hash across the full membership.
	c := startRainwall(t, 2)
	c.FailNode(2)
	if err := c.TC.WaitMembership(15*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	c.RecoverNode(2)
	if err := c.TC.WaitAssembled(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(WorkloadConfig{Seed: 21, Flows: 200, TotalBps: 150e6, VIPs: len(c.Pool)})
	churn := NewChurn(22, 5, 0.2)
	deadline := time.Now().Add(20 * time.Second)
	var got float64
	for time.Now().Before(deadline) {
		samples := c.Run(w, RunOptions{
			Ticks:   60,
			TickLen: 10 * time.Millisecond,
			OnTick:  func(tick int) { churn.Apply(w, tick) },
		})
		got = SteadyThroughput(samples, 30)
		if got > 1.4*DefaultCapacityBps {
			return
		}
	}
	t.Fatalf("churned traffic stayed at %.1f Mbps; recovered node never won share", got/1e6)
}

func TestChurnPreservesAggregateRate(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 30, Flows: 100, TotalBps: 50e6, VIPs: 2})
	churn := NewChurn(31, 1, 0.5)
	before := 0.0
	for _, f := range w.Flows {
		before += f.RateBps
	}
	for tick := 1; tick <= 10; tick++ {
		churn.Apply(w, tick)
	}
	after := 0.0
	ids := map[uint64]bool{}
	for _, f := range w.Flows {
		after += f.RateBps
		if ids[f.ID] {
			t.Fatal("duplicate connection ID after churn")
		}
		ids[f.ID] = true
	}
	if before != after {
		t.Fatalf("churn changed the aggregate rate: %.1f -> %.1f", before/1e6, after/1e6)
	}
}
