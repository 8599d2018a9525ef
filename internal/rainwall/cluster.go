package rainwall

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/vip"
	"repro/internal/wire"
)

// ClusterConfig assembles a Rainwall cluster for simulation.
type ClusterConfig struct {
	// N is the number of gateways.
	N int
	// CapacityBps is each gateway's forwarding capacity. The default,
	// 95 Mbit/s, calibrates the single-node case to the paper's Figure 3
	// so scaling factors are directly comparable.
	CapacityBps float64
	// VIPs is the size of the virtual IP pool; defaults to 2*N so load
	// spreads even at the VIP level.
	VIPs int
	// Policy defaults to AllowAll.
	Policy *Policy
	// SyncCostPerPeer is the per-peer coordination cost fraction; a
	// negative value disables it, zero selects the default 0.02
	// calibrated to Figure 3's efficiency curve.
	SyncCostPerPeer float64
	// Ring overrides the protocol timers (defaults to core.FastRing).
	Ring ring.Config
}

// DefaultCapacityBps calibrates one gateway to the paper's measured
// single-node throughput (95 Mbit/s of web traffic through a Sun Ultra-5
// on Fast Ethernet, §4.2).
const DefaultCapacityBps = 95e6

// DefaultSyncCostPerPeer is the per-peer coordination cost fraction,
// calibrated so cluster efficiency tracks Figure 3 (1.97x at 2 nodes,
// 3.76x at 4).
const DefaultSyncCostPerPeer = 0.02

// Cluster is a running Rainwall cluster plus its simulated subnet.
type Cluster struct {
	TC       *core.TestCluster
	Subnet   *vip.Subnet
	Gateways map[core.NodeID]*Gateway
	Pool     []vip.IP

	mu    sync.Mutex
	down  map[core.NodeID]bool
	byMAC map[vip.MAC]core.NodeID
}

// NewCluster builds and starts a Rainwall cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("rainwall: cluster size %d", cfg.N)
	}
	if cfg.CapacityBps <= 0 {
		cfg.CapacityBps = DefaultCapacityBps
	}
	if cfg.VIPs <= 0 {
		cfg.VIPs = 2 * cfg.N
	}
	if cfg.Policy == nil {
		cfg.Policy = AllowAll()
	}
	switch {
	case cfg.SyncCostPerPeer < 0:
		cfg.SyncCostPerPeer = 0
	case cfg.SyncCostPerPeer == 0:
		cfg.SyncCostPerPeer = DefaultSyncCostPerPeer
	}
	tc, err := core.NewTestCluster(core.ClusterOptions{
		N:          cfg.N,
		Ring:       cfg.Ring,
		DeferStart: true,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		TC:       tc,
		Subnet:   vip.NewSubnet(),
		Gateways: make(map[core.NodeID]*Gateway),
		down:     make(map[core.NodeID]bool),
		byMAC:    make(map[vip.MAC]core.NodeID),
	}
	for i := 0; i < cfg.VIPs; i++ {
		c.Pool = append(c.Pool, vip.IP(fmt.Sprintf("10.0.0.%d", 100+i)))
	}
	for id, node := range tc.Nodes {
		g := newGateway(node, c.Subnet, c.Pool, cfg.CapacityBps, cfg.Policy)
		g.SyncCostPerPeer = cfg.SyncCostPerPeer
		c.Gateways[id] = g
		c.byMAC[MACOf(id)] = id
	}
	tc.StartAll()
	return c, nil
}

// WaitReady blocks until the cluster assembled and every VIP is bound to a
// live gateway's MAC.
func (c *Cluster) WaitReady(timeout time.Duration) error {
	if err := c.TC.WaitAssembled(timeout); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.allBound() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("rainwall: VIPs not bound within %v: %v", timeout, c.Subnet.Bindings())
}

func (c *Cluster) allBound() bool { return c.staleVIPs() == 0 }

// staleVIPs counts the VIPs that are unbound or bound to a failed or
// unknown gateway.
func (c *Cluster) staleVIPs() int {
	stale := 0
	for _, ip := range c.Pool {
		mac, ok := c.Subnet.Lookup(ip)
		if !ok {
			stale++
			continue
		}
		if id, known := c.lookupMAC(mac); !known || c.isDown(id) {
			stale++
		}
	}
	return stale
}

func (c *Cluster) lookupMAC(mac vip.MAC) (core.NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.byMAC[mac]
	return id, ok
}

// FailNode simulates the unplugged network cable of §3.2: the node is cut
// off from the cluster and from traffic, but keeps running. Its link to
// the subnet goes down with the cable: the cut-off node still believes it
// owns virtual IPs, and without this its gratuitous ARPs would keep
// pulling them back from the survivors.
func (c *Cluster) FailNode(id core.NodeID) {
	c.mu.Lock()
	c.down[id] = true
	c.mu.Unlock()
	c.Subnet.SetLinkDown(MACOf(id), true)
	c.TC.Net.SetNodeDown(core.Addr(id), true)
}

// RecoverNode plugs the cable back in; the node rejoins via discovery.
func (c *Cluster) RecoverNode(id core.NodeID) {
	c.mu.Lock()
	delete(c.down, id)
	c.mu.Unlock()
	c.Subnet.SetLinkDown(MACOf(id), false)
	c.TC.Net.SetNodeDown(core.Addr(id), false)
}

func (c *Cluster) isDown(id core.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[id]
}

// Close stops everything.
func (c *Cluster) Close() {
	for _, g := range c.Gateways {
		g.Monitor.Stop()
		g.VIPMgr.Stop()
		g.StopLoadSharing()
	}
	c.TC.Close()
}

// TickSample records one simulation tick's aggregate result.
type TickSample struct {
	// Elapsed is the simulation time at the end of the tick.
	Elapsed time.Duration
	// DeliveredBits counts bits forwarded by all gateways in the tick.
	DeliveredBits float64
	// LostBits counts offered bits that found no live path (unresolved
	// VIP, dead entry gateway, or dead target node).
	LostBits float64
	// FilteredBits counts bits dropped by the firewall policy.
	FilteredBits float64
}

// RunOptions drive a simulation run.
type RunOptions struct {
	// Ticks and TickLen size the run: total simulated time is
	// Ticks*TickLen.
	Ticks   int
	TickLen time.Duration
	// Paced, when true, advances one tick per TickLen of wall-clock time
	// so the protocol stack reacts in real time (needed for fail-over
	// measurements). Unpaced runs compute steady-state throughput as
	// fast as possible.
	Paced bool
	// OnTick, when non-nil, is invoked before each tick with its index —
	// the hook used to inject failures mid-run.
	OnTick func(tick int)
}

// Run pushes the workload through the cluster and returns per-tick
// samples. The data path per flow and tick is: resolve the flow's VIP on
// the subnet (ARP), enter at the owning gateway, evaluate the firewall
// policy once per connection, let the packet engine pick the target node
// (connection-by-connection balancing, §3.2), and forward subject to the
// target's capacity.
func (c *Cluster) Run(w *Workload, opts RunOptions) []TickSample {
	if opts.Ticks <= 0 {
		opts.Ticks = 100
	}
	if opts.TickLen <= 0 {
		opts.TickLen = 10 * time.Millisecond
	}
	dt := opts.TickLen.Seconds()
	samples := make([]TickSample, 0, opts.Ticks)
	var ticker *time.Ticker
	if opts.Paced {
		ticker = time.NewTicker(opts.TickLen)
		defer ticker.Stop()
	}
	for tick := 0; tick < opts.Ticks; tick++ {
		if opts.OnTick != nil {
			opts.OnTick(tick)
		}
		var lost, filtered float64
		for i := range w.Flows {
			f := &w.Flows[i]
			bits := f.RateBps * dt
			ip := c.Pool[f.VIP%len(c.Pool)]
			mac, ok := c.Subnet.Lookup(ip)
			if !ok {
				lost += bits
				continue
			}
			entryID, known := c.lookupMAC(mac)
			if !known || c.isDown(entryID) {
				lost += bits // ARP still points at the failed gateway
				continue
			}
			entry := c.Gateways[entryID]
			if entry.Verdict(f) == Drop {
				entry.Filtered(bits)
				filtered += bits
				continue
			}
			target := entry.Engine.Assign(f.ID)
			if target == wire.NoNode {
				lost += bits
				continue
			}
			if c.isDown(target) {
				// The entry's view is stale; the connection re-hashes
				// once the membership change propagates.
				lost += bits
				continue
			}
			c.Gateways[target].Offer(bits)
		}
		var delivered float64
		for id, g := range c.Gateways {
			out := g.EndTick(opts.TickLen)
			if c.isDown(id) {
				continue // a dead node forwards nothing
			}
			delivered += out
		}
		samples = append(samples, TickSample{
			Elapsed:       time.Duration(tick+1) * opts.TickLen,
			DeliveredBits: delivered,
			LostBits:      lost,
			FilteredBits:  filtered,
		})
		if opts.Paced {
			<-ticker.C
		}
	}
	return samples
}

// Throughput summarizes samples into an aggregate bits-per-second figure.
func Throughput(samples []TickSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var bits float64
	for _, s := range samples {
		bits += s.DeliveredBits
	}
	return bits / samples[len(samples)-1].Elapsed.Seconds()
}

// MeanTickBits averages delivered bits per tick over the samples; use it
// on sub-slices where Elapsed no longer encodes the tick length.
func MeanTickBits(samples []TickSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var bits float64
	for _, s := range samples {
		bits += s.DeliveredBits
	}
	return bits / float64(len(samples))
}

// SteadyThroughput summarizes only the tail of a run (skipping warm-up
// ticks). samples[0].Elapsed equals the tick length, so the covered
// duration is simply (len-skip) ticks.
func SteadyThroughput(samples []TickSample, skip int) float64 {
	if skip < 0 || skip >= len(samples) {
		return 0
	}
	var bits float64
	for _, s := range samples[skip:] {
		bits += s.DeliveredBits
	}
	dur := time.Duration(len(samples)-skip) * samples[0].Elapsed
	if dur <= 0 {
		return 0
	}
	return bits / dur.Seconds()
}

// FailoverReport explains a fail-over run, for a failed recovery check:
// each tick's delivered and lost Mbps from the failure tick on, then every
// surviving gateway's ring membership, packet-engine members and 911
// regeneration count, and how many VIPs still resolve to a failed or
// unknown gateway. A survivor stuck without the token shows in its
// membership and regenerations; a starved run shows a full membership
// with delivery below the bar.
func (c *Cluster) FailoverReport(samples []TickSample, failAt int, tickLen time.Duration) string {
	var b strings.Builder
	mbps := func(bits float64) string { return fmt.Sprintf("%.0f", bits/tickLen.Seconds()/1e6) }
	if failAt > len(samples) {
		failAt = len(samples)
	}
	fmt.Fprintf(&b, "delivered Mbps per tick from tick %d:", failAt)
	for _, s := range samples[failAt:] {
		b.WriteString(" " + mbps(s.DeliveredBits))
	}
	fmt.Fprintf(&b, "\nlost Mbps per tick from tick %d:", failAt)
	for _, s := range samples[failAt:] {
		b.WriteString(" " + mbps(s.LostBits))
	}
	ids := make([]core.NodeID, 0, len(c.Gateways))
	for id := range c.Gateways {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if c.isDown(id) {
			continue
		}
		g := c.Gateways[id]
		fmt.Fprintf(&b, "\nsurvivor %v: members %v, engine %v, token_regens %d",
			id, g.Node.Members(), g.Engine.Members(), g.Node.Stats().Counter(stats.MetricTokenRegens).Load())
	}
	fmt.Fprintf(&b, "\nVIPs unbound or on a failed gateway: %d of %d", c.staleVIPs(), len(c.Pool))
	return b.String()
}
