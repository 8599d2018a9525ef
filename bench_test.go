package raincore_test

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (§4), plus the ablations from DESIGN.md and a few
// micro-benchmarks of the core primitives. Each experiment benchmark runs
// the same code as `rainbench` and reports its headline numbers through
// b.ReportMetric, so `go test -bench=.` regenerates the whole evaluation.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rainwall"
	"repro/internal/stats"
)

// BenchmarkE1TaskSwitching regenerates the §4.1 task-switching comparison:
// Raincore must stay at token-rate scale while the broadcast baselines
// grow with M*N.
func BenchmarkE1TaskSwitching(b *testing.B) {
	cfg := experiments.E1Config{Ns: []int{4}, M: 100, L: 50, Duration: time.Second}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E1TaskSwitching(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SwitchesPS, r.Protocol+"_switches/s/node")
		}
	}
}

// BenchmarkE2NetworkOverhead regenerates the §4.1 packet/byte analysis.
func BenchmarkE2NetworkOverhead(b *testing.B) {
	cfg := experiments.E2Config{Ns: []int{4}, MsgBytes: 256}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E2NetworkOverhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Packets), r.Protocol+"_packets")
			b.ReportMetric(float64(r.Bytes), r.Protocol+"_bytes")
		}
	}
}

// BenchmarkE3RainwallScaling regenerates Figure 3: throughput at 1, 2 and
// 4 gateways.
func BenchmarkE3RainwallScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		n := n
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			cfg := experiments.DefaultE3()
			cfg.Sizes = []int{n}
			cfg.Ticks = 80
			for i := 0; i < b.N; i++ {
				rows, err := experiments.E3RainwallScaling(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].ThroughputMbps, "Mbit/s")
				b.ReportMetric(rows[0].RaincoreCPUPct, "raincore_cpu_%")
			}
		})
	}
}

// BenchmarkE4Failover regenerates the §3.2 fail-over measurement with
// paper-regime timers.
func BenchmarkE4Failover(b *testing.B) {
	cfg := experiments.DefaultE4()
	cfg.Sizes = []int{2}
	cfg.Ticks = 300
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E4Failover(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].GapSecs, "failover_s")
	}
}

// BenchmarkA1SafeVsAgreed regenerates the ordering-level latency ablation.
func BenchmarkA1SafeVsAgreed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.A1SafeVsAgreed(4, 30)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MeanMs, r.Ordering+"_mean_ms")
		}
	}
}

// BenchmarkA2SendStrategy regenerates the multi-address strategy ablation.
func BenchmarkA2SendStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.A2SendStrategy(50)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MeanMs, r.Strategy+"_mean_ms")
		}
	}
}

// BenchmarkA3TokenInterval regenerates the token-rate trade-off sweep.
func BenchmarkA3TokenInterval(b *testing.B) {
	holds := []time.Duration{5 * time.Millisecond, 50 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.A3TokenInterval(holds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.DetectMs, fmt.Sprintf("detect_ms@%v", r.TokenHold))
			b.ReportMetric(r.SwitchesPS, fmt.Sprintf("switches@%v", r.TokenHold))
		}
	}
}

// --- micro-benchmarks of the core primitives ---

// BenchmarkMulticastThroughput measures sustained agreed-ordered multicast
// delivery on a 4-node cluster.
func BenchmarkMulticastThroughput(b *testing.B) {
	var delivered atomic.Int64
	tc, err := core.NewTestCluster(core.ClusterOptions{
		N: 4,
		Handlers: func(id core.NodeID) core.Handlers {
			return core.Handlers{OnDeliver: func(core.Delivery) {
				if id == 1 {
					delivered.Add(1)
				}
			}}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tc.Close()
	if err := tc.WaitAssembled(15 * time.Second); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tc.Nodes[1].Multicast(payload); err != nil {
			b.Fatal(err)
		}
	}
	// Wait for everything to circulate before stopping the clock so the
	// reported ns/op reflects delivery, not just submission.
	for delivered.Load() < int64(b.N) {
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
}

// BenchmarkMulticastLatency measures one submit-to-self-delivery cycle.
func BenchmarkMulticastLatency(b *testing.B) {
	var mu sync.Mutex
	waiters := map[int64]chan struct{}{}
	var next atomic.Int64
	tc, err := core.NewTestCluster(core.ClusterOptions{
		N: 4,
		Handlers: func(id core.NodeID) core.Handlers {
			return core.Handlers{OnDeliver: func(d core.Delivery) {
				if id != 1 || d.Origin != 1 {
					return
				}
				mu.Lock()
				k := next.Add(1) - 1
				if ch, ok := waiters[k]; ok {
					close(ch)
					delete(waiters, k)
				}
				mu.Unlock()
			}}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tc.Close()
	if err := tc.WaitAssembled(15 * time.Second); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := make(chan struct{})
		mu.Lock()
		waiters[int64(i)] = ch
		mu.Unlock()
		if err := tc.Nodes[1].Multicast(payload); err != nil {
			b.Fatal(err)
		}
		<-ch
	}
}

// BenchmarkTokenRoundTrip reports the steady-state token circulation rate
// on an idle 8-node cluster.
func BenchmarkTokenRoundTrip(b *testing.B) {
	tc, err := core.NewTestCluster(core.ClusterOptions{N: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer tc.Close()
	if err := tc.WaitAssembled(15 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := tc.Nodes[1].Stats().Counter(stats.MetricTokenPasses).Load()
		time.Sleep(100 * time.Millisecond)
		after := tc.Nodes[1].Stats().Counter(stats.MetricTokenPasses).Load()
		b.ReportMetric(float64(after-before)*10, "passes/s")
	}
}

// BenchmarkRainwallDataPath measures the per-tick cost of pushing 400
// flows through a 4-gateway cluster (the simulation's inner loop).
func BenchmarkRainwallDataPath(b *testing.B) {
	c, err := rainwall.NewCluster(rainwall.ClusterConfig{N: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitReady(20 * time.Second); err != nil {
		b.Fatal(err)
	}
	w := rainwall.NewWorkload(rainwall.WorkloadConfig{
		Seed: 77, Flows: 400, TotalBps: 600e6, VIPs: len(c.Pool), WebTraffic: true,
	})
	b.ReportAllocs()
	b.ResetTimer()
	c.Run(w, rainwall.RunOptions{Ticks: b.N, TickLen: 10 * time.Millisecond})
}
