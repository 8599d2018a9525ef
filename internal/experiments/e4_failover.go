package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rainwall"
)

// E4Row is one fail-over measurement.
type E4Row struct {
	Nodes   int
	GapSecs float64
	Paper   string
	// Report is the run's rainwall.FailoverReport, for a failed check.
	Report string
}

// E4Config sizes the fail-over experiment.
type E4Config struct {
	Sizes   []int
	Ticks   int
	TickLen time.Duration
	FailAt  int
}

// DefaultE4 uses the paper's deployment-regime timers (PaperRing) so the
// measured hiccup is comparable to the "under two seconds" claim.
func DefaultE4() E4Config {
	return E4Config{Sizes: []int{2, 4}, Ticks: 400, TickLen: 20 * time.Millisecond, FailAt: 50}
}

// E4Failover pulls a gateway's network cable mid-transfer and measures the
// client-visible interruption until throughput is back to 90% of the
// pre-failure rate (§3.2).
func E4Failover(cfg E4Config) ([]E4Row, error) {
	var rows []E4Row
	for _, n := range cfg.Sizes {
		gap, report, err := failoverGap(n, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E4Row{
			Nodes:   n,
			GapSecs: gap.Seconds(),
			Paper:   "under two seconds (\"about 2-seconds hick-up\")",
			Report:  report,
		})
	}
	return rows, nil
}

func failoverGap(n int, cfg E4Config) (time.Duration, string, error) {
	c, err := rainwall.NewCluster(rainwall.ClusterConfig{N: n, Ring: core.PaperRing()})
	if err != nil {
		return 0, "", err
	}
	defer c.Close()
	if err := c.WaitReady(30 * time.Second); err != nil {
		return 0, "", err
	}
	// Offer load the survivors can absorb, so recovery is visible as a
	// return to the pre-failure rate.
	offered := rainwall.DefaultCapacityBps * float64(n-1) * 0.9
	w := rainwall.NewWorkload(rainwall.WorkloadConfig{
		Seed: int64(2000 + n), Flows: 50 * n, TotalBps: offered, VIPs: len(c.Pool), WebTraffic: true,
	})
	victim := core.NodeID(n) // never the lowest (leader) for determinism
	samples := c.Run(w, rainwall.RunOptions{
		Ticks:   cfg.Ticks,
		TickLen: cfg.TickLen,
		Paced:   true,
		OnTick: func(i int) {
			if i == cfg.FailAt {
				c.FailNode(victim)
			}
		},
	})
	tickBits := rainwall.MeanTickBits(samples[10:cfg.FailAt])
	recovered := -1
	const hold = 10
	for i := cfg.FailAt; i < len(samples)-hold; i++ {
		ok := true
		for j := i; j < i+hold; j++ {
			if samples[j].DeliveredBits < 0.9*tickBits {
				ok = false
				break
			}
		}
		if ok {
			recovered = i
			break
		}
	}
	report := c.FailoverReport(samples, cfg.FailAt, cfg.TickLen)
	if recovered < 0 {
		return 0, "", fmt.Errorf("E4: %d-node cluster never recovered (pre=%.1f Mbps)\n%s",
			n, tickBits/cfg.TickLen.Seconds()/1e6, report)
	}
	return time.Duration(recovered-cfg.FailAt) * cfg.TickLen, report, nil
}

// E4Table renders the fail-over results.
func E4Table(rows []E4Row, cfg E4Config) *Table {
	t := &Table{
		Title:   "E4 (§3.2): client-visible fail-over time after a cable pull",
		Columns: []string{"nodes", "traffic gap (s)", "paper"},
		Notes: []string{
			"paper-regime timers: token 100ms, hungry timeout 500ms, 911 retry 400ms",
			"gap = failure instant until aggregate throughput reaches the post-failover steady state (95%, held 10 ticks)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Nodes), fmt.Sprintf("%.2f", r.GapSecs), r.Paper,
		})
	}
	return t
}
