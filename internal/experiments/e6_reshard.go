package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// --- E6: elastic resharding ---
//
// PR 1's sharded runtime scales ordered throughput with the ring count,
// but the count was frozen at construction. E6 measures what elastic
// resharding buys and what it costs: a cluster starts at FromShards
// rings, serves a closed-loop write workload through the raincore.Cluster
// facade, grows one ring at a time to ToShards under load, and keeps
// serving. The facade's retry layer absorbs the handoff windows — a
// writer never sees a resharding rejection — so the per-step cost shows
// up as the
// handoff pause and the count of rejections the retry layer rode through,
// both read from the runtime's metric registry.

// E6Config sizes the elastic-resharding experiment.
type E6Config struct {
	// N is the cluster size (nodes, each hosting every ring).
	N int
	// FromShards and ToShards bound the grow sequence (one grid-wide
	// Grow per step).
	FromShards, ToShards int
	// TokenHoldMS and MaxBatch size each ring's token as in E5: at most
	// MaxBatch frames per hop, and a holder that spends that budget passes
	// at once, so loaded rings run CPU-bound and the post-grow rate
	// depends on the host's cores.
	TokenHoldMS int
	MaxBatch    int
	// DDSWorkers is the number of concurrent Set loops per node.
	DDSWorkers int
	// Keys is the keyspace size the workers cycle over.
	Keys int
	// PayloadBytes sizes each value.
	PayloadBytes int
	// Warmup and Duration bound each throughput measurement phase.
	Warmup   time.Duration
	Duration time.Duration
}

// DefaultE6 mirrors the E5 regime (budget-bounded hops) growing 2 -> 4.
func DefaultE6() E6Config {
	return E6Config{
		N:            4,
		FromShards:   2,
		ToShards:     4,
		TokenHoldMS:  4,
		MaxBatch:     8,
		DDSWorkers:   48,
		Keys:         1024,
		PayloadBytes: 64,
		Warmup:       300 * time.Millisecond,
		Duration:     1200 * time.Millisecond,
	}
}

// E6Row is one shard count's steady-state measurement.
type E6Row struct {
	Shards int `json:"shards"`
	// DDSOpsPS is the aggregate Cluster.Set completion rate across all
	// nodes (ops/second).
	DDSOpsPS float64 `json:"dds_ops_per_sec"`
	// SpeedupX is the gain over the FromShards row.
	SpeedupX float64 `json:"speedup"`
}

// E6Grow is one grow step's handoff cost.
type E6Grow struct {
	// ToShards is the ring count after this step.
	ToShards int `json:"to_shards"`
	// PauseMS is the coordinator-observed handoff window (first freeze
	// submitted to epoch flip) in milliseconds. Only writes into the
	// moving slices are rejected during it.
	PauseMS float64 `json:"handoff_pause_ms"`
	// KeysMoved counts keys installed into the new shard.
	KeysMoved int64 `json:"keys_moved"`
	// FrozenRejects counts the retryable rejections the facade's retry
	// layer absorbed during the step (the writes that observed a frozen
	// slice, retried, and succeeded — invisible to the workers).
	FrozenRejects int64 `json:"frozen_writes_rejected"`
}

// E6Result is the full experiment outcome.
type E6Result struct {
	Rows  []E6Row  `json:"rows"`
	Grows []E6Grow `json:"grows"`
}

// E6Resharding runs the grow-under-load experiment.
func E6Resharding(cfg E6Config) (E6Result, error) {
	var res E6Result
	if cfg.FromShards < 1 || cfg.ToShards < cfg.FromShards {
		return res, fmt.Errorf("E6: bad shard range %d -> %d", cfg.FromShards, cfg.ToShards)
	}
	rc := core.FastRing()
	rc.TokenHold = time.Duration(cfg.TokenHoldMS) * time.Millisecond
	rc.HungryTimeout = 400 * time.Millisecond
	rc.StarvingRetry = 300 * time.Millisecond
	rc.BodyodorInterval = 50 * time.Millisecond
	rc.MaxBatch = cfg.MaxBatch
	g, err := newClusterGrid(cfg.N, cfg.FromShards, rc)
	if err != nil {
		return res, err
	}
	defer g.Close()
	if err := g.WaitAssembled(30 * time.Second); err != nil {
		return res, err
	}

	// Closed-loop writers through the facade: the retry layer rides
	// through handoff windows, so a worker only stops on a real failure.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ops atomic.Int64
	payload := make([]byte, cfg.PayloadBytes)
	for _, id := range g.IDs {
		cl := g.Clusters[id]
		for w := 0; w < cfg.DDSWorkers; w++ {
			seed := int(id)*1000 + w
			go func() {
				for i := 0; ; i++ {
					key := fmt.Sprintf("e6-key-%d", (seed*7919+i*131)%cfg.Keys)
					if cl.Set(ctx, key, payload) != nil {
						return
					}
					ops.Add(1)
				}
			}()
		}
	}
	measure := func() float64 {
		time.Sleep(cfg.Warmup)
		before := ops.Load()
		time.Sleep(cfg.Duration)
		return stats.Rate(ops.Load()-before, cfg.Duration)
	}

	res.Rows = append(res.Rows, E6Row{Shards: cfg.FromShards, DDSOpsPS: measure()})

	coord := g.Clusters[g.IDs[0]]
	for s := cfg.FromShards; s < cfg.ToShards; s++ {
		keysBefore := coord.Stats().Counter(stats.MetricReshardKeysMoved).Load()
		rejBefore := g.frozenRejects()
		start := time.Now()
		gctx, gcancel := context.WithTimeout(ctx, 60*time.Second)
		err := g.Grow(gctx)
		gcancel()
		if err != nil {
			return res, fmt.Errorf("E6: grow to %d shards: %w", s+1, err)
		}
		// The grow includes ring assembly; the handoff window itself is
		// the coordinator's reshard_pause histogram sample.
		pause := time.Since(start)
		if h := coord.Stats().Histogram(stats.HistReshardPause).Summary(); h.Count > 0 {
			pause = h.Max
			coord.Stats().Histogram(stats.HistReshardPause).Reset()
		}
		res.Grows = append(res.Grows, E6Grow{
			ToShards:      s + 1,
			PauseMS:       float64(pause.Microseconds()) / 1000,
			KeysMoved:     coord.Stats().Counter(stats.MetricReshardKeysMoved).Load() - keysBefore,
			FrozenRejects: g.frozenRejects() - rejBefore,
		})
	}

	res.Rows = append(res.Rows, E6Row{Shards: cfg.ToShards, DDSOpsPS: measure()})
	if base := res.Rows[0].DDSOpsPS; base > 0 {
		for i := range res.Rows {
			res.Rows[i].SpeedupX = res.Rows[i].DDSOpsPS / base
		}
	}
	return res, nil
}

// E6Table renders the result.
func E6Table(res E6Result, cfg E6Config) *Table {
	t := &Table{
		Title:   "E6: elastic resharding (grow under live facade write load)",
		Columns: []string{"phase", "shards", "dds set/s", "speedup", "pause ms", "keys moved", "rejects"},
		Notes: []string{
			fmt.Sprintf("%d nodes; grown one ring at a time %d -> %d under %d closed-loop Cluster.Set writers/node",
				cfg.N, cfg.FromShards, cfg.ToShards, cfg.DDSWorkers),
			"pause = coordinator freeze->flip window; rejects = retryable rejections the facade's retry layer absorbed (workers saw none)",
		},
	}
	t.Rows = append(t.Rows, []string{
		"before", fmt.Sprint(res.Rows[0].Shards),
		fmt.Sprintf("%.0f", res.Rows[0].DDSOpsPS), fmt.Sprintf("%.2fx", res.Rows[0].SpeedupX),
		"-", "-", "-",
	})
	for _, gr := range res.Grows {
		t.Rows = append(t.Rows, []string{
			"grow", fmt.Sprint(gr.ToShards), "-", "-",
			fmt.Sprintf("%.1f", gr.PauseMS), fmt.Sprint(gr.KeysMoved), fmt.Sprint(gr.FrozenRejects),
		})
	}
	last := res.Rows[len(res.Rows)-1]
	t.Rows = append(t.Rows, []string{
		"after", fmt.Sprint(last.Shards),
		fmt.Sprintf("%.0f", last.DDSOpsPS), fmt.Sprintf("%.2fx", last.SpeedupX),
		"-", "-", "-",
	})
	return t
}

// E6Baseline is the persisted benchmark baseline (BENCH_E6.json).
type E6Baseline struct {
	Experiment string   `json:"experiment"`
	Timestamp  string   `json:"timestamp"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Config     E6Config `json:"config"`
	Result     E6Result `json:"result"`
}

// WriteE6JSON persists the result as a JSON baseline at path.
func WriteE6JSON(path string, cfg E6Config, res E6Result) error {
	b := E6Baseline{
		Experiment: "e6-elastic-resharding",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Config:     cfg,
		Result:     res,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
