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
	"repro/internal/dds"
)

// --- E5: sharded multi-ring scaling ---
//
// The paper's session service totally orders all traffic through one
// circulating token, so a group's ordered-multicast throughput is capped
// at one token circulation regardless of node count. E5 measures how the
// sharded runtime breaks that ceiling: S independent rings over the same
// nodes and one shared transport, with the DDS keyspace consistent-hashed
// across them. Aggregate throughput should scale ~linearly in S while
// per-ring (and hence per-key) ordering is preserved.
//
// The rings run with a bounded per-hop batch (ring.Config.MaxBatch): one
// ring carries at most N*MaxBatch messages per token round. A holder that
// has spent that budget passes at once, so a loaded ring turns the token
// as fast as the host can process it: the per-ring ceiling is CPU-bound,
// and on a host with fewer cores than rings adding rings adds work rather
// than capacity. The shard ratios E5 prints describe the host it ran on.

// E5Config sizes the shard-scaling experiment.
type E5Config struct {
	// N is the cluster size (nodes, each hosting every ring).
	N int
	// Shards lists the ring counts to measure.
	Shards []int
	// TokenHoldMS is the per-hop token hold in milliseconds: the rest a
	// holder below its attach budget may take.
	TokenHoldMS int
	// MaxBatch bounds multicast attachments per token hop; a holder that
	// spends it passes at once.
	MaxBatch int
	// AdaptiveBatch lets each node raise its attach budget above MaxBatch
	// from observed token RTT and datagram headroom (ring.Config
	// .AdaptiveBatch), turning the fixed per-hop ceiling into a
	// transport-bound one.
	AdaptiveBatch bool
	// Window is the closed-loop in-flight multicast count per node per
	// ring; it must exceed MaxBatch to keep every hop's batch full.
	Window int
	// Warmup and Duration bound each measurement phase.
	Warmup   time.Duration
	Duration time.Duration
	// DDSWorkers is the number of concurrent Set loops per node driving
	// the sharded data service phase.
	DDSWorkers int
	// PayloadBytes sizes each multicast payload.
	PayloadBytes int
}

// DefaultE5 is the shard-scaling run with a small fixed attach budget, so
// loaded holders pass as soon as it is spent.
func DefaultE5() E5Config {
	return E5Config{
		N:            4,
		Shards:       []int{1, 2, 4},
		TokenHoldMS:  4,
		MaxBatch:     8,
		Window:       32,
		Warmup:       300 * time.Millisecond,
		Duration:     1200 * time.Millisecond,
		DDSWorkers:   48,
		PayloadBytes: 64,
	}
}

// AdaptiveE5 is DefaultE5 with the fixed per-hop attach cap replaced by
// the adaptive budget controller. The closed-loop window grows with it:
// with the cap gone, in-flight credit is what keeps each hop's batch full.
func AdaptiveE5() E5Config {
	cfg := DefaultE5()
	cfg.AdaptiveBatch = true
	cfg.Window = 256
	return cfg
}

// E5Row is one shard count's measurement.
type E5Row struct {
	Shards int `json:"shards"`
	// MulticastPS is the aggregate ordered-multicast delivery rate
	// observed at one node across all rings (messages/second).
	MulticastPS float64 `json:"multicast_per_sec"`
	// MulticastX is the speedup over the 1-shard row.
	MulticastX float64 `json:"multicast_speedup"`
	// DDSOpsPS is the aggregate sharded-dds Set completion rate across
	// all nodes (ops/second).
	DDSOpsPS float64 `json:"dds_ops_per_sec"`
	// DDSX is the speedup over the 1-shard row.
	DDSX float64 `json:"dds_speedup"`
}

// e5Grid builds the measurement grid: fast token, slow failure detection
// (the grid is loaded, not faulty), bounded batches.
func e5Grid(cfg E5Config, shards int) (*core.TestGrid, error) {
	rc := core.FastRing()
	rc.TokenHold = time.Duration(cfg.TokenHoldMS) * time.Millisecond
	rc.HungryTimeout = 400 * time.Millisecond
	rc.StarvingRetry = 300 * time.Millisecond
	rc.BodyodorInterval = 50 * time.Millisecond
	rc.MaxBatch = cfg.MaxBatch
	rc.AdaptiveBatch = cfg.AdaptiveBatch
	return core.NewTestGrid(core.GridOptions{
		N: cfg.N, Rings: shards, Ring: rc, DeferStart: true,
	})
}

// e5Multicast measures aggregate closed-loop multicast throughput at the
// given shard count: every node keeps Window messages in flight on every
// ring; deliveries are counted at node 1 across all rings.
func e5Multicast(cfg E5Config, shards int) (float64, error) {
	g, err := e5Grid(cfg, shards)
	if err != nil {
		return 0, err
	}
	defer g.Close()

	var delivered atomic.Int64
	stop := make(chan struct{})
	type lane struct {
		node    *core.Node
		credits chan struct{}
	}
	var lanes []lane
	for _, id := range g.IDs {
		for ring := 0; ring < shards; ring++ {
			n := g.Runtimes[id].Node(core.RingID(ring))
			l := lane{node: n, credits: make(chan struct{}, 4*cfg.Window)}
			id := id
			n.SetHandlers(core.Handlers{OnDeliver: func(d core.Delivery) {
				if id == 1 {
					delivered.Add(1)
				}
				if d.Origin == id {
					select {
					case l.credits <- struct{}{}:
					default:
					}
				}
			}})
			lanes = append(lanes, l)
		}
	}
	g.StartAll()
	if err := g.WaitAssembled(30 * time.Second); err != nil {
		return 0, err
	}
	payload := make([]byte, cfg.PayloadBytes)
	for _, l := range lanes {
		l := l
		go func() {
			for i := 0; i < cfg.Window; i++ {
				if l.node.Multicast(payload) != nil {
					return
				}
			}
			for {
				select {
				case <-stop:
					return
				case <-l.credits:
					if l.node.Multicast(payload) != nil {
						return
					}
				}
			}
		}()
	}
	time.Sleep(cfg.Warmup)
	before := delivered.Load()
	time.Sleep(cfg.Duration)
	rate := float64(delivered.Load()-before) / cfg.Duration.Seconds()
	close(stop)
	return rate, nil
}

// e5DDS measures aggregate sharded data-service write throughput: every
// node runs DDSWorkers closed-loop Set workers against a Sharded router
// whose keyspace is consistent-hashed across the rings.
func e5DDS(cfg E5Config, shards int) (float64, error) {
	g, err := e5Grid(cfg, shards)
	if err != nil {
		return 0, err
	}
	defer g.Close()
	svcs := make(map[core.NodeID]*dds.Sharded)
	for id, rt := range g.Runtimes {
		s, err := dds.AttachSharded(rt)
		if err != nil {
			return 0, err
		}
		svcs[id] = s
	}
	g.StartAll()
	if err := g.WaitAssembled(30 * time.Second); err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ops atomic.Int64
	payload := make([]byte, cfg.PayloadBytes)
	for _, id := range g.IDs {
		svc := svcs[id]
		for w := 0; w < cfg.DDSWorkers; w++ {
			seed := int(id)*1000 + w
			go func() {
				for i := 0; ; i++ {
					key := fmt.Sprintf("e5-key-%d", (seed*7919+i*131)%1024)
					if svc.Set(ctx, key, payload) != nil {
						return
					}
					ops.Add(1)
				}
			}()
		}
	}
	time.Sleep(cfg.Warmup)
	before := ops.Load()
	time.Sleep(cfg.Duration)
	rate := float64(ops.Load()-before) / cfg.Duration.Seconds()
	cancel()
	return rate, nil
}

// E5ShardScaling measures aggregate multicast and dds throughput at each
// configured shard count.
func E5ShardScaling(cfg E5Config) ([]E5Row, error) {
	var rows []E5Row
	for _, s := range cfg.Shards {
		mcast, err := e5Multicast(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("E5 multicast S=%d: %w", s, err)
		}
		ddsRate, err := e5DDS(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("E5 dds S=%d: %w", s, err)
		}
		rows = append(rows, E5Row{Shards: s, MulticastPS: mcast, DDSOpsPS: ddsRate})
	}
	if len(rows) > 0 && rows[0].MulticastPS > 0 {
		for i := range rows {
			rows[i].MulticastX = rows[i].MulticastPS / rows[0].MulticastPS
		}
	}
	if len(rows) > 0 && rows[0].DDSOpsPS > 0 {
		for i := range rows {
			rows[i].DDSX = rows[i].DDSOpsPS / rows[0].DDSOpsPS
		}
	}
	return rows, nil
}

// E5Table renders E5 rows.
func E5Table(rows []E5Row, cfg E5Config) *Table {
	title := "E5: sharded multi-ring scaling (aggregate ordered throughput)"
	ceiling := fmt.Sprintf("%d nodes; at most %d msgs/hop (MaxBatch), a spent budget passes at once, so each ring runs CPU-bound", cfg.N, cfg.MaxBatch)
	if cfg.AdaptiveBatch {
		title = "E5: sharded multi-ring scaling (adaptive attach budget)"
		ceiling = fmt.Sprintf("%d nodes; attach budget adapts to token RTT and datagram headroom (floor MaxBatch=%d), so each ring runs transport-bound", cfg.N, cfg.MaxBatch)
	}
	t := &Table{
		Title:   title,
		Columns: []string{"shards", "multicast msg/s", "speedup", "dds set/s", "speedup"},
		Notes: []string{
			ceiling,
			"one transport per node is shared by all rings; the DDS keyspace is consistent-hashed across rings",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Shards),
			fmt.Sprintf("%.0f", r.MulticastPS),
			fmt.Sprintf("%.2fx", r.MulticastX),
			fmt.Sprintf("%.0f", r.DDSOpsPS),
			fmt.Sprintf("%.2fx", r.DDSX),
		})
	}
	return t
}

// E5Baseline is the persisted benchmark baseline (BENCH_E5.json). Rows
// holds the fixed-MaxBatch measurement; AdaptiveRows, when present, holds
// the same grid re-run with the adaptive attach-budget controller on.
type E5Baseline struct {
	Experiment     string    `json:"experiment"`
	Timestamp      string    `json:"timestamp"`
	GoMaxProcs     int       `json:"gomaxprocs"`
	Config         E5Config  `json:"config"`
	Rows           []E5Row   `json:"rows"`
	AdaptiveConfig *E5Config `json:"adaptive_config,omitempty"`
	AdaptiveRows   []E5Row   `json:"adaptive_rows,omitempty"`
}

// WriteE5JSON persists the rows as a JSON baseline at path. adaptiveRows
// may be nil when only the fixed-batch grid was run.
func WriteE5JSON(path string, cfg E5Config, rows []E5Row, adaptiveCfg *E5Config, adaptiveRows []E5Row) error {
	b := E5Baseline{
		Experiment:     "e5-shard-scaling",
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Config:         cfg,
		Rows:           rows,
		AdaptiveConfig: adaptiveCfg,
		AdaptiveRows:   adaptiveRows,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
