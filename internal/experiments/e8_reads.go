package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dds"
	"repro/internal/rcerr"
)

// --- E8: consistency-moded local reads vs node count ---
//
// Every node of a ring holds a full replica of that ring's state, so a
// read need not ride the token at all — only writes (and read fences)
// do. E8 measures the consequence: at a FIXED shard count, aggregate
// read capacity in the local modes (eventual, session, bounded
// staleness, leased-linearizable) grows with the node count, while the
// ordered-write rate — and the per-read-fence linearizable mode, which
// turns every read into an ordered no-op — stays pinned to the token.
//
// Local-mode readers are paced open-loop workers (a fixed per-node
// demand, the regime of a network element querying its local replica on
// the data path) so the measured aggregate is served demand: it scales
// with N exactly while the replicas keep serving locally. The write and
// fence phases are closed-loop, the same regime as E5, so their
// token-bound ceilings are directly comparable to the E5 baseline.

// E8Config sizes the read-scaling experiment.
type E8Config struct {
	// Nodes lists the cluster sizes to measure; speedups are relative to
	// the first entry.
	Nodes []int
	// Shards is the FIXED ring count: reads must scale with nodes even
	// when the ordered capacity does not change.
	Shards int
	// TokenHoldMS and MaxBatch size each ring's token as in E5's write
	// regime, for comparability.
	TokenHoldMS int
	MaxBatch    int
	// WriteWorkers is the closed-loop Set workers per node (the E5
	// regime) for the write-baseline phase.
	WriteWorkers int
	// ReadWorkers and ReadPace fix the per-node open-loop read demand:
	// each worker issues one read every ReadPace.
	ReadWorkers int
	ReadPace    time.Duration
	// MaxStale is the bounded-staleness phase's bound.
	MaxStale time.Duration
	// Lease is the leased-linearizable phase's lease window.
	Lease time.Duration
	// Keys is the preloaded keyspace size; PayloadBytes each value's size.
	Keys         int
	PayloadBytes int
	// Warmup and Duration bound each measurement phase.
	Warmup   time.Duration
	Duration time.Duration
}

// DefaultE8 measures 1, 2 and 4 nodes at 4 shards with E5's write knobs,
// so the 4-node write row is directly comparable to BENCH_E5's 4-shard
// row.
func DefaultE8() E8Config {
	return E8Config{
		Nodes:        []int{1, 2, 4},
		Shards:       4,
		TokenHoldMS:  4,
		MaxBatch:     8,
		WriteWorkers: 48,
		ReadWorkers:  16,
		ReadPace:     time.Millisecond,
		MaxStale:     50 * time.Millisecond,
		Lease:        100 * time.Millisecond,
		Keys:         512,
		PayloadBytes: 64,
		Warmup:       300 * time.Millisecond,
		Duration:     1200 * time.Millisecond,
	}
}

// QuickE8 is the CI size: two cluster sizes, short phases.
func QuickE8() E8Config {
	cfg := DefaultE8()
	cfg.Nodes = []int{1, 2}
	cfg.WriteWorkers = 24
	cfg.ReadWorkers = 8
	cfg.Keys = 128
	cfg.Warmup = 150 * time.Millisecond
	cfg.Duration = 400 * time.Millisecond
	return cfg
}

// E8Row is one cluster size's measurement. The *PS columns are aggregate
// completed operations per second across all nodes; the *X columns are
// speedups over the first (smallest) row.
type E8Row struct {
	Nodes      int     `json:"nodes"`
	WriteOpsPS float64 `json:"write_ops_per_sec"`
	WriteX     float64 `json:"write_speedup"`
	EventualPS float64 `json:"eventual_reads_per_sec"`
	EventualX  float64 `json:"eventual_speedup"`
	SessionPS  float64 `json:"session_reads_per_sec"`
	SessionX   float64 `json:"session_speedup"`
	BoundedPS  float64 `json:"bounded_reads_per_sec"`
	BoundedX   float64 `json:"bounded_speedup"`
	LeasePS    float64 `json:"lease_reads_per_sec"`
	LeaseX     float64 `json:"lease_speedup"`
	FencePS    float64 `json:"fenced_reads_per_sec"`
	FenceX     float64 `json:"fenced_speedup"`
}

// e8Cluster is one measurement grid: N nodes, cfg.Shards rings, one
// Sharded router per node, keyspace preloaded.
type e8Cluster struct {
	g    *core.TestGrid
	svcs map[core.NodeID]*dds.Sharded
	keys []string
}

func e8Start(cfg E8Config, nodes int) (*e8Cluster, error) {
	rc := core.FastRing()
	rc.TokenHold = time.Duration(cfg.TokenHoldMS) * time.Millisecond
	rc.HungryTimeout = 400 * time.Millisecond
	rc.StarvingRetry = 300 * time.Millisecond
	rc.BodyodorInterval = 50 * time.Millisecond
	rc.MaxBatch = cfg.MaxBatch
	g, err := core.NewTestGrid(core.GridOptions{
		N: nodes, Rings: cfg.Shards, Ring: rc, DeferStart: true,
	})
	if err != nil {
		return nil, err
	}
	c := &e8Cluster{g: g, svcs: make(map[core.NodeID]*dds.Sharded)}
	for id, rt := range g.Runtimes {
		s, err := dds.AttachSharded(rt)
		if err != nil {
			g.Close()
			return nil, err
		}
		c.svcs[id] = s
	}
	g.StartAll()
	if err := g.WaitAssembled(30 * time.Second); err != nil {
		g.Close()
		return nil, err
	}
	// Preload the keyspace from node 1, a few writers deep so the token
	// batches them.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c.keys = make([]string, cfg.Keys)
	payload := make([]byte, cfg.PayloadBytes)
	errCh := make(chan error, 16)
	sem := make(chan struct{}, 16)
	for i := range c.keys {
		c.keys[i] = fmt.Sprintf("e8-key-%d", i)
		sem <- struct{}{}
		go func(key string) {
			defer func() { <-sem }()
			if err := c.svcs[1].Set(ctx, key, payload); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}(c.keys[i])
	}
	for i := 0; i < cap(sem); i++ {
		sem <- struct{}{}
	}
	select {
	case err := <-errCh:
		g.Close()
		return nil, fmt.Errorf("preload: %w", err)
	default:
	}
	return c, nil
}

// e8Measure runs fn as a worker loop (W per node), counting completions
// over the measurement window.
func (c *e8Cluster) e8Measure(cfg E8Config, workers int, fn func(ctx context.Context, id core.NodeID, svc *dds.Sharded, seed int) error) (float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ops atomic.Int64
	errCh := make(chan error, 1)
	for _, id := range c.g.IDs {
		svc := c.svcs[id]
		for w := 0; w < workers; w++ {
			id, seed := id, int(id)*1000+w
			go func() {
				for i := 0; ; i++ {
					if ctx.Err() != nil {
						return
					}
					if err := fn(ctx, id, svc, seed*7919+i*131); err != nil {
						if errors.Is(err, context.Canceled) || errors.Is(err, rcerr.ErrRetryable) {
							continue
						}
						select {
						case errCh <- err:
						default:
						}
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
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return rate, nil
}

// E8ReadScaling measures every phase at every configured cluster size.
func E8ReadScaling(cfg E8Config) ([]E8Row, error) {
	var rows []E8Row
	for _, n := range cfg.Nodes {
		c, err := e8Start(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("E8 N=%d: %w", n, err)
		}
		row := E8Row{Nodes: n}
		payload := make([]byte, cfg.PayloadBytes)
		key := func(seed int) string { return c.keys[((seed%len(c.keys))+len(c.keys))%len(c.keys)] }

		// Write baseline: closed-loop ordered Sets, the E5 regime. This is
		// the token-bound ceiling reads must NOT be paying.
		row.WriteOpsPS, err = c.e8Measure(cfg, cfg.WriteWorkers,
			func(ctx context.Context, _ core.NodeID, svc *dds.Sharded, seed int) error {
				return svc.Set(ctx, key(seed), payload)
			})
		if err != nil {
			c.g.Close()
			return nil, fmt.Errorf("E8 N=%d writes: %w", n, err)
		}

		// pacedRead builds a paced open-loop read worker for one mode.
		pacedRead := func(opts func(id core.NodeID, svc *dds.Sharded) []dds.ReadOption) func(context.Context, core.NodeID, *dds.Sharded, int) error {
			perNode := make(map[core.NodeID][]dds.ReadOption, len(c.g.IDs))
			for _, id := range c.g.IDs {
				perNode[id] = opts(id, c.svcs[id])
			}
			return func(ctx context.Context, id core.NodeID, svc *dds.Sharded, seed int) error {
				if _, ok, err := svc.Get(ctx, key(seed), perNode[id]...); err != nil {
					return err
				} else if !ok {
					return fmt.Errorf("key %q missing", key(seed))
				}
				time.Sleep(cfg.ReadPace)
				return nil
			}
		}

		row.EventualPS, err = c.e8Measure(cfg, cfg.ReadWorkers,
			pacedRead(func(core.NodeID, *dds.Sharded) []dds.ReadOption { return nil }))
		if err != nil {
			c.g.Close()
			return nil, fmt.Errorf("E8 N=%d eventual: %w", n, err)
		}

		// Session phase: one session per node; each writes a spread of
		// keys first so its reads carry marks on every shard.
		sessErr := error(nil)
		row.SessionPS, err = c.e8Measure(cfg, cfg.ReadWorkers,
			pacedRead(func(id core.NodeID, svc *dds.Sharded) []dds.ReadOption {
				sess := svc.NewSession()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				for i := 0; i < 2*cfg.Shards; i++ {
					if err := sess.Set(ctx, key(int(id)*31+i*97), payload); err != nil && sessErr == nil {
						sessErr = err
					}
				}
				return []dds.ReadOption{dds.WithSession(sess)}
			}))
		if err == nil {
			err = sessErr
		}
		if err != nil {
			c.g.Close()
			return nil, fmt.Errorf("E8 N=%d session: %w", n, err)
		}

		row.BoundedPS, err = c.e8Measure(cfg, cfg.ReadWorkers,
			pacedRead(func(core.NodeID, *dds.Sharded) []dds.ReadOption {
				return []dds.ReadOption{dds.WithMaxStaleness(cfg.MaxStale)}
			}))
		if err != nil {
			c.g.Close()
			return nil, fmt.Errorf("E8 N=%d bounded: %w", n, err)
		}

		row.LeasePS, err = c.e8Measure(cfg, cfg.ReadWorkers,
			pacedRead(func(core.NodeID, *dds.Sharded) []dds.ReadOption {
				return []dds.ReadOption{dds.WithReadLease(cfg.Lease)}
			}))
		if err != nil {
			c.g.Close()
			return nil, fmt.Errorf("E8 N=%d lease: %w", n, err)
		}

		// Per-read fences are closed-loop: this mode's ceiling is the
		// token, and pacing would hide it.
		row.FencePS, err = c.e8Measure(cfg, cfg.ReadWorkers,
			func(ctx context.Context, _ core.NodeID, svc *dds.Sharded, seed int) error {
				_, _, err := svc.Get(ctx, key(seed), dds.WithLinearizable())
				return err
			})
		if err != nil {
			c.g.Close()
			return nil, fmt.Errorf("E8 N=%d fenced: %w", n, err)
		}

		c.g.Close()
		rows = append(rows, row)
	}
	if len(rows) > 0 {
		base := rows[0]
		div := func(a, b float64) float64 {
			if b <= 0 {
				return 0
			}
			return a / b
		}
		for i := range rows {
			rows[i].WriteX = div(rows[i].WriteOpsPS, base.WriteOpsPS)
			rows[i].EventualX = div(rows[i].EventualPS, base.EventualPS)
			rows[i].SessionX = div(rows[i].SessionPS, base.SessionPS)
			rows[i].BoundedX = div(rows[i].BoundedPS, base.BoundedPS)
			rows[i].LeaseX = div(rows[i].LeasePS, base.LeasePS)
			rows[i].FenceX = div(rows[i].FencePS, base.FencePS)
		}
	}
	return rows, nil
}

// E8Table renders E8 rows.
func E8Table(rows []E8Row, cfg E8Config) *Table {
	t := &Table{
		Title: "E8: consistency-moded local reads vs node count (fixed shards)",
		Columns: []string{
			"nodes", "writes/s", "eventual/s", "x", "session/s", "x",
			"bounded/s", "x", "lease/s", "x", "fenced/s", "x",
		},
		Notes: []string{
			fmt.Sprintf("%d shards fixed; writes and fenced reads ride the token (TokenHold=%dms MaxBatch=%d), every other mode serves the local replica", cfg.Shards, cfg.TokenHoldMS, cfg.MaxBatch),
			fmt.Sprintf("local modes run %d open-loop readers/node paced at one read per %v (fixed per-node demand); writes and fenced reads are closed-loop", cfg.ReadWorkers, cfg.ReadPace),
			fmt.Sprintf("bounded staleness %v; read lease %v; speedups relative to the %d-node row", cfg.MaxStale, cfg.Lease, cfg.Nodes[0]),
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Nodes),
			fmt.Sprintf("%.0f", r.WriteOpsPS),
			fmt.Sprintf("%.0f", r.EventualPS), fmt.Sprintf("%.2fx", r.EventualX),
			fmt.Sprintf("%.0f", r.SessionPS), fmt.Sprintf("%.2fx", r.SessionX),
			fmt.Sprintf("%.0f", r.BoundedPS), fmt.Sprintf("%.2fx", r.BoundedX),
			fmt.Sprintf("%.0f", r.LeasePS), fmt.Sprintf("%.2fx", r.LeaseX),
			fmt.Sprintf("%.0f", r.FencePS), fmt.Sprintf("%.2fx", r.FenceX),
		})
	}
	return t
}

// E8Baseline is the persisted benchmark baseline (BENCH_E8.json).
type E8Baseline struct {
	Experiment string   `json:"experiment"`
	Timestamp  string   `json:"timestamp"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Config     E8Config `json:"config"`
	Rows       []E8Row  `json:"rows"`
	// E5WriteRef4Shards, when nonzero, is the E5 baseline's 4-shard
	// closed-loop write rate, recorded so the write-regression check
	// (E8's largest-N write row must stay within 10%) is self-contained.
	E5WriteRef4Shards float64 `json:"e5_write_ref_4_shards,omitempty"`
}

// WriteE8JSON persists the rows as a JSON baseline at path. e5Ref may be
// zero when no E5 baseline was available for cross-reference.
func WriteE8JSON(path string, cfg E8Config, rows []E8Row, e5Ref float64) error {
	b := E8Baseline{
		Experiment:        "e8-read-scaling",
		Timestamp:         time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		Config:            cfg,
		Rows:              rows,
		E5WriteRef4Shards: e5Ref,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// E5WriteRef extracts the 4-shard closed-loop write rate from an E5
// baseline file, for BENCH_E8's cross-reference; zero if unavailable.
func E5WriteRef(e5Path string) float64 {
	data, err := os.ReadFile(e5Path)
	if err != nil {
		return 0
	}
	var b E5Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return 0
	}
	for _, r := range b.Rows {
		if r.Shards == 4 {
			return r.DDSOpsPS
		}
	}
	return 0
}
