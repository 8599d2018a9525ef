package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	raincore "repro"
	"repro/internal/stats"
)

// --- E11: end-to-end write batching — coalesced frames and group commit ---
//
// The write-batching claim is that one ordered multicast can carry K
// writes end to end: concurrent Set/Delete callers coalesce into a
// multi-op frame per shard, the frame is applied as one ordered
// delivery (one COW bucket clone per touched bucket, not per op), and
// the WAL logs it as one group-commit record — one fsync per batch
// under fsync_mode=always instead of one per op. Ordered throughput
// then scales with the coalescing factor, not the token cadence, while
// a lone writer (Linger=0, the self-clocking default) still flushes
// immediately and keeps its pre-batching latency.
//
// E11 measures this through the public facade: closed-loop writer
// pools sweep the coalescer configuration (off, Linger=0, Linger=1ms)
// against the durability ladder (no storage, then fsync none/batch/
// always). The acceptance bars: batched throughput at least 3x the
// unbatched no-storage baseline at equal node count, and the
// fsync=always row within 15% of fsync=none once group commit
// amortizes the sync.

// E11Config sizes the write-batching experiment.
type E11Config struct {
	// Nodes and Shards size the cluster.
	Nodes  int
	Shards int
	// TokenHoldMS and MaxBatch size the token — MaxBatch is the ring's
	// frames-per-token-visit budget, which the coalescer stops paying per
	// op; a holder that spends it passes at once, so a loaded ring is
	// CPU-bound rather than hold-bound.
	TokenHoldMS int
	MaxBatch    int
	// Writers is the closed-loop writer count. Batching only pays when
	// writers contend, so this is sized well above E10's pool.
	Writers int
	// Keys bounds the keyspace and PayloadBytes sizes each value.
	Keys         int
	PayloadBytes int
	// Warmup and Duration bound each measurement window; each phase
	// runs Reps windows and reports the best one.
	Warmup   time.Duration
	Duration time.Duration
	Reps     int
	// MaxOps and MaxBytes cap one coalesced frame (0 = library
	// default).
	MaxOps   int
	MaxBytes int
}

// DefaultE11 runs 64 writers against a 3-node, 2-shard cluster with
// second-long measurement windows.
func DefaultE11() E11Config {
	return E11Config{
		Nodes:        3,
		Shards:       2,
		TokenHoldMS:  4,
		MaxBatch:     8,
		Writers:      64,
		Keys:         256,
		PayloadBytes: 64,
		Warmup:       250 * time.Millisecond,
		Duration:     1000 * time.Millisecond,
		Reps:         3,
		MaxOps:       128,
	}
}

// QuickE11 is the CI size: fewer writers, shorter windows.
func QuickE11() E11Config {
	cfg := DefaultE11()
	cfg.Writers = 32
	cfg.Warmup = 100 * time.Millisecond
	cfg.Duration = 350 * time.Millisecond
	cfg.Reps = 2
	return cfg
}

// E11Row is one batching x durability phase.
type E11Row struct {
	// Batching is "unbatched", "linger0" (self-clocking default) or
	// "linger1ms".
	Batching string `json:"batching"`
	// Fsync is "off" (no storage) or the WAL fsync mode.
	Fsync string `json:"fsync_mode"`
	// SetsPS is completed ordered writes per second in the best window.
	SetsPS float64 `json:"sets_per_sec"`
	// Flushes and BatchedOps count the coalescer's work across members;
	// OpsPerFlush is their ratio — the achieved coalescing factor.
	Flushes     int64   `json:"batch_flushes"`
	BatchedOps  int64   `json:"batched_ops"`
	OpsPerFlush float64 `json:"ops_per_flush"`
	// WALBatchAppends counts group-commit records; WALFsyncs counts the
	// syncs they cost. Under always, fsyncs track batches, not ops.
	WALBatchAppends int64 `json:"wal_batch_appends"`
	WALFsyncs       int64 `json:"wal_fsyncs"`
	// SpeedupX is SetsPS over the unbatched no-storage baseline.
	SpeedupX float64 `json:"speedup_x"`
}

// E11Result is the complete write-batching measurement.
type E11Result struct {
	Rows []E11Row `json:"rows"`
	// BaselineSetsPS is the unbatched no-storage row's throughput.
	BaselineSetsPS float64 `json:"baseline_sets_per_sec"`
	// BestSpeedupX is the largest batched speedup observed.
	BestSpeedupX float64 `json:"best_speedup_x"`
	// AlwaysOverheadPct is the fsync=always throughput cost vs
	// fsync=none — the group-commit bill — for the batching mode that
	// amortizes it best (named by AlwaysOverheadBatching): the deeper
	// the coalescing, the fewer syncs per op.
	AlwaysOverheadPct      float64 `json:"always_overhead_pct"`
	AlwaysOverheadBatching string  `json:"always_overhead_batching"`
	// The acceptance bars.
	SpeedupWithinTarget bool `json:"batched_at_least_3x"`
	AlwaysWithinTarget  bool `json:"always_overhead_within_15pct"`
}

// e11Batching maps a row label to the facade option.
func e11Batching(cfg E11Config, label string) raincore.WriteBatching {
	switch label {
	case "unbatched":
		return raincore.WriteBatching{Disabled: true}
	case "linger1ms":
		return raincore.WriteBatching{MaxOps: cfg.MaxOps, MaxBytes: cfg.MaxBytes, Linger: time.Millisecond}
	default: // linger0: the self-clocking default
		return raincore.WriteBatching{MaxOps: cfg.MaxOps, MaxBytes: cfg.MaxBytes}
	}
}

// e11GridConfig adapts the E11 sizing onto the shared e10 grid. The
// compaction threshold is left at its production size: E11 measures the
// coalescer, not snapshot churn.
func e11GridConfig(cfg E11Config) E10Config {
	return E10Config{
		Nodes:              cfg.Nodes,
		Shards:             cfg.Shards,
		TokenHoldMS:        cfg.TokenHoldMS,
		MaxBatch:           cfg.MaxBatch,
		Writers:            cfg.Writers,
		Keys:               cfg.Keys,
		PayloadBytes:       cfg.PayloadBytes,
		Warmup:             cfg.Warmup,
		Duration:           cfg.Duration,
		Reps:               cfg.Reps,
		SnapshotEveryBytes: 4 << 20,
	}
}

// e11Phase measures one batching x durability combination from a fresh
// grid.
func e11Phase(cfg E11Config, batching, fsync string) (E11Row, error) {
	row := E11Row{Batching: batching, Fsync: fsync}
	root := ""
	if fsync != "off" {
		var err error
		if root, err = os.MkdirTemp("", "e11-"+batching+"-"+fsync+"-"); err != nil {
			return row, err
		}
		defer os.RemoveAll(root)
	}
	batch := e11Batching(cfg, batching)
	gcfg := e11GridConfig(cfg)
	g, err := e10OpenBatched(gcfg, fsync, root, &batch)
	if err != nil {
		return row, err
	}
	defer g.Close()
	if err := g.waitAssembled(30 * time.Second); err != nil {
		return row, err
	}
	flushesBefore := g.counterSum(stats.MetricDDSBatchFlushes)
	opsBefore := g.counterSum(stats.MetricDDSBatchedOps)
	walBatchBefore := g.counterSum(stats.MetricWALBatchAppends)
	fsyncsBefore := g.counterSum(stats.MetricWALFsyncs)
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		setsPS, err := e10WriteWindow(gcfg, g)
		if err != nil {
			return row, err
		}
		if setsPS > row.SetsPS {
			row.SetsPS = setsPS
		}
	}
	row.Flushes = g.counterSum(stats.MetricDDSBatchFlushes) - flushesBefore
	row.BatchedOps = g.counterSum(stats.MetricDDSBatchedOps) - opsBefore
	row.WALBatchAppends = g.counterSum(stats.MetricWALBatchAppends) - walBatchBefore
	row.WALFsyncs = g.counterSum(stats.MetricWALFsyncs) - fsyncsBefore
	if row.Flushes > 0 {
		row.OpsPerFlush = float64(row.BatchedOps) / float64(row.Flushes)
	}
	return row, nil
}

// e11Phases lists the sweep: the unbatched baseline and its fsync=always
// contrast row, then both batched modes across the durability ladder.
var e11Phases = []struct{ batching, fsync string }{
	{"unbatched", "off"},
	{"unbatched", "always"},
	{"linger0", "off"},
	{"linger0", "none"},
	{"linger0", "batch"},
	{"linger0", "always"},
	{"linger1ms", "off"},
	{"linger1ms", "none"},
	{"linger1ms", "always"},
}

// E11WriteBatching runs the full experiment.
func E11WriteBatching(cfg E11Config) (*E11Result, error) {
	if cfg.Nodes < 2 || cfg.Writers < 1 {
		return nil, fmt.Errorf("E11: need >= 2 nodes and >= 1 writer")
	}
	res := &E11Result{}
	noneBy := map[string]float64{}
	alwaysBy := map[string]float64{}
	for _, ph := range e11Phases {
		row, err := e11Phase(cfg, ph.batching, ph.fsync)
		if err != nil {
			return nil, fmt.Errorf("E11 %s/%s: %w", ph.batching, ph.fsync, err)
		}
		if ph.batching == "unbatched" && ph.fsync == "off" {
			res.BaselineSetsPS = row.SetsPS
		}
		if res.BaselineSetsPS > 0 {
			row.SpeedupX = row.SetsPS / res.BaselineSetsPS
		}
		if ph.batching != "unbatched" {
			switch ph.fsync {
			case "none":
				noneBy[ph.batching] = row.SetsPS
			case "always":
				alwaysBy[ph.batching] = row.SetsPS
			}
			if row.SpeedupX > res.BestSpeedupX {
				res.BestSpeedupX = row.SpeedupX
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.SpeedupWithinTarget = res.BestSpeedupX >= 3
	// The group-commit bill is whatever the best-amortizing batching
	// mode pays: deeper coalescing spreads each sync over more ops.
	first := true
	for batching, none := range noneBy {
		if none <= 0 {
			continue
		}
		pct := 100 * (none - alwaysBy[batching]) / none
		if first || pct < res.AlwaysOverheadPct {
			res.AlwaysOverheadPct = pct
			res.AlwaysOverheadBatching = batching
			first = false
		}
	}
	res.AlwaysWithinTarget = !first && res.AlwaysOverheadPct <= 15
	return res, nil
}

// E11Table renders the result.
func E11Table(res *E11Result, cfg E11Config) *Table {
	t := &Table{
		Title:   "E11: end-to-end write batching — coalesced frames and WAL group commit",
		Columns: []string{"batching", "fsync", "sets/s", "speedup", "flushes", "ops/flush", "wal batches", "fsyncs"},
		Notes: []string{
			fmt.Sprintf("%d writers, %dB payloads, %d nodes x %d shards; coalescer cap %d ops/frame",
				cfg.Writers, cfg.PayloadBytes, cfg.Nodes, cfg.Shards, cfg.MaxOps),
			"baseline is the unbatched no-storage row; the bar is 3x for batched throughput",
			"group commit: under fsync always, one sync per coalesced frame — the bar is 15% vs fsync none",
		},
	}
	for _, r := range res.Rows {
		speedup := "baseline"
		if !(r.Batching == "unbatched" && r.Fsync == "off") {
			speedup = fmt.Sprintf("%.2fx", r.SpeedupX)
		}
		t.Rows = append(t.Rows, []string{
			r.Batching,
			r.Fsync,
			fmt.Sprintf("%.0f", r.SetsPS),
			speedup,
			fmt.Sprintf("%d", r.Flushes),
			fmt.Sprintf("%.1f", r.OpsPerFlush),
			fmt.Sprintf("%d", r.WALBatchAppends),
			fmt.Sprintf("%d", r.WALFsyncs),
		})
	}
	return t
}

// E11Baseline is the persisted benchmark baseline (BENCH_E11.json).
type E11Baseline struct {
	Experiment string    `json:"experiment"`
	Timestamp  string    `json:"timestamp"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Config     E11Config `json:"config"`
	Result     E11Result `json:"result"`
}

// WriteE11JSON persists the result as a JSON baseline at path.
func WriteE11JSON(path string, cfg E11Config, res *E11Result) error {
	b := E11Baseline{
		Experiment: "e11-write-batching",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Config:     cfg,
		Result:     *res,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
