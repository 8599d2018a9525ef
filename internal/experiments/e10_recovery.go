package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	raincore "repro"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
)

// --- E10: durability — WAL write overhead and crash-restart recovery ---
//
// The durability subsystem's claim is twofold. First, appending every
// ordered apply to a checksummed per-replica WAL is cheap as long as the
// sync policy batches: the ring's token cadence, not the disk, bounds
// ordered write throughput, so fsync_mode=batch must stay within a few
// percent of running with no storage at all (the acceptance bar is 10%).
// Second, a crashed member that restarts from its WAL replays its local
// snapshot + log tail and fast-forwards through a delta state transfer
// covering only the ops it missed, instead of retransferring the full
// keyspace — so recovery cost tracks the downtime gap, not the keyspace.
//
// E10 measures both end to end through the public facade: four identical
// write runs (no storage, then file-backed WALs under fsync none, batch
// and always), followed by a loaded 3-node cluster whose highest member
// is crashed kill -9 style (silenced on the switch, runtime reaped, WAL
// left on disk), restarted from its WAL dir, and timed back to keyspace
// equivalence; the same crash is then repeated with the WAL dir wiped,
// forcing the full-retransfer path the WAL exists to avoid.

// E10Config sizes the durability experiment.
type E10Config struct {
	// Nodes and Shards size the cluster (the crash victim is the
	// highest node ID, never the ring leader).
	Nodes  int
	Shards int
	// TokenHoldMS and MaxBatch size the token: at most MaxBatch frames
	// per hop, and a holder that spends them passes at once.
	TokenHoldMS int
	MaxBatch    int
	// Writers is the closed-loop writer count for the overhead phases.
	Writers int
	// Keys bounds the overhead keyspace (reused keys keep the state
	// small while the log grows, exercising compaction).
	Keys int
	// PayloadBytes sizes each written value.
	PayloadBytes int
	// Warmup and Duration bound each overhead phase's measurement, and
	// Reps is how many windows each mode runs: the phase reports the
	// best one, so a scheduler stall or a compaction landing inside one
	// window does not masquerade as steady-state fsync cost.
	Warmup   time.Duration
	Duration time.Duration
	Reps     int
	// SeedKeys load the cluster before the crash; GapKeys are written
	// while the victim is down and must flow through state transfer.
	SeedKeys int
	GapKeys  int
	// SnapshotEveryBytes is the WAL compaction threshold, sized small
	// enough that the overhead phases compact at least once.
	SnapshotEveryBytes int64
}

// DefaultE10 runs 8 writers against a 3-node, 2-shard cluster with
// second-long measurement windows.
func DefaultE10() E10Config {
	return E10Config{
		Nodes:              3,
		Shards:             2,
		TokenHoldMS:        4,
		MaxBatch:           8,
		Writers:            8,
		Keys:               128,
		PayloadBytes:       128,
		Warmup:             250 * time.Millisecond,
		Duration:           1000 * time.Millisecond,
		Reps:               3,
		SeedKeys:           400,
		GapKeys:            160,
		SnapshotEveryBytes: 64 << 10,
	}
}

// QuickE10 is the CI size: shorter windows, smaller keyspace.
func QuickE10() E10Config {
	cfg := DefaultE10()
	cfg.Writers = 4
	cfg.Warmup = 100 * time.Millisecond
	cfg.Duration = 350 * time.Millisecond
	cfg.Reps = 2
	cfg.SeedKeys = 120
	cfg.GapKeys = 48
	cfg.SnapshotEveryBytes = 32 << 10
	return cfg
}

// E10Overhead is one write-throughput phase under a durability mode.
type E10Overhead struct {
	// Mode is "off" (no storage) or a WAL fsync mode.
	Mode string `json:"fsync_mode"`
	// SetsPS is the completed ordered writes per second in the window.
	SetsPS float64 `json:"sets_per_sec"`
	// WALAppends and WALFsyncs count the WAL work the window generated,
	// summed across members.
	WALAppends int64 `json:"wal_appends"`
	WALFsyncs  int64 `json:"wal_fsyncs"`
	// Compactions counts snapshot compactions during the window.
	Compactions int64 `json:"snapshot_compactions"`
	// OverheadPct is the throughput cost vs the "off" baseline.
	OverheadPct float64 `json:"overhead_pct"`
}

// E10Recovery is one crash-restart measurement.
type E10Recovery struct {
	// Path is "wal_delta" (restart from the WAL dir) or
	// "full_retransfer" (WAL dir wiped before the restart).
	Path string `json:"path"`
	// Millis is open-to-caught-up: from reopening the member to its
	// replica serving the last key written during its downtime.
	Millis float64 `json:"recovery_ms"`
	// Replayed counts WAL records replayed locally at open.
	Replayed int64 `json:"replayed_records"`
	// Deltas and Fulls count the state transfers the survivors served
	// for this rejoin: the WAL path must be all deltas, the wiped path
	// all fulls.
	Deltas int64 `json:"deltas_served"`
	Fulls  int64 `json:"fulls_served"`
}

// E10Result is the complete durability measurement.
type E10Result struct {
	Overhead []E10Overhead `json:"overhead"`
	Recovery []E10Recovery `json:"recovery"`
	// SpeedupX is full-retransfer recovery time over WAL recovery time.
	SpeedupX float64 `json:"recovery_speedup_x"`
	// BatchWithinTarget reports the acceptance bar: fsync_mode=batch
	// write overhead at or under 10%.
	BatchWithinTarget bool `json:"batch_overhead_within_10pct"`
}

// e10Grid is a facade cluster over one simulated switch whose members
// can be crashed (silenced + reaped, storage left behind) and reopened.
type e10Grid struct {
	net  *simnet.Network
	ids  []core.NodeID
	cls  map[core.NodeID]*raincore.Cluster
	dirs map[core.NodeID]string
	cfg  E10Config
	mode string
	// batch overrides the write-coalescer configuration on every member
	// (nil keeps the library default). E11 sweeps it; E10 leaves it alone.
	batch *raincore.WriteBatching
}

// e10Open builds the grid. mode "off" disables storage; any other value
// is the WAL fsync mode, with per-member dirs under root.
func e10Open(cfg E10Config, mode, root string) (*e10Grid, error) {
	return e10OpenBatched(cfg, mode, root, nil)
}

// e10OpenBatched is e10Open with a write-batching override for the E11
// phases.
func e10OpenBatched(cfg E10Config, mode, root string, batch *raincore.WriteBatching) (*e10Grid, error) {
	g := &e10Grid{
		net:   simnet.New(simnet.Options{}),
		cls:   make(map[core.NodeID]*raincore.Cluster),
		dirs:  make(map[core.NodeID]string),
		cfg:   cfg,
		mode:  mode,
		batch: batch,
	}
	for i := 1; i <= cfg.Nodes; i++ {
		g.ids = append(g.ids, core.NodeID(i))
	}
	for _, id := range g.ids {
		if mode != "off" {
			g.dirs[id] = filepath.Join(root, fmt.Sprintf("n%d", id))
		}
		if err := g.openMember(id); err != nil {
			g.Close()
			return nil, err
		}
	}
	return g, nil
}

// openMember opens (or reopens) one member over the switch. SeqBase is
// left at zero so a restarted incarnation seeds a fresh sequence range
// from the wall clock, exactly like a production restart.
func (g *e10Grid) openMember(id core.NodeID) error {
	ep, err := g.net.Endpoint(core.Addr(id))
	if err != nil {
		return err
	}
	tc := transport.DefaultConfig()
	tc.AckTimeout = 10 * time.Millisecond
	rc := core.FastRing()
	rc.TokenHold = time.Duration(g.cfg.TokenHoldMS) * time.Millisecond
	rc.MaxBatch = g.cfg.MaxBatch
	rc.Eligible = g.ids
	opts := []raincore.Option{
		raincore.WithID(id),
		raincore.WithRings(g.cfg.Shards),
		raincore.WithRingConfig(rc),
		raincore.WithTransportConfig(tc),
	}
	if dir := g.dirs[id]; dir != "" {
		opts = append(opts,
			raincore.WithStorage(dir),
			raincore.WithFsyncMode(g.mode),
			raincore.WithSnapshotEvery(g.cfg.SnapshotEveryBytes))
	}
	if g.batch != nil {
		opts = append(opts, raincore.WithWriteBatching(*g.batch))
	}
	for _, other := range g.ids {
		if other != id {
			opts = append(opts, raincore.WithPeer(other, transport.Addr(core.Addr(other))))
		}
	}
	cl, err := raincore.Open(context.Background(), []raincore.PacketConn{transport.NewSimConn(ep)}, opts...)
	if err != nil {
		return err
	}
	g.cls[id] = cl
	return nil
}

// crash silences id on the switch and reaps its runtime — no leave, no
// goodbye; the WAL dir survives like a disk.
func (g *e10Grid) crash(id core.NodeID) {
	g.net.SetNodeDown(core.Addr(id), true)
	_ = g.cls[id].Runtime().Close()
}

// waitAssembled blocks until every member sees the full ID set.
func (g *e10Grid) waitAssembled(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for _, id := range g.ids {
		if err := g.cls[id].WaitMembers(ctx, len(g.ids)); err != nil {
			return fmt.Errorf("member %v: %w", id, err)
		}
	}
	return nil
}

// counterSum adds a registry counter across every member.
func (g *e10Grid) counterSum(name string) int64 {
	var total int64
	for _, cl := range g.cls {
		total += cl.Stats().Counter(name).Load()
	}
	return total
}

// Close shuts every member down and stops the switch.
func (g *e10Grid) Close() {
	for _, cl := range g.cls {
		_ = cl.Close()
	}
	g.net.Close()
}

// e10WriteWindow runs the closed-loop write workload through member 1
// and returns completed sets/sec over the recorded window.
func e10WriteWindow(cfg E10Config, g *e10Grid) (float64, error) {
	cl := g.cls[g.ids[0]]
	payload := make([]byte, cfg.PayloadBytes)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var recording atomic.Bool
	var sets atomic.Int64
	errCh := make(chan error, cfg.Writers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				key := fmt.Sprintf("e10-%d-%d", w, i%cfg.Keys)
				sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
				err := cl.Set(sctx, key, payload)
				scancel()
				if err != nil {
					if ctx.Err() == nil {
						select {
						case errCh <- err:
						default:
						}
					}
					return
				}
				if recording.Load() {
					sets.Add(1)
				}
			}
		}()
	}
	time.Sleep(cfg.Warmup)
	recording.Store(true)
	time.Sleep(cfg.Duration)
	recording.Store(false)
	cancel()
	wg.Wait()
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return float64(sets.Load()) / cfg.Duration.Seconds(), nil
}

// e10OverheadPhase measures one durability mode from a fresh grid.
func e10OverheadPhase(cfg E10Config, mode string) (E10Overhead, error) {
	row := E10Overhead{Mode: mode}
	root := ""
	if mode != "off" {
		var err error
		if root, err = os.MkdirTemp("", "e10-"+mode+"-"); err != nil {
			return row, err
		}
		defer os.RemoveAll(root)
	}
	g, err := e10Open(cfg, mode, root)
	if err != nil {
		return row, err
	}
	defer g.Close()
	if err := g.waitAssembled(30 * time.Second); err != nil {
		return row, err
	}
	appendsBefore := g.counterSum(stats.MetricWALAppends)
	fsyncsBefore := g.counterSum(stats.MetricWALFsyncs)
	compactBefore := g.counterSum(stats.MetricSnapshotCompactions)
	// Best of Reps windows: steady-state cost, not whichever window a
	// scheduler stall or a compaction happened to land in. WAL counters
	// accumulate over the whole phase so the log keeps growing (and
	// compacting) between windows, like a long-running member's would.
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		setsPS, err := e10WriteWindow(cfg, g)
		if err != nil {
			return row, err
		}
		if setsPS > row.SetsPS {
			row.SetsPS = setsPS
		}
	}
	row.WALAppends = g.counterSum(stats.MetricWALAppends) - appendsBefore
	row.WALFsyncs = g.counterSum(stats.MetricWALFsyncs) - fsyncsBefore
	row.Compactions = g.counterSum(stats.MetricSnapshotCompactions) - compactBefore
	return row, nil
}

// e10WaitValue polls an eventual read on cl until key holds a value.
func e10WaitValue(cl *raincore.Cluster, key string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if _, ok, _ := cl.Get(context.Background(), key); ok {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("key %q never appeared within %v", key, timeout)
}

// e10CrashRestart crashes the victim, waits for the survivors to remove
// it, writes the downtime gap through a survivor, optionally wipes the
// victim's WAL dir, reopens it, and times it back to keyspace
// equivalence with the survivors.
func e10CrashRestart(cfg E10Config, g *e10Grid, victim core.NodeID, gapPrefix string, wipe bool) (E10Recovery, error) {
	rec := E10Recovery{Path: "wal_delta"}
	if wipe {
		rec.Path = "full_retransfer"
	}
	survivor := g.cls[g.ids[0]]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// A burst right before the crash leaves fresh records in the victim's
	// WAL tail: a restart after a quiet spell would find its whole state
	// compacted into the snapshot and replay nothing, which is a fine
	// recovery but an empty "replayed" measurement.
	for i := 0; i < 16; i++ {
		if err := survivor.Set(ctx, fmt.Sprintf("%s-pre-%d", gapPrefix, i), []byte("p")); err != nil {
			return rec, fmt.Errorf("pre-crash write: %w", err)
		}
	}
	if err := e10WaitValue(g.cls[victim], fmt.Sprintf("%s-pre-%d", gapPrefix, 15), 30*time.Second); err != nil {
		return rec, fmt.Errorf("pre-crash replication: %w", err)
	}
	g.crash(victim)
	// The rejoin under measurement is the paper's crash-detect-readmit
	// cycle. Restarting before the failure detector has removed the
	// victim would re-admit the same member with no membership change —
	// and so no state transfer at all — so the gap only starts once
	// every survivor has seen the death.
	for _, id := range g.ids {
		if id != victim {
			if err := g.cls[id].WaitMembers(ctx, len(g.ids)-1); err != nil {
				return rec, fmt.Errorf("survivors never removed the victim: %w", err)
			}
		}
	}
	for i := 0; i < cfg.GapKeys; i++ {
		if err := survivor.Set(ctx, fmt.Sprintf("%s-%d", gapPrefix, i), []byte("g")); err != nil {
			return rec, fmt.Errorf("gap write: %w", err)
		}
	}
	if wipe {
		if err := os.RemoveAll(g.dirs[victim]); err != nil {
			return rec, err
		}
	}
	var deltasBefore, fullsBefore int64
	for _, id := range g.ids {
		if id != victim {
			deltasBefore += g.cls[id].Stats().Counter(stats.MetricRecoveryDeltas).Load()
			fullsBefore += g.cls[id].Stats().Counter(stats.MetricRecoveryFulls).Load()
		}
	}
	g.net.SetNodeDown(core.Addr(victim), false)
	start := time.Now()
	if err := g.openMember(victim); err != nil {
		return rec, err
	}
	restarted := g.cls[victim]
	// Caught up means keyspace equivalence with a survivor — the same
	// key count and the last key written before and during the downtime
	// — not just one sentinel landing early off the admitting token.
	lastGap := fmt.Sprintf("%s-%d", gapPrefix, cfg.GapKeys-1)
	lastSeed := fmt.Sprintf("e10-seed-%d", cfg.SeedKeys-1)
	for _, key := range []string{lastGap, lastSeed} {
		if err := e10WaitValue(restarted, key, 60*time.Second); err != nil {
			return rec, fmt.Errorf("%s: %w", rec.Path, err)
		}
	}
	want := len(survivor.Keys())
	deadline := time.Now().Add(60 * time.Second)
	for len(restarted.Keys()) != want {
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("%s: restarted member holds %d keys, survivors hold %d",
				rec.Path, len(restarted.Keys()), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec.Millis = float64(time.Since(start).Microseconds()) / 1000
	rec.Replayed = restarted.Stats().Counter(stats.MetricRecoveryReplayed).Load()
	for _, id := range g.ids {
		if id != victim {
			rec.Deltas += g.cls[id].Stats().Counter(stats.MetricRecoveryDeltas).Load()
			rec.Fulls += g.cls[id].Stats().Counter(stats.MetricRecoveryFulls).Load()
		}
	}
	rec.Deltas -= deltasBefore
	rec.Fulls -= fullsBefore
	return rec, nil
}

// e10MeasuredRestart runs e10CrashRestart until the rejoin is served
// through the counted join-path responder. The ring protocol has a
// second, legitimate rejoin route — the restarted node seeds a
// singleton group and the merge's sync-fallback leader broadcasts an
// authoritative snapshot — but that broadcast bypasses the delta/full
// responder the experiment classifies by, so a run that raced onto it
// cannot be labeled. Which route wins is a freshness race at 911 time;
// re-crashing the victim re-rolls it.
func e10MeasuredRestart(cfg E10Config, g *e10Grid, victim core.NodeID, gapPrefix string, wipe bool) (E10Recovery, error) {
	const attempts = 4
	var rec E10Recovery
	var err error
	for a := 0; a < attempts; a++ {
		rec, err = e10CrashRestart(cfg, g, victim, fmt.Sprintf("%s-r%d", gapPrefix, a), wipe)
		if err != nil {
			return rec, err
		}
		if wipe {
			if rec.Fulls > 0 && rec.Replayed == 0 {
				return rec, nil
			}
		} else if rec.Deltas > 0 && rec.Fulls == 0 && rec.Replayed > 0 {
			return rec, nil
		}
	}
	return rec, fmt.Errorf("%s: rejoin kept taking the uncounted merge route after %d attempts (replayed=%d deltas=%d fulls=%d)",
		rec.Path, attempts, rec.Replayed, rec.Deltas, rec.Fulls)
}

// e10Modes lists the overhead phases; "off" is the baseline.
var e10Modes = []string{"off", "none", "batch", "always"}

// E10Durability runs the full experiment.
func E10Durability(cfg E10Config) (*E10Result, error) {
	if cfg.Nodes < 2 || cfg.Writers < 1 || cfg.SeedKeys < 1 || cfg.GapKeys < 1 {
		return nil, fmt.Errorf("E10: need >= 2 nodes, >= 1 writer, seed and gap keys")
	}
	res := &E10Result{}

	// Part 1: write overhead per durability mode.
	var baseline float64
	for _, mode := range e10Modes {
		row, err := e10OverheadPhase(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("E10 overhead %s: %w", mode, err)
		}
		if mode == "off" {
			baseline = row.SetsPS
		} else if baseline > 0 {
			row.OverheadPct = 100 * (baseline - row.SetsPS) / baseline
		}
		res.Overhead = append(res.Overhead, row)
	}
	for _, row := range res.Overhead {
		if row.Mode == "batch" {
			res.BatchWithinTarget = row.OverheadPct <= 10
		}
	}

	// Part 2: crash-restart recovery, WAL then wiped.
	root, err := os.MkdirTemp("", "e10-recovery-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	g, err := e10Open(cfg, "batch", root)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	if err := g.waitAssembled(30 * time.Second); err != nil {
		return nil, err
	}
	seedCl := g.cls[g.ids[0]]
	victim := g.ids[len(g.ids)-1]
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	payload := make([]byte, cfg.PayloadBytes)
	for i := 0; i < cfg.SeedKeys; i++ {
		if err := seedCl.Set(ctx, fmt.Sprintf("e10-seed-%d", i), payload); err != nil {
			return nil, fmt.Errorf("E10 seed: %w", err)
		}
	}
	// Every seed write must be in the victim's replica (and WAL) before
	// the crash, or the "replayed" count would undercount the load.
	if err := e10WaitValue(g.cls[victim], fmt.Sprintf("e10-seed-%d", cfg.SeedKeys-1), 30*time.Second); err != nil {
		return nil, fmt.Errorf("E10 seed replication: %w", err)
	}

	// Best-of-Reps, like the write windows: a restart's wall clock folds
	// in 911 retry timers and token-admission cadence, so the minimum is
	// the cleanest view of the delta-vs-full transfer cost itself.
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	measure := func(prefix string, wipe bool) (E10Recovery, error) {
		var best E10Recovery
		for rep := 0; rep < reps; rep++ {
			rec, err := e10MeasuredRestart(cfg, g, victim, fmt.Sprintf("%s%d", prefix, rep), wipe)
			if err != nil {
				return rec, err
			}
			if rep == 0 || rec.Millis < best.Millis {
				best = rec
			}
		}
		return best, nil
	}
	walRec, err := measure("e10-gap-a", false)
	if err != nil {
		return nil, err
	}
	res.Recovery = append(res.Recovery, walRec)
	fullRec, err := measure("e10-gap-b", true)
	if err != nil {
		return nil, err
	}
	res.Recovery = append(res.Recovery, fullRec)
	if walRec.Millis > 0 {
		res.SpeedupX = fullRec.Millis / walRec.Millis
	}
	return res, nil
}

// E10Table renders the result.
func E10Table(res *E10Result, cfg E10Config) *Table {
	t := &Table{
		Title:   "E10: durability — WAL write overhead and crash-restart recovery",
		Columns: []string{"phase", "sets/s", "wal appends", "fsyncs", "compactions", "overhead", "recovery ms", "replayed", "transfer"},
		Notes: []string{
			fmt.Sprintf("%d writers, %dB payloads, %d nodes x %d shards; WAL compaction every %d KiB",
				cfg.Writers, cfg.PayloadBytes, cfg.Nodes, cfg.Shards, cfg.SnapshotEveryBytes>>10),
			"overhead is ordered-write throughput lost vs running with no storage; the bar for fsync batch is 10%",
			fmt.Sprintf("recovery: %d keys seeded, %d written during the downtime gap; WAL restart must fast-forward by delta, the wiped restart pays a full retransfer",
				cfg.SeedKeys, cfg.GapKeys),
		},
	}
	for _, r := range res.Overhead {
		overhead := "baseline"
		if r.Mode != "off" {
			overhead = fmt.Sprintf("%.1f%%", r.OverheadPct)
		}
		t.Rows = append(t.Rows, []string{
			"write/" + r.Mode,
			fmt.Sprintf("%.0f", r.SetsPS),
			fmt.Sprintf("%d", r.WALAppends),
			fmt.Sprintf("%d", r.WALFsyncs),
			fmt.Sprintf("%d", r.Compactions),
			overhead, "", "", "",
		})
	}
	for _, r := range res.Recovery {
		t.Rows = append(t.Rows, []string{
			"restart/" + r.Path, "", "", "", "", "",
			fmt.Sprintf("%.1f", r.Millis),
			fmt.Sprintf("%d", r.Replayed),
			fmt.Sprintf("%d delta, %d full", r.Deltas, r.Fulls),
		})
	}
	return t
}

// E10Baseline is the persisted benchmark baseline (BENCH_E10.json).
type E10Baseline struct {
	Experiment string    `json:"experiment"`
	Timestamp  string    `json:"timestamp"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Config     E10Config `json:"config"`
	Result     E10Result `json:"result"`
}

// WriteE10JSON persists the result as a JSON baseline at path.
func WriteE10JSON(path string, cfg E10Config, res *E10Result) error {
	b := E10Baseline{
		Experiment: "e10-durability-recovery",
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
