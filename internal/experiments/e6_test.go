package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestE6ReshardingShape runs a reduced E6 (grow 2 -> 3 on a 3-node grid)
// and checks the elastic-resharding invariants the baseline records: the
// cluster keeps serving through the grow, and the grow step moves keys and
// reports a handoff pause. It asserts no post-grow speedup: with holders
// passing once their attach budget is spent the rings run CPU-bound on a
// small host, where a third ring adds work, not capacity; wall-clock
// throughput is the benchmark's job (benchmark/).
func TestE6ReshardingShape(t *testing.T) {
	cfg := DefaultE6()
	cfg.N = 3
	cfg.FromShards = 2
	cfg.ToShards = 3
	cfg.DDSWorkers = 24
	cfg.Keys = 256
	cfg.Warmup = 200 * time.Millisecond
	cfg.Duration = 600 * time.Millisecond
	res, err := E6Resharding(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Grows) != 1 {
		t.Fatalf("result shape: %+v", res)
	}
	if res.Rows[0].DDSOpsPS <= 0 || res.Rows[1].DDSOpsPS <= 0 {
		t.Fatalf("zero throughput: %+v", res.Rows)
	}
	gr := res.Grows[0]
	if gr.ToShards != 3 || gr.PauseMS <= 0 {
		t.Fatalf("grow step: %+v", gr)
	}
	if gr.KeysMoved == 0 {
		t.Error("no keys moved by the grow")
	}
	t.Log("\n" + E6Table(res, cfg).String())
}

// TestWriteE6JSON checks the persisted baseline round-trips.
func TestWriteE6JSON(t *testing.T) {
	res := E6Result{
		Rows:  []E6Row{{Shards: 2, DDSOpsPS: 1000, SpeedupX: 1}, {Shards: 4, DDSOpsPS: 1700, SpeedupX: 1.7}},
		Grows: []E6Grow{{ToShards: 3, PauseMS: 12.5, KeysMoved: 300}, {ToShards: 4, PauseMS: 10.1, KeysMoved: 250}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_E6.json")
	if err := WriteE6JSON(path, DefaultE6(), res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got E6Baseline
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "e6-elastic-resharding" || len(got.Result.Rows) != 2 || got.Result.Grows[1].ToShards != 4 {
		t.Fatalf("baseline round-trip mismatch: %+v", got)
	}
}
