package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestE5ShardScalingShape runs a reduced E5 and checks its rows come out
// whole: one per shard count, every one with non-zero ordered and dds
// throughput. It asserts no speedup: a ring whose holder passes as soon as
// its attach budget is spent runs CPU-bound on a small host, so the shard
// ratio there measures the host, not the protocol; wall-clock throughput
// is the benchmark's job (benchmark/, write-burst).
func TestE5ShardScalingShape(t *testing.T) {
	cfg := DefaultE5()
	cfg.N = 3
	cfg.Shards = []int{1, 2}
	cfg.Warmup = 200 * time.Millisecond
	cfg.Duration = 600 * time.Millisecond
	cfg.DDSWorkers = 24
	rows, err := E5ShardScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.MulticastPS <= 0 || r.DDSOpsPS <= 0 {
			t.Fatalf("zero throughput: %+v", r)
		}
	}
	t.Log("\n" + E5Table(rows, cfg).String())
}

// TestWriteE5JSON checks the persisted baseline round-trips.
func TestWriteE5JSON(t *testing.T) {
	rows := []E5Row{
		{Shards: 1, MulticastPS: 1000, MulticastX: 1, DDSOpsPS: 900, DDSX: 1},
		{Shards: 4, MulticastPS: 3900, MulticastX: 3.9, DDSOpsPS: 3000, DDSX: 3.33},
	}
	path := filepath.Join(t.TempDir(), "BENCH_E5.json")
	if err := WriteE5JSON(path, DefaultE5(), rows, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got E5Baseline
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "e5-shard-scaling" || len(got.Rows) != 2 || got.Rows[1].Shards != 4 {
		t.Fatalf("baseline round-trip mismatch: %+v", got)
	}
}
