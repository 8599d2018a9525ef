package dds

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
)

// idleReplica builds a data-service replica on a node that never starts,
// preloaded with n keys of 64-byte values, so an apply can be measured
// with no ring traffic beside it. It returns the replica and its keys.
func idleReplica(tb testing.TB, n int) (*Service, []string) {
	tb.Helper()
	tc, err := core.NewTestCluster(core.ClusterOptions{N: 1, DeferStart: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tc.Close)
	s := New(tc.Nodes[tc.IDs[0]])
	keys := make([]string, n)
	entries := make([]batchEntry, n)
	val := bytes.Repeat([]byte{0x5A}, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("apply-key-%07d", i)
		entries[i] = batchEntry{key: keys[i], val: val}
	}
	s.mu.Lock()
	s.applyLocked(s.id+1, op{kind: opBatch, batch: entries})
	s.mu.Unlock()
	return s, keys
}

// applySet applies one ordered single-op set from another origin (so no
// local waiter or coalescer hook is involved).
func applySet(s *Service, key string, val []byte) {
	s.mu.Lock()
	s.applyLocked(s.id+1, op{kind: opSet, key: key, val: val})
	s.mu.Unlock()
}

// BenchmarkApply measures the ordered apply of a single-op set and of a
// 128-op batch frame against a preloaded keyspace: the per-op cost of
// publishing into the copy-on-write keyspace, which grows with the
// bucket size.
func BenchmarkApply(b *testing.B) {
	val := bytes.Repeat([]byte{0xA5}, 64)
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("set/keys=%d", n), func(b *testing.B) {
			s, keys := idleReplica(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				applySet(s, keys[i%n], val)
			}
		})
		b.Run(fmt.Sprintf("batch128/keys=%d", n), func(b *testing.B) {
			s, keys := idleReplica(b, n)
			batch := make([]batchEntry, batchMaxOps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j] = batchEntry{key: keys[(i*batchMaxOps+j)%n], val: val}
				}
				s.mu.Lock()
				s.applyLocked(s.id+1, op{kind: opBatch, batch: batch})
				s.mu.Unlock()
			}
		})
	}
}

// TestApplyAllocBudget pins a single-op set apply's allocations at 4,096
// keys (16 per bucket): the bucket clone and one copy of the value — the
// keyspace is one map, so the value is copied once.
func TestApplyAllocBudget(t *testing.T) {
	s, keys := idleReplica(t, 4096)
	val := bytes.Repeat([]byte{0xA5}, 64)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		applySet(s, keys[i%len(keys)], val)
		i++
	})
	if allocs > applyAllocBudget {
		t.Fatalf("single-op set apply = %.2f allocs, budget is %d", allocs, applyAllocBudget)
	}
}

// applyAllocBudget is TestApplyAllocBudget's pin: three allocations for
// the cloned bucket map, one for the pointer that publishes it, one for
// the value copy.
const applyAllocBudget = 5
