package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

// opStreamHash digests everything the generators hand the system under
// test for one seed.
func opStreamHash(seed int64) string {
	h := sha256.New()
	put := func(o op) {
		var b [9]byte
		b[0] = byte(o.Kind)
		binary.LittleEndian.PutUint32(b[1:], uint32(o.Key))
		binary.LittleEndian.PutUint32(b[5:], uint32(o.Size))
		h.Write(b[:])
	}
	for conn := 0; conn < 2; conn++ {
		for _, o := range gwMix(seed, conn, gwKVConns, gwKeys, 2000, valueBytes) {
			put(o)
		}
		for _, o := range txnMix(seed, conn, gwTxnConns, gwPairs, 500, valueBytes) {
			put(o)
		}
	}
	for caller := 0; caller < 4; caller++ {
		g := newBurstGen(seed, caller, burstCallers, burstKeys)
		for i := 0; i < 2000; i++ {
			put(g.next())
		}
	}
	for _, k := range permutation(seed, failWriter, failKeys) {
		put(op{Key: k})
	}
	for _, v := range victims(seed, 12) {
		put(op{Key: int32(v)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestOpStreamDeterministic(t *testing.T) {
	const golden = "ca74c0c996aa81950f8aed05bea8bd619f14d481c1e97b3a861908a43dd89b69"
	if got := opStreamHash(7); got != golden {
		t.Errorf("op stream of seed 7 hashes to %s, want %s: the generators changed, so results no longer compare with earlier runs", got, golden)
	}
	if opStreamHash(7) != opStreamHash(7) {
		t.Error("the same seed generated two different op streams")
	}
	if opStreamHash(7) == opStreamHash(8) {
		t.Error("seeds 7 and 8 generated the same op stream")
	}
}

func TestOwnedKeysHaveOneWriter(t *testing.T) {
	owner := make(map[int32]int)
	for caller := 0; caller < burstCallers; caller++ {
		g := newBurstGen(3, caller, burstCallers, burstKeys)
		for i := 0; i < 500; i++ {
			o := g.next()
			if o.Key < 0 || int(o.Key) >= burstKeys {
				t.Fatalf("caller %d drew key %d outside the table", caller, o.Key)
			}
			if prev, seen := owner[o.Key]; seen && prev != caller {
				t.Fatalf("key %d is written by callers %d and %d", o.Key, prev, caller)
			}
			owner[o.Key] = caller
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := encodeValue("g/00001", 3, 42, 77, 1024)
	d, err := decodeValue("g/00001", v)
	if err != nil || d != (decoded{writer: 3, version: 42, txn: 77}) {
		t.Fatalf("decode = %+v, %v", d, err)
	}
	if _, err := decodeValue("g/00002", v); err == nil {
		t.Error("a value verified under another key")
	}
	v[500] ^= 1
	if _, err := decodeValue("g/00001", v); err == nil {
		t.Error("a value with a flipped padding bit verified")
	}
	if !headerOK(v, true, keyHash("g/00001"), 42) || headerOK(v, true, keyHash("g/00001"), 43) {
		t.Error("headerOK does not compare the version against the floor")
	}
}

func TestPercentiles(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 100; i++ {
		s = append(s, i)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	// The highest percentile that still has ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {20, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25 as statistics.quantiles gives", q1, q3)
	}
}

func TestScheduleAndGaps(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, period: 20 * time.Millisecond}
	if got := s.due(50); !got.Equal(start.Add(time.Second)) {
		t.Errorf("due(50) = %v, want one second after the start", got.Sub(start))
	}
	// A request due in the past is issued at once and reported late.
	past := schedule{start: time.Now().Add(-30 * time.Millisecond), period: time.Millisecond}
	if _, late := past.wait(0); late < 30*time.Millisecond || late > time.Second {
		t.Errorf("lateness of a request due 30 ms ago = %v", late)
	}
	future := schedule{start: time.Now().Add(5 * time.Millisecond), period: time.Millisecond}
	if due, late := future.wait(0); time.Now().Before(due) || late > 500*time.Millisecond {
		t.Errorf("wait returned before the due time, or %v late", late)
	}

	var a ackLog
	for _, off := range []int{10, 20, 30, 130, 140, 990, 1500} {
		a.note(start.Add(time.Duration(off) * time.Millisecond))
	}
	if got := a.longestGap(start, time.Second); got != 850*time.Millisecond {
		t.Errorf("longest gap in the first second = %v, want 850ms (140 -> 990)", got)
	}
	if got := a.longestGap(start.Add(2*time.Second), time.Second); got != time.Second {
		t.Errorf("a window without acks reports %v, want the whole window", got)
	}
	if got := a.gaps(start, start.Add(3500*time.Millisecond), time.Second); len(got) != 3 || got[0] != 850 || got[1] != 500 || got[2] != 1000 {
		t.Errorf("gaps of 3.5 s cut into one-second windows = %v, want [850 500 1000]", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "set", StartNS: 10, EndNS: 90},
		{ID: 3, Parent: 2, Name: "wait", StartNS: 10, EndNS: 60},
		{ID: 4, Parent: 2, Name: "ack", StartNS: 50, EndNS: 90},   // overlaps span 3: counted once
		{ID: 5, Parent: 2, Name: "lag", StartNS: 60, EndNS: 400},  // outlives the parent: clipped
		{ID: 6, Parent: 99, Name: "orphan", StartNS: 0, EndNS: 5}, // parent not recorded
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 20, 2: 0, 3: 50, 4: 40, 5: 340, 6: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{"write_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		base []float64
		cand []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "same"},
		{lower, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "better"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "better"},
		{lower, []float64{100, 140, 70, 100, 125}, []float64{130, 131, 129, 130, 130}, "unresolved"},
		{lower, []float64{100}, []float64{80}, "same"},
		{lower, []float64{100}, []float64{115}, "worse"},
	} {
		if _, got := verdict(c.d, c.base, c.cand); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.name, c.base, c.cand, got, c.want)
		}
	}
}

// TestManifestMatchesFile keeps BENCHMARK.json, the file the driver reads,
// equal to the tables the program prints from, and inside the contract's
// limits.
func TestManifestMatchesFile(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(file) != string(manifest()) {
		t.Error("BENCHMARK.json differs from `benchmark manifest`; regenerate it")
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("better %q of %s", better, n)
		}
	}
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 ||
		len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(file) > 64<<10 {
		t.Errorf("counts out of range: %d workloads, %d end-to-end, %d per-layer, %d s, %d bytes",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), doc.RunSeconds, len(file))
	}
	for _, w := range doc.Workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s", m.Bound, m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

// TestSmokeWorkloads runs one second of every workload at a sixteenth of
// its size, untraced and traced, and requires a green oracle and every
// metric of the pass present.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("one second of each workload, twice")
	}
	logw = io.Discard
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o, err := runOne(context.Background(), params{
					workload: w.name, seed: 5, window: time.Second, traced: traced, setups: 1, tiny: true, tmp: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !o.correct {
					t.Errorf("oracle violated: %v", o.violations)
				}
				if o.attempted == 0 {
					t.Error("no operation attempted")
				}
				for _, d := range e2eMetrics {
					if o.e2e[d.name].value <= 0 {
						t.Errorf("%s = %v, want a positive value", d.name, o.e2e[d.name].value)
					}
				}
				if traced {
					for _, n := range []string{"raincore.set_ms_p50", "dds.submit_to_apply_ms_p50", "dds.ops_per_flush", "wal.append_us_p50", "transport.datagrams_per_op", "ring.token_passes_per_s"} {
						if o.layer[n].value <= 0 {
							t.Errorf("%s = %v, want a positive value: a decorator came loose", n, o.layer[n].value)
						}
					}
				}
			})
		}
	}
}
