package experiments

import (
	"strings"
	"testing"
	"time"
)

// These tests run scaled-down versions of every experiment: they verify
// the harnesses work end to end and that the paper's qualitative claims
// hold, without the full measurement windows rainbench uses.

func TestE1RaincoreFlatInN(t *testing.T) {
	cfg := E1Config{Ns: []int{2, 6}, M: 100, L: 50, Duration: 600 * time.Millisecond}
	rows, err := E1TaskSwitching(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[string]map[int]float64{}
	for _, r := range rows {
		if byProto[r.Protocol] == nil {
			byProto[r.Protocol] = map[int]float64{}
		}
		byProto[r.Protocol][r.N] = r.SwitchesPS
	}
	rc := byProto["raincore-token"]
	// Raincore must NOT grow with N: allow 2x slack for quantization.
	if rc[6] > 2*rc[2]+50 {
		t.Fatalf("raincore switches grew with N: %v", rc)
	}
	bc := byProto["broadcast-unordered"]
	// Broadcast must grow roughly 5x from N=2 to N=6 (M*(N-1)).
	if bc[6] < 3*bc[2] {
		t.Fatalf("broadcast switches did not scale with N: %v", bc)
	}
	// Ordered 2PC must cost a clear multiple of unordered. The margin is
	// generous (1.4x instead of the nominal 3x) because instrumented
	// runs, e.g. under the race detector, slow the submission tickers.
	tp := byProto["broadcast-2pc-ordered"]
	if tp[6] < 1.4*bc[6] {
		t.Fatalf("2pc %f not a multiple of unordered %f", tp[6], bc[6])
	}
	// Raincore beats both baselines at N=6.
	if rc[6] > bc[6] {
		t.Fatalf("raincore (%f) not cheaper than broadcast (%f) at N=6", rc[6], bc[6])
	}
	out := E1Table(rows, cfg).String()
	if !strings.Contains(out, "raincore-token") {
		t.Fatal("table missing protocol rows")
	}
}

func TestE2BroadcastPacketCountExact(t *testing.T) {
	const n, m = 3, 128
	cfg := E2Config{Ns: []int{n}, MsgBytes: m}
	rows, err := E2NetworkOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bcast, token *E2Row
	for i := range rows {
		switch rows[i].Protocol {
		case "broadcast-unicast-fanout":
			bcast = &rows[i]
		case "raincore-token":
			token = &rows[i]
		}
	}
	if bcast == nil || token == nil {
		t.Fatalf("missing rows: %+v", rows)
	}
	// Exactly 2*N*(N-1) packets: data + acks, no loss on the clean net.
	if want := int64(2 * n * (n - 1)); bcast.Packets != want {
		t.Fatalf("broadcast packets = %d, want %d", bcast.Packets, want)
	}
	// Every message must reach the N-1 other members, so the token makes
	// at least N-1 hops, and the M-byte payloads alone cross the wire
	// N*(N-1) times. The token aggregates: strictly fewer packets than
	// broadcast's 2N(N-1).
	t.Logf("token: %d packets, %d bytes; broadcast: %d packets, %d bytes", token.Packets, token.Bytes, bcast.Packets, bcast.Bytes)
	if token.Packets < n-1 {
		t.Fatalf("token packets = %d, want >= %d hops", token.Packets, n-1)
	}
	if token.Bytes < n*(n-1)*m {
		t.Fatalf("token bytes = %d, want >= %d payload bytes", token.Bytes, n*(n-1)*m)
	}
	if token.Packets >= bcast.Packets {
		t.Fatalf("token packets %d not fewer than broadcast %d", token.Packets, bcast.Packets)
	}
	_ = E2Table(rows, cfg).String()
}

func TestE3ScalingShape(t *testing.T) {
	cfg := DefaultE3()
	cfg.Sizes = []int{1, 2}
	cfg.Ticks = 60
	rows, err := E3RainwallScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].ThroughputMbps < 90 || rows[0].ThroughputMbps > 96 {
		t.Fatalf("1-node throughput %.1f, want ~95", rows[0].ThroughputMbps)
	}
	if rows[1].Scaling < 1.8 || rows[1].Scaling > 2.0 {
		t.Fatalf("2-node scaling %.2f, want ~1.96", rows[1].Scaling)
	}
	if rows[0].RaincoreCPUPct > 1.0 {
		t.Fatalf("raincore CPU %.2f%%, paper claims < 1%%", rows[0].RaincoreCPUPct)
	}
	_ = E3Table(rows, cfg).String()
}

func TestE4FailoverUnderTwoSeconds(t *testing.T) {
	cfg := DefaultE4()
	cfg.Sizes = []int{2}
	cfg.Ticks = 250
	rows, err := E4Failover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].GapSecs > 2.0 {
		t.Fatalf("failover gap %.2fs exceeds the paper's two seconds\n%s", rows[0].GapSecs, rows[0].Report)
	}
	_ = E4Table(rows, cfg).String()
}

func TestA1SafeCostsMoreThanAgreed(t *testing.T) {
	rows, err := A1SafeVsAgreed(3, 15)
	if err != nil {
		t.Fatal(err)
	}
	var agreed, safe float64
	for _, r := range rows {
		switch r.Ordering {
		case "agreed":
			agreed = r.MeanMs
		case "safe":
			safe = r.MeanMs
		}
	}
	if safe <= agreed {
		t.Fatalf("safe (%.2fms) not slower than agreed (%.2fms)", safe, agreed)
	}
	_ = A1Table(rows).String()
}

func TestA2ParallelFasterThanSequential(t *testing.T) {
	rows, err := A2SendStrategy(30)
	if err != nil {
		t.Fatal(err)
	}
	var seq, par A2Row
	for _, r := range rows {
		if r.Strategy == "sequential" {
			seq = r
		} else {
			par = r
		}
	}
	if par.MeanMs >= seq.MeanMs {
		t.Fatalf("parallel (%.2fms) not faster than sequential (%.2fms)", par.MeanMs, seq.MeanMs)
	}
	if seq.Failures != 0 || par.Failures != 0 {
		t.Fatalf("redundant links failed to mask the dead primary: seq=%d par=%d",
			seq.Failures, par.Failures)
	}
	_ = A2Table(rows, 30).String()
}

func TestA3FasterTokenMoreSwitches(t *testing.T) {
	rows, err := A3TokenInterval([]time.Duration{2 * time.Millisecond, 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].SwitchesPS <= rows[1].SwitchesPS {
		t.Fatalf("faster token did not cost more switches: %v vs %v",
			rows[0].SwitchesPS, rows[1].SwitchesPS)
	}
	if rows[0].RoundTripMs >= rows[1].RoundTripMs {
		t.Fatalf("round trip not ordered by hold interval: %+v", rows)
	}
	_ = A3Table(rows).String()
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"x", "y"}, {"wider-cell", "z"}},
		Notes:   []string{"n1"},
	}
	out := tab.String()
	for _, want := range []string{"T\n", "long-column", "wider-cell", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, separator, 2 rows, note
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
}
