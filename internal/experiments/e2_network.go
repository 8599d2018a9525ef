package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// E2Row is one protocol/size measurement of the §4.1 network overhead
// analysis: each of N nodes multicasts one message of MsgBytes; the paper
// predicts ~N(N-1) data packets of M bytes for unicast-emulated broadcast
// (doubled by acknowledgements) versus N token-carried packets of ~N*M
// bytes for Raincore.
type E2Row struct {
	Protocol  string
	N         int
	MsgBytes  int
	Packets   int64
	Bytes     int64
	Predicted string
}

// E2Config sizes the experiment.
type E2Config struct {
	Ns       []int
	MsgBytes int
}

// DefaultE2 uses the message size class of cluster state updates.
func DefaultE2() E2Config { return E2Config{Ns: []int{2, 4, 8}, MsgBytes: 256} }

// E2NetworkOverhead measures wire packets and bytes for one all-to-all
// exchange round under both protocols.
func E2NetworkOverhead(cfg E2Config) ([]E2Row, error) {
	var rows []E2Row
	for _, n := range cfg.Ns {
		r, err := e2Raincore(n, cfg.MsgBytes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
		rows = append(rows, e2Broadcast(n, cfg.MsgBytes))
	}
	return rows, nil
}

// e2Raincore submits one message per node and counts the wire traffic
// from the first submit to the last delivery. Every packet in that window
// is a token hop (or its acknowledgement) that carried the exchange, so
// the count needs no idle correction.
func e2Raincore(n, msgBytes int) (E2Row, error) {
	ring := core.FastRing()
	ring.TokenHold = 2 * time.Millisecond
	tc, err := core.NewTestCluster(core.ClusterOptions{N: n, Ring: ring})
	if err != nil {
		return E2Row{}, err
	}
	defer tc.Close()
	if err := tc.WaitAssembled(15 * time.Second); err != nil {
		return E2Row{}, err
	}
	var mu sync.Mutex
	got := make(map[core.NodeID]int)
	delivered := 0
	var endPkts, endBytes int64
	done := make(chan struct{})
	for _, id := range tc.IDs {
		id := id
		tc.Nodes[id].SetHandlers(core.Handlers{OnDeliver: func(core.Delivery) {
			mu.Lock()
			defer mu.Unlock()
			got[id]++
			if delivered++; delivered == n*n {
				// The last delivery: read the counters here, on the
				// delivering node's loop, before any later token hop.
				endPkts, endBytes = sumWire(tc)
				close(done)
			}
		}})
	}
	startPkts, startBytes := sumWire(tc)
	for _, id := range tc.IDs {
		if err := tc.Nodes[id].Multicast(make([]byte, msgBytes)); err != nil {
			return E2Row{}, err
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return E2Row{}, fmt.Errorf("E2: exchange did not complete")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range tc.IDs {
		if got[id] != n {
			return E2Row{}, fmt.Errorf("E2: node %v delivered %d messages, want %d", id, got[id], n)
		}
	}
	return E2Row{
		Protocol: "raincore-token",
		N:        n,
		MsgBytes: msgBytes,
		Packets:  endPkts - startPkts,
		Bytes:    endBytes - startBytes,
		Predicted: fmt.Sprintf("~N packets of ~N*M bytes = %d pkts, %d B payload",
			n, n*n*msgBytes),
	}, nil
}

func sumWire(tc *core.TestCluster) (int64, int64) {
	var pkts, bytes int64
	for _, id := range tc.IDs {
		reg := tc.Nodes[id].Stats()
		pkts += reg.Counter(stats.MetricPacketsSent).Load()
		bytes += reg.Counter(stats.MetricBytesSent).Load()
	}
	return pkts, bytes
}

func e2Broadcast(n, msgBytes int) E2Row {
	net := simnet.New(simnet.Options{Seed: 7})
	defer net.Close()
	tcfg := transport.DefaultConfig()
	tcfg.AckTimeout = 50 * time.Millisecond
	var nodes []*broadcast.Node
	var trs []*transport.Transport
	var mu sync.Mutex
	got := make([]int, n)
	done := make(chan struct{})
	for i := 1; i <= n; i++ {
		tr := transport.New(wire.NodeID(i),
			[]transport.PacketConn{transport.NewSimConn(net.MustEndpoint(simnet.Addr(fmt.Sprintf("b%d", i))))},
			nil, stats.NewRegistry(), tcfg)
		trs = append(trs, tr)
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for i, tr := range trs {
		var peers []wire.NodeID
		for j := 1; j <= n; j++ {
			if j != i+1 {
				tr.SetPeer(wire.NodeID(j), []transport.Addr{transport.Addr(fmt.Sprintf("b%d", j))})
				peers = append(peers, wire.NodeID(j))
			}
		}
		bn := broadcast.New(tr, peers, broadcast.Unordered, tr.Stats())
		idx := i
		bn.SetHandler(func(broadcast.Delivery) {
			mu.Lock()
			got[idx]++
			all := true
			for _, g := range got {
				if g < n {
					all = false
				}
			}
			mu.Unlock()
			if all {
				select {
				case <-done:
				default:
					close(done)
				}
			}
		})
		nodes = append(nodes, bn)
	}
	for _, bn := range nodes {
		_ = bn.Multicast(make([]byte, msgBytes))
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
	}
	// Give trailing acks a moment to be counted.
	time.Sleep(50 * time.Millisecond)
	var pkts, bytes int64
	for _, tr := range trs {
		pkts += tr.Stats().Counter(stats.MetricPacketsSent).Load()
		bytes += tr.Stats().Counter(stats.MetricBytesSent).Load()
	}
	return E2Row{
		Protocol: "broadcast-unicast-fanout",
		N:        n,
		MsgBytes: msgBytes,
		Packets:  pkts,
		Bytes:    bytes,
		Predicted: fmt.Sprintf("~N*(N-1) data pkts of M bytes, x2 with acks = %d pkts, %d B payload",
			2*n*(n-1), n*(n-1)*msgBytes),
	}
}

// E2Table renders E2 rows.
func E2Table(rows []E2Row, cfg E2Config) *Table {
	t := &Table{
		Title:   "E2 (§4.1): network overhead of one all-to-all exchange (every node multicasts one message)",
		Columns: []string{"protocol", "N", "msg bytes", "packets", "bytes on wire", "paper prediction"},
		Notes: []string{
			"raincore numbers count every packet from the first submit to the last delivery, acks included; bytes include frame headers",
			"the token aggregates all N messages into N larger packets; broadcast sends N*(N-1) small ones plus acks",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Protocol, fmt.Sprint(r.N), fmt.Sprint(r.MsgBytes),
			fmt.Sprint(r.Packets), fmt.Sprint(r.Bytes), r.Predicted,
		})
	}
	return t
}
