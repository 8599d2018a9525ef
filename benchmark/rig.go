package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	raincore "repro"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The common rig, stated once (README "Rig"): 3 members x 2 shards opened
// through raincore.Open; FastRing timers with TokenHold 4 ms and MaxBatch
// 8; default transport with AckTimeout 10 ms; write batching at the
// library default (linger 0); file WAL, fsync_mode=batch, snapshot every
// 4 MiB; 2 s deadline on every op. The network is simnet at 100 us one
// way, seeded by the workload seed, or real UDP loopback sockets.
const (
	rigMembers    = 3
	rigShards     = 2
	rigTokenHold  = 4 * time.Millisecond
	rigMaxBatch   = 8
	rigAckTimeout = 10 * time.Millisecond
	rigLatency    = 100 * time.Microsecond
	rigSnapEvery  = 4 << 20
	opDeadline    = 2 * time.Second
	valueBytes    = 64
)

type rigConfig struct {
	members int
	udp     bool
	seed    int64
	dir     string  // WAL root; one sub-directory per member
	tr      *tracer // nil in the untraced pass: no wrapper is installed
}

// member is one opened cluster handle and the registry it records into.
type member struct {
	cl  *raincore.Cluster
	reg *stats.Registry
}

type rig struct {
	cfg   rigConfig
	net   *simnet.Network // nil over UDP
	ids   []raincore.NodeID
	addrs map[raincore.NodeID]raincore.Addr

	mu    sync.RWMutex
	live  map[raincore.NodeID]*member
	tombs []*member // crashed incarnations, closed with the rig
	all   []*member // every incarnation ever opened; registries outlive close
}

// openRig opens every member and waits until each sees the full group.
func openRig(ctx context.Context, cfg rigConfig) (*rig, error) {
	g := &rig{
		cfg:   cfg,
		addrs: make(map[raincore.NodeID]raincore.Addr),
		live:  make(map[raincore.NodeID]*member),
	}
	for i := 1; i <= cfg.members; i++ {
		g.ids = append(g.ids, raincore.NodeID(i))
	}
	conns := make(map[raincore.NodeID]raincore.PacketConn)
	if cfg.udp {
		for _, id := range g.ids {
			c, err := raincore.ListenUDP("127.0.0.1:0")
			if err != nil {
				for _, open := range conns {
					_ = open.Close()
				}
				return nil, fmt.Errorf("listen udp for member %d: %w", id, err)
			}
			conns[id], g.addrs[id] = c, c.LocalAddr()
		}
	} else {
		g.net = simnet.New(simnet.Options{Default: simnet.Profile{Latency: rigLatency}, Seed: cfg.seed})
		for _, id := range g.ids {
			g.addrs[id] = transport.Addr(core.Addr(id))
		}
	}
	for _, id := range g.ids {
		if err := g.openMember(ctx, id, conns[id]); err != nil {
			for _, rest := range g.ids {
				if c := conns[rest]; c != nil && g.live[rest] == nil {
					_ = c.Close()
				}
			}
			g.close()
			return nil, err
		}
	}
	for _, id := range g.ids {
		if err := g.live[id].cl.WaitMembers(ctx, cfg.members); err != nil {
			g.close()
			return nil, fmt.Errorf("assemble: %w", err)
		}
	}
	return g, nil
}

// openMember opens (or, after crash, reopens over its WAL directory) one
// member. conn is nil on simnet: the member gets a fresh endpoint.
func (g *rig) openMember(ctx context.Context, id raincore.NodeID, conn raincore.PacketConn) error {
	if conn == nil {
		ep, err := g.net.Endpoint(core.Addr(id))
		if err != nil {
			return fmt.Errorf("member %d endpoint: %w", id, err)
		}
		conn = transport.NewSimConn(ep)
	}
	rc := core.FastRing()
	rc.TokenHold = rigTokenHold
	rc.MaxBatch = rigMaxBatch
	rc.Eligible = g.ids
	tc := transport.DefaultConfig()
	tc.AckTimeout = rigAckTimeout
	reg := stats.NewRegistry()
	dir := filepath.Join(g.cfg.dir, fmt.Sprintf("n%d", id))
	opts := []raincore.Option{
		raincore.WithID(id),
		raincore.WithRings(rigShards),
		raincore.WithRingConfig(rc),
		raincore.WithTransportConfig(tc),
		raincore.WithStats(reg),
	}
	if tr := g.cfg.tr; tr != nil {
		files, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncBatch, Stats: reg})
		if err != nil {
			_ = conn.Close()
			return fmt.Errorf("member %d wal: %w", id, err)
		}
		conn = &tracedConn{PacketConn: conn, tr: tr}
		opts = append(opts,
			raincore.WithStorageBackend(&tracedStorage{Backend: files, tr: tr}),
			raincore.WithSnapshotEvery(rigSnapEvery))
	} else {
		opts = append(opts,
			raincore.WithStorage(dir),
			raincore.WithFsyncMode("batch"),
			raincore.WithSnapshotEvery(rigSnapEvery))
	}
	for _, other := range g.ids {
		if other != id {
			opts = append(opts, raincore.WithPeer(other, g.addrs[other]))
		}
	}
	cl, err := raincore.Open(ctx, []raincore.PacketConn{conn}, opts...)
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("open member %d: %w", id, err)
	}
	if tr := g.cfg.tr; tr != nil {
		tr.observe(int(id), cl)
	}
	m := &member{cl: cl, reg: reg}
	g.mu.Lock()
	g.live[id] = m
	g.all = append(g.all, m)
	g.mu.Unlock()
	return nil
}

func (g *rig) member(id raincore.NodeID) *member {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.live[id]
}

func (g *rig) cluster(id raincore.NodeID) *raincore.Cluster { return g.member(id).cl }

// members returns the live members in ID order.
func (g *rig) members() []*member {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*member
	for _, id := range g.ids {
		if m := g.live[id]; m != nil {
			out = append(out, m)
		}
	}
	return out
}

// crash kills a member the way E10 does: silenced on the switch, runtime
// reaped, no leave, WAL directory left behind like a disk. The dead
// incarnation's storage handle is only closed with the rig, after every
// live one, so it can never flush into files its successor owns.
func (g *rig) crash(id raincore.NodeID) {
	g.mu.Lock()
	m := g.live[id]
	delete(g.live, id)
	g.tombs = append(g.tombs, m)
	g.mu.Unlock()
	g.net.SetNodeDown(core.Addr(id), true)
	_ = m.cl.Runtime().Close()
}

// reopen restarts a crashed member over its WAL directory.
func (g *rig) reopen(ctx context.Context, id raincore.NodeID) error {
	g.net.SetNodeDown(core.Addr(id), false)
	return g.openMember(ctx, id, nil)
}

func (g *rig) close() {
	g.mu.Lock()
	live, tombs := g.live, g.tombs
	g.live, g.tombs = map[raincore.NodeID]*member{}, nil
	g.mu.Unlock()
	for _, m := range live {
		_ = m.cl.Close()
	}
	for _, m := range tombs {
		_ = m.cl.Close()
	}
	if g.net != nil {
		g.net.Close()
	}
}

// preload writes version 1 of every key of t through member 1, `callers`
// at a time so the coalescer carries the load in few token rotations.
func (g *rig) preload(ctx context.Context, t *keyTable, callers int) error {
	cl := g.cluster(1)
	errc := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(t.names); i += callers {
				v := t.nextVersion(int32(i))
				octx, cancel := context.WithTimeout(ctx, 10*time.Second)
				err := cl.Set(octx, t.names[i], encodeValue(t.names[i], 0, v, 0, valueBytes))
				cancel()
				if err != nil {
					errc <- fmt.Errorf("preload %s: %w", t.names[i], err)
					return
				}
				t.settle(int32(i), v, false, true)
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}
