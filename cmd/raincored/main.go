// raincored runs one Raincore node over real UDP in either deployment
// mode. A member is a cluster peer of §2.1: start several instances
// with mutual peer lists and they assemble into one group via the
// discovery protocol, share multicast state, and survive member
// failures. A gateway is a member that additionally serves the
// HTTP/JSON access tier for fleets of external clients — request
// coalescing, per-request deadlines, Prometheus /metrics — on top of
// its own replica.
//
// Example (three members on loopback):
//
//	raincored -id 1 -listen 127.0.0.1:7001 -peer 2=127.0.0.1:7002 -peer 3=127.0.0.1:7003 &
//	raincored -id 2 -listen 127.0.0.1:7002 -peer 1=127.0.0.1:7001 -peer 3=127.0.0.1:7003 &
//	raincored -id 3 -listen 127.0.0.1:7003 -peer 1=127.0.0.1:7001 -peer 2=127.0.0.1:7002 &
//
// Adding a gateway in front (it joins the core as node 4, then serves
// HTTP):
//
//	raincored -id 4 -listen 127.0.0.1:7004 -peer 1=127.0.0.1:7001 \
//	          -mode gateway -gateway 127.0.0.1:8080
//	curl http://127.0.0.1:8080/kv/greeting
//
// Configuration may also come from a JSON file (-config PATH); the
// precedence is flags > file > defaults — an explicitly set flag
// overrides the file, an untouched one never shadows it. See
// internal/config for the document shape.
//
// Each node multicasts a heartbeat at -announce intervals and logs every
// delivery, membership change and system event. SIGINT leaves gracefully.
//
// The daemon is one raincore.Open call: the sharded runtime, the
// distributed data service and the transaction coordinator come up
// together, and with -admin ADDR the facade serves its HTTP admin
// surface for elastic resharding, health and observability:
//
//	GET  /health       full health view (rings, routing epoch, demux drops)
//	GET  /routing      the epoch-versioned routing table
//	GET  /stats        metric registry snapshot (JSON)
//	GET  /metrics      the same snapshot as Prometheus text exposition
//	GET  /snapshot     consistent cross-shard snapshot of the keyspace
//	                   (values are base64 in the JSON)
//	POST /rings/add    grow by one ring (call on every node; the lowest
//	                   member coordinates the keyspace handoff)
//	POST /rings/remove?ring=N  shrink, handing ring N's slice back
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/gateway"
	"repro/internal/stats"
)

// peerList implements flag.Value for repeated -peer id=addr[,addr...] flags.
type peerList map[raincore.NodeID][]raincore.Addr

func (p peerList) String() string { return fmt.Sprint(map[raincore.NodeID][]raincore.Addr(p)) }

func (p peerList) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want id=addr[,addr...], got %q", v)
	}
	id, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return fmt.Errorf("bad node id %q: %v", parts[0], err)
	}
	var addrs []raincore.Addr
	for _, a := range strings.Split(parts[1], ",") {
		addrs = append(addrs, raincore.Addr(strings.TrimSpace(a)))
	}
	p[raincore.NodeID(id)] = addrs
	return nil
}

// splitList turns a comma-separated flag into a trimmed address list.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(a))
	}
	return out
}

// resolveConfig implements the flags > file > defaults precedence: the
// file (if any) overlays config.Default, then every flag the command
// line explicitly set overrides the result. Flags never touched keep
// the file's (or default's) value — flag.Visit walks only the set ones.
func resolveConfig(fs *flag.FlagSet, cfgPath string, peers peerList) (config.Config, error) {
	cfg := config.Default()
	if cfgPath != "" {
		var err error
		if cfg, err = config.Load(cfgPath); err != nil {
			return cfg, err
		}
	}
	var visitErr error
	fs.Visit(func(f *flag.Flag) {
		get := func() string { return f.Value.String() }
		atoi := func() int {
			n, err := strconv.Atoi(get())
			if err != nil && visitErr == nil {
				visitErr = fmt.Errorf("-%s: %v", f.Name, err)
			}
			return n
		}
		ms := func() int {
			d, err := time.ParseDuration(get())
			if err != nil && visitErr == nil {
				visitErr = fmt.Errorf("-%s: %v", f.Name, err)
			}
			return int(d.Milliseconds())
		}
		switch f.Name {
		case "id":
			cfg.Node.ID = uint32(atoi())
		case "listen":
			cfg.Node.Listen = splitList(get())
		case "rings":
			cfg.Node.Rings = atoi()
		case "token-hold":
			cfg.Node.TokenHoldMS = atoi()
		case "hungry":
			cfg.Node.HungryMS = atoi()
		case "bodyodor":
			cfg.Node.BodyodorMS = atoi()
		case "quorum":
			cfg.Node.Quorum = atoi()
		case "announce":
			cfg.Node.AnnounceMS = ms()
		case "stats":
			cfg.Node.StatsMS = ms()
		case "admin":
			cfg.Node.Admin = get()
		case "wal-dir":
			cfg.Node.WalDir = get()
		case "fsync-mode":
			cfg.Node.FsyncMode = get()
		case "snapshot-every":
			n, err := strconv.ParseInt(get(), 10, 64)
			if err != nil && visitErr == nil {
				visitErr = fmt.Errorf("-%s: %v", f.Name, err)
			}
			cfg.Node.SnapshotEveryBytes = n
		case "mode":
			cfg.Mode = get()
		case "gateway":
			cfg.Gateway.Listen = get()
		}
	})
	if visitErr != nil {
		return cfg, visitErr
	}
	// -peer flags merge over (and per-ID override) the file's peer set.
	for pid, addrs := range peers {
		if cfg.Node.Peers == nil {
			cfg.Node.Peers = make(map[string][]string)
		}
		var as []string
		for _, a := range addrs {
			as = append(as, string(a))
		}
		cfg.Node.Peers[strconv.FormatUint(uint64(pid), 10)] = as
	}
	return cfg, cfg.Validate()
}

// defaultReadOptions maps the configured gateway read mode onto the
// facade's cluster-wide default (WithDefaultReadOptions), so bare Gets
// made on this member — the gateway's own upstream reads included —
// serve that consistency without per-call plumbing.
func defaultReadOptions(g config.Gateway) []raincore.ReadOption {
	switch g.ReadMode {
	case "bounded":
		return []raincore.ReadOption{raincore.WithMaxStaleness(g.MaxStaleness())}
	case "linearizable":
		return []raincore.ReadOption{raincore.WithLinearizable()}
	case "lease":
		return []raincore.ReadOption{raincore.WithReadLease(g.Lease())}
	default: // "eventual": the allocation-free fast path needs no option
		return nil
	}
}

func main() {
	// Every knob but -config and -peer flows through resolveConfig's
	// flag.Visit pass, so only the two specials keep named variables. The
	// flag defaults mirror config.Default — an untouched flag is never
	// visited, so the file's value (or the default) stands.
	cfgPath := flag.String("config", "", "JSON configuration file; explicitly set flags override it")
	peers := peerList{}
	flag.String("mode", config.ModeMember, "deployment mode: member, or gateway (HTTP access tier in front of the core)")
	flag.String("gateway", "", "gateway HTTP listen address (gateway mode)")
	flag.Uint("id", 0, "this node's ID (required, non-zero)")
	flag.String("listen", "127.0.0.1:0", "UDP listen address; repeatable via commas for redundant links")
	flag.Int("rings", 1, "initial token rings sharded over this node (one shared transport)")
	flag.Int("token-hold", 100, "token hold interval in milliseconds")
	flag.Int("hungry", 500, "hungry timeout in milliseconds")
	flag.Int("bodyodor", 1000, "discovery beacon interval in milliseconds")
	flag.Int("quorum", 0, "minimum membership before self-shutdown (0 disables)")
	flag.Duration("announce", 2*time.Second, "heartbeat multicast interval (0 disables)")
	flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	flag.String("admin", "", "HTTP admin address for health and grow/shrink (empty disables)")
	flag.String("wal-dir", "", "directory for per-ring write-ahead logs and snapshots (empty disables durability)")
	flag.String("fsync-mode", "batch", "WAL durability point: always, batch or none")
	flag.Int64("snapshot-every", 4<<20, "compact a ring's WAL into a snapshot past this many bytes")
	flag.Var(peers, "peer", "peer as id=addr[,addr...]; repeat per peer")
	flag.Parse()

	cfg, err := resolveConfig(flag.CommandLine, *cfgPath, peers)
	if err != nil {
		log.Fatalf("raincored: %v", err)
	}
	if cfg.Node.ID == 0 {
		log.Fatal("raincored: a non-zero node ID is required (-id or node.id)")
	}

	logger := log.New(os.Stdout, fmt.Sprintf("[n%d] ", cfg.Node.ID), log.Ltime|log.Lmicroseconds)

	var conns []raincore.PacketConn
	for _, addr := range cfg.Node.Listen {
		c, err := raincore.ListenUDP(addr)
		if err != nil {
			log.Fatalf("raincored: listen %s: %v", addr, err)
		}
		logger.Printf("listening on %s", c.LocalAddr())
		conns = append(conns, c)
	}

	ring := raincore.RingConfig{
		TokenHold:        time.Duration(cfg.Node.TokenHoldMS) * time.Millisecond,
		HungryTimeout:    time.Duration(cfg.Node.HungryMS) * time.Millisecond,
		BodyodorInterval: time.Duration(cfg.Node.BodyodorMS) * time.Millisecond,
		MinQuorum:        cfg.Node.Quorum,
	}

	// A node with a dead ring serves only part of the keyspace and the
	// runtime cannot restart single rings, so the daemon fails fast:
	// ringDown (first unexpected shutdown) exits the process for the
	// supervisor to restart it whole. A ring retired by an admin shrink
	// also announces a shutdown, but its ring has already left the
	// routing table — that one is deliberate and does not exit.
	ringDown := make(chan struct{})
	var firstDown sync.Once
	// The handler closures run on ring goroutines that start inside Open,
	// before main's cluster variable is assigned — an atomic pointer keeps
	// that window race-free (an early shutdown just exits fail-fast).
	var clP atomic.Pointer[raincore.Cluster]
	mkHandlers := func(r raincore.RingID) raincore.Handlers {
		return raincore.Handlers{
			OnDeliver: func(d raincore.Delivery) {
				logger.Printf("[%v] deliver from %v seq=%d safe=%v: %q", r, d.Origin, d.Seq, d.Safe, d.Payload)
			},
			OnMembership: func(e raincore.MembershipEvent) {
				logger.Printf("[%v] membership -> %v (epoch %d)", r, e.Members, e.Epoch)
			},
			OnSys: func(e raincore.SysEvent) {
				logger.Printf("[%v] sys %v subject=%v origin=%v", r, e.Kind, e.Subject, e.Origin)
			},
			OnShutdown: func(reason string) {
				if cl := clP.Load(); cl != nil && !cl.Routing().Has(r) {
					logger.Printf("[%v] retired: %s", r, reason)
					return
				}
				logger.Printf("[%v] shutdown: %s", r, reason)
				firstDown.Do(func() { close(ringDown) })
			},
		}
	}

	opts := []raincore.Option{
		raincore.WithID(raincore.NodeID(cfg.Node.ID)),
		raincore.WithRings(cfg.Node.Rings),
		raincore.WithRingConfig(ring),
		raincore.WithHandlers(mkHandlers),
	}
	eligible := []raincore.NodeID{raincore.NodeID(cfg.Node.ID)}
	for id, addrs := range cfg.Node.Peers {
		n, _ := strconv.ParseUint(id, 10, 32)
		var as []raincore.Addr
		for _, a := range addrs {
			as = append(as, raincore.Addr(a))
		}
		opts = append(opts, raincore.WithPeer(raincore.NodeID(n), as...))
		eligible = append(eligible, raincore.NodeID(n))
	}
	if cfg.Node.Admin != "" {
		opts = append(opts, raincore.WithAdmin(cfg.Node.Admin))
	}
	if cfg.Node.WalDir != "" {
		opts = append(opts,
			raincore.WithStorage(cfg.Node.WalDir),
			raincore.WithFsyncMode(cfg.Node.FsyncMode),
			raincore.WithSnapshotEvery(cfg.Node.SnapshotEveryBytes))
		logger.Printf("durability on: wal_dir=%s fsync=%s snapshot_every=%d",
			cfg.Node.WalDir, cfg.Node.FsyncMode, cfg.Node.SnapshotEveryBytes)
	}
	if cfg.Mode == config.ModeGateway {
		if ro := defaultReadOptions(cfg.Gateway); ro != nil {
			opts = append(opts, raincore.WithDefaultReadOptions(ro...))
		}
	}
	cl, err := raincore.Open(context.Background(), conns, opts...)
	if err != nil {
		log.Fatalf("raincored: %v", err)
	}
	clP.Store(cl)
	cl.RoutingWatch(func(v raincore.RoutingView) {
		logger.Printf("routing -> %v", v)
	})
	slices.Sort(eligible)
	logger.Printf("cluster open: %d ring(s), sharded dds, txn coordinator; eligible membership %v",
		len(cl.Routing().Rings), eligible)
	if a := cl.AdminAddr(); a != "" {
		logger.Printf("admin surface on http://%s (GET /health /routing /stats /metrics /snapshot, POST /rings/add /rings/remove?ring=N)", a)
	}

	// Gateway mode: the HTTP access tier over this member's own cluster
	// handle, recording into the same registry the admin surface serves
	// (one /metrics page carries core and gateway families alike).
	var gw *gateway.Gateway
	if cfg.Mode == config.ModeGateway {
		gw, err = gateway.New(gateway.Options{
			Backend: cl,
			Txn: func(ctx context.Context, req gateway.TxnRequest) (map[string][]byte, error) {
				tx := cl.Txn()
				for _, k := range req.Reads {
					tx.Read(k)
				}
				for k, v := range req.Sets {
					tx.Set(k, v)
				}
				for _, k := range req.Deletes {
					tx.Delete(k)
				}
				return tx.Commit(ctx)
			},
			Registry:       cl.Stats(),
			DefaultTimeout: cfg.Gateway.DefaultTimeout(),
			MaxTimeout:     cfg.Gateway.MaxTimeout(),
			CacheTTL:       cfg.Gateway.CacheTTL(),
			ReadMode:       cfg.Gateway.ReadMode,
			MaxStaleness:   cfg.Gateway.MaxStaleness(),
			Lease:          cfg.Gateway.Lease(),
			MaxInflight:    cfg.Gateway.MaxInflight,
		})
		if err != nil {
			log.Fatalf("raincored: %v", err)
		}
		// Ordered-apply eviction: a write committed through ANY member
		// evicts this gateway's micro-cache entry the moment it applies on
		// the member behind it, so cache_ttl_ms is a latency knob, not a
		// staleness bound.
		gwRef := gw
		cl.OnApply(func(e raincore.ApplyEvent) {
			for _, k := range e.Keys {
				gwRef.Invalidate(k)
			}
		})
		// Batch-size observability: every coalesced frame flushed by this
		// member's shards lands in gateway_write_batch_size.
		cl.DDS().OnWriteBatch(gwRef.ObserveWriteBatch)
		addr, err := gw.Start(cfg.Gateway.Listen)
		if err != nil {
			log.Fatalf("raincored: %v", err)
		}
		logger.Printf("gateway on http://%s (GET/PUT/DELETE /kv/{key}, POST /txn, GET /healthz /metrics; read_mode=%s)",
			addr, cfg.Gateway.ReadMode)
	}

	if d := time.Duration(cfg.Node.AnnounceMS) * time.Millisecond; d > 0 {
		go func() {
			tick := time.NewTicker(d)
			defer tick.Stop()
			n := 0
			for range tick.C {
				n++
				// Round-robin heartbeats across the active rings of the
				// current routing epoch. A stopped ring must not silence
				// the survivors, so errors skip to the next tick.
				view := cl.Routing()
				if len(view.Rings) == 0 {
					continue
				}
				r := view.Rings[n%len(view.Rings)]
				_ = cl.Multicast(r, []byte(fmt.Sprintf("heartbeat %d from n%d", n, cfg.Node.ID)))
			}
		}()
	}
	if d := time.Duration(cfg.Node.StatsMS) * time.Millisecond; d > 0 {
		go func() {
			tick := time.NewTicker(d)
			defer tick.Stop()
			for range tick.C {
				reg := cl.Stats()
				h := cl.Health()
				logger.Printf("stats: epoch=%d rings=%d passes=%d switches=%d sent=%d recv=%d regens=%d merges=%d demux_drops=%d retries=%d healthy=%v",
					h.Routing.Epoch,
					len(h.Routing.Rings),
					reg.Counter(stats.MetricTokenPasses).Load(),
					reg.Counter(stats.MetricTaskSwitches).Load(),
					reg.Counter(stats.MetricPacketsSent).Load(),
					reg.Counter(stats.MetricPacketsRecv).Load(),
					reg.Counter(stats.MetricTokenRegens).Load(),
					reg.Counter(stats.MetricMerges).Load(),
					h.DemuxDrops,
					reg.Counter(stats.MetricClusterRetries).Load(),
					cl.Healthy())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		logger.Printf("interrupt: leaving the group")
		if gw != nil {
			_ = gw.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		_ = cl.Leave(ctx)
		cancel()
	case <-ringDown:
		logger.Printf("a ring shut down; exiting so the supervisor restarts the whole node")
		if gw != nil {
			_ = gw.Close()
		}
		_ = cl.Close()
	}
	logger.Printf("bye")
}
