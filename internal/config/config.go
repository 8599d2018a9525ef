// Package config is raincored's file-based configuration: one JSON
// document describing a node in either deployment mode — an ordered-core
// member, or a gateway fronting the core with the HTTP/JSON access tier.
//
// Precedence is flags > file > defaults: Default() supplies every
// default, Load overlays a file on top of it (absent fields keep their
// defaults), and the daemon applies explicitly-set command-line flags
// last (via flag.Visit, so an untouched flag never shadows the file).
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Mode names the two deployment shapes of raincored.
const (
	// ModeMember is an ordered-core cluster member: rings, replicas,
	// transaction coordinator, optional admin surface.
	ModeMember = "member"
	// ModeGateway is a member that additionally serves the stateless
	// HTTP/JSON access tier (request coalescing, /metrics, /healthz) for
	// fleets of external clients.
	ModeGateway = "gateway"
)

// Config is the full raincored configuration document.
type Config struct {
	// Mode selects the deployment shape: "member" (default) or
	// "gateway".
	Mode string `json:"mode"`
	// Node configures cluster membership (both modes join the core).
	Node Node `json:"node"`
	// Gateway configures the access tier; consulted only in gateway
	// mode.
	Gateway Gateway `json:"gateway"`
}

// Node mirrors raincored's member flags.
type Node struct {
	// ID is this node's non-zero cluster identity.
	ID uint32 `json:"id"`
	// Listen lists the UDP listen addresses (redundant links).
	Listen []string `json:"listen"`
	// Peers maps peer node IDs (decimal strings, JSON keys) to their
	// address lists.
	Peers map[string][]string `json:"peers"`
	// Rings is the initial shard count.
	Rings int `json:"rings"`
	// TokenHoldMS, HungryMS and BodyodorMS are the ring protocol timers
	// in milliseconds.
	TokenHoldMS int `json:"token_hold_ms"`
	HungryMS    int `json:"hungry_ms"`
	BodyodorMS  int `json:"bodyodor_ms"`
	// Quorum is the minimum membership before self-shutdown (0 off).
	Quorum int `json:"quorum"`
	// AnnounceMS is the heartbeat multicast interval (0 disables).
	AnnounceMS int `json:"announce_ms"`
	// StatsMS is the stats log interval (0 disables).
	StatsMS int `json:"stats_ms"`
	// Admin is the admin HTTP address (empty disables).
	Admin string `json:"admin"`
	// WalDir enables the durability subsystem — per-ring write-ahead
	// logs, snapshot compaction and crash-restart recovery — under this
	// directory (empty disables).
	WalDir string `json:"wal_dir"`
	// FsyncMode selects the WAL durability point: "always" fsyncs every
	// append, "batch" (default) fsyncs on a short timer, "none" leaves
	// flushing to the OS.
	FsyncMode string `json:"fsync_mode"`
	// SnapshotEveryBytes compacts a ring's WAL into a snapshot once the
	// log exceeds this size (default 4 MiB).
	SnapshotEveryBytes int64 `json:"snapshot_every_bytes"`
}

// Gateway configures the HTTP/JSON access tier.
type Gateway struct {
	// Listen is the gateway's HTTP address (required in gateway mode).
	Listen string `json:"listen"`
	// DefaultTimeoutMS bounds each request when no ?timeout= is given.
	DefaultTimeoutMS int `json:"default_timeout_ms"`
	// MaxTimeoutMS caps a client's ?timeout= request (0 = no cap).
	MaxTimeoutMS int `json:"max_timeout_ms"`
	// CacheTTLMS is the optional per-entry read micro-cache TTL in
	// milliseconds (0 disables the cache).
	CacheTTLMS int `json:"cache_ttl_ms"`
	// ReadMode is the default read consistency served when a request
	// names none: "eventual", "bounded", "linearizable" or "lease".
	ReadMode string `json:"read_mode"`
	// MaxStalenessMS parameterizes the bounded mode.
	MaxStalenessMS int `json:"max_staleness_ms"`
	// LeaseMS parameterizes the lease mode.
	LeaseMS int `json:"lease_ms"`
	// MaxInflight sheds load with 429 once this many requests are in
	// flight (0 = unlimited).
	MaxInflight int `json:"max_inflight"`
}

// Default returns the full default configuration — the values raincored
// runs with when neither file nor flags say otherwise. The member
// defaults match the historical flag defaults.
func Default() Config {
	return Config{
		Mode: ModeMember,
		Node: Node{
			Listen:             []string{"127.0.0.1:0"},
			Rings:              1,
			TokenHoldMS:        100,
			HungryMS:           500,
			BodyodorMS:         1000,
			AnnounceMS:         2000,
			StatsMS:            10000,
			FsyncMode:          "batch",
			SnapshotEveryBytes: 4 << 20,
		},
		Gateway: Gateway{
			DefaultTimeoutMS: 2000,
			MaxTimeoutMS:     30000,
			ReadMode:         "eventual",
			MaxStalenessMS:   50,
			LeaseMS:          100,
		},
	}
}

// Load reads the JSON document at path over the defaults: fields the
// file does not mention keep their Default() values. Unknown fields are
// rejected — a typo'd knob must not silently fall back to a default.
func Load(path string) (Config, error) {
	cfg := Default()
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, fmt.Errorf("config: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("config %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("config %s: %w", path, err)
	}
	return cfg, nil
}

// Validate rejects configurations the daemon could not act on.
func (c Config) Validate() error {
	switch c.Mode {
	case ModeMember, ModeGateway:
	default:
		return fmt.Errorf("mode %q: want %q or %q", c.Mode, ModeMember, ModeGateway)
	}
	if c.Mode == ModeGateway && c.Gateway.Listen == "" {
		return fmt.Errorf("gateway mode needs gateway.listen")
	}
	switch c.Gateway.ReadMode {
	case "", "eventual", "bounded", "linearizable", "lease":
	default:
		return fmt.Errorf("gateway.read_mode %q: want eventual, bounded, linearizable or lease", c.Gateway.ReadMode)
	}
	if len(c.Node.Listen) == 0 {
		return fmt.Errorf("node.listen must name at least one address")
	}
	switch c.Node.FsyncMode {
	case "", "always", "batch", "none":
	default:
		return fmt.Errorf("node.fsync_mode %q: want always, batch or none", c.Node.FsyncMode)
	}
	for id := range c.Node.Peers {
		var n uint32
		if _, err := fmt.Sscanf(id, "%d", &n); err != nil || n == 0 {
			return fmt.Errorf("node.peers key %q: want a non-zero decimal node ID", id)
		}
	}
	return nil
}

// DefaultTimeout returns the gateway's default per-request deadline.
func (g Gateway) DefaultTimeout() time.Duration {
	return time.Duration(g.DefaultTimeoutMS) * time.Millisecond
}

// MaxTimeout returns the cap on client-requested deadlines.
func (g Gateway) MaxTimeout() time.Duration {
	return time.Duration(g.MaxTimeoutMS) * time.Millisecond
}

// CacheTTL returns the micro-cache TTL (0 = disabled).
func (g Gateway) CacheTTL() time.Duration {
	return time.Duration(g.CacheTTLMS) * time.Millisecond
}

// MaxStaleness returns the bounded-mode staleness bound.
func (g Gateway) MaxStaleness() time.Duration {
	return time.Duration(g.MaxStalenessMS) * time.Millisecond
}

// Lease returns the lease-mode window.
func (g Gateway) Lease() time.Duration {
	return time.Duration(g.LeaseMS) * time.Millisecond
}
