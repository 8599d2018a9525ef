package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	raincore "repro"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/stats"
)

// --- E9: gateway request coalescing under zipfian fan-in ---
//
// The gateway tier's claim is that fronting the ordered core with a
// coalescing HTTP layer converts N concurrent fetches of a hot key into
// one upstream read. E9 measures it end to end: a facade cluster on the
// simulated switch, a real gateway HTTP server in front of one member,
// and a fleet of closed-loop HTTP clients drawing keys from a zipfian
// distribution — the canonical hot-key workload. Every read mode runs
// twice, coalescing on and off, with the TTL micro-cache off in both so
// the comparison isolates the fan-in itself.
//
// The interesting regime is the fenced modes: a linearizable read costs
// an ordered no-op on the key's ring (milliseconds), so while one fence
// is in flight every concurrent fetch of that key can ride it — the
// upstream-read reduction approaches the per-key fan-in. Eventual reads
// complete in microseconds, leaving almost no window to share, and the
// measured reduction is correspondingly ~1x: coalescing is a fenced-read
// optimization, which is exactly why the gateway keys flights by
// key×mode instead of coalescing blindly.
//
// During each phase the run also scrapes /metrics from the loaded
// gateway and validates the Prometheus exposition — observability under
// load is part of the contract, not an afterthought.

// E9Config sizes the gateway coalescing experiment.
type E9Config struct {
	// Nodes and Shards size the backing cluster.
	Nodes  int
	Shards int
	// TokenHoldMS and MaxBatch size the rings' token (a fence waits for
	// one visit).
	TokenHoldMS int
	MaxBatch    int
	// Clients is the closed-loop concurrent HTTP client count (the
	// acceptance floor is 64).
	Clients int
	// Keys is the keyspace size; ZipfS the zipfian skew exponent (> 1;
	// higher concentrates traffic on fewer keys).
	Keys  int
	ZipfS float64
	// PayloadBytes sizes each preloaded value.
	PayloadBytes int
	// TimeoutMS is the per-request ?timeout= the clients send.
	TimeoutMS int
	// Warmup and Duration bound each mode×coalesce phase.
	Warmup   time.Duration
	Duration time.Duration
}

// DefaultE9 runs 96 clients over 256 zipfian keys against a 2-node,
// 2-shard cluster.
func DefaultE9() E9Config {
	return E9Config{
		Nodes:        2,
		Shards:       2,
		TokenHoldMS:  4,
		MaxBatch:     8,
		Clients:      96,
		Keys:         256,
		ZipfS:        2.2,
		PayloadBytes: 64,
		TimeoutMS:    10000,
		Warmup:       250 * time.Millisecond,
		Duration:     1000 * time.Millisecond,
	}
}

// QuickE9 is the CI size: still ≥ 64 concurrent clients (the point of
// the experiment is fan-in), shorter phases.
func QuickE9() E9Config {
	cfg := DefaultE9()
	cfg.Clients = 64
	cfg.Keys = 128
	cfg.Warmup = 120 * time.Millisecond
	cfg.Duration = 350 * time.Millisecond
	return cfg
}

// E9Side is one phase's measurement (a read mode with coalescing either
// on or off).
type E9Side struct {
	// Requests and ReqPS count completed client requests in the window.
	Requests int64   `json:"requests"`
	ReqPS    float64 `json:"requests_per_sec"`
	// Upstream counts reads that actually reached the cluster; Coalesced
	// counts requests served by fanning in on another's flight.
	Upstream  int64 `json:"upstream_reads"`
	Coalesced int64 `json:"coalesced"`
	// UpstreamPerReq is Upstream/Requests — the fraction of requests
	// that paid an upstream read.
	UpstreamPerReq float64 `json:"upstream_per_request"`
	// P50MS and P99MS are client-observed request latencies.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// Errors counts non-200 responses (must stay 0 in a healthy run).
	Errors int64 `json:"errors"`
}

// E9Row compares coalescing on vs off for one read mode.
type E9Row struct {
	Mode string `json:"mode"`
	On   E9Side `json:"coalesce_on"`
	Off  E9Side `json:"coalesce_off"`
	// UpstreamReduction is Off.UpstreamPerReq / On.UpstreamPerReq — how
	// many upstream reads coalescing saved per request served.
	UpstreamReduction float64 `json:"upstream_reduction"`
}

// e9Modes lists the read modes measured, fenced modes last (they are
// the slow phases).
var e9Modes = []string{"eventual", "bounded", "lease", "linearizable"}

// e9Phase drives one mode×coalesce measurement against a fresh gateway
// over cl, returning the side plus any /metrics validation failure.
func e9Phase(cfg E9Config, cl *raincore.Cluster, mode string, coalesce bool) (E9Side, error) {
	var side E9Side
	reg := stats.NewRegistry()
	gw, err := gateway.New(gateway.Options{
		Backend:         cl,
		Registry:        reg,
		DisableCoalesce: !coalesce,
		// No CacheTTL: the micro-cache stays off on both sides so the
		// comparison isolates coalescing.
		DefaultTimeout: time.Duration(cfg.TimeoutMS) * time.Millisecond,
	})
	if err != nil {
		return side, err
	}
	addr, err := gw.Start("127.0.0.1:0")
	if err != nil {
		return side, err
	}
	defer gw.Close()

	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
	}}
	defer httpc.CloseIdleConnections()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var recording atomic.Bool
	var requests, errors atomic.Int64
	lats := make([][]float64, cfg.Clients)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
			url := fmt.Sprintf("http://%s/kv/", addr)
			suffix := fmt.Sprintf("?mode=%s&timeout=%dms", mode, cfg.TimeoutMS)
			for ctx.Err() == nil {
				key := fmt.Sprintf("e9-key-%d", zipf.Uint64())
				start := time.Now()
				req, _ := http.NewRequestWithContext(ctx, "GET", url+key+suffix, nil)
				resp, err := httpc.Do(req)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					if recording.Load() {
						errors.Add(1)
					}
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if recording.Load() {
					if resp.StatusCode != http.StatusOK {
						errors.Add(1)
					} else {
						requests.Add(1)
						lats[w] = append(lats[w], float64(time.Since(start).Microseconds())/1000)
					}
				}
			}
		}()
	}

	time.Sleep(cfg.Warmup)
	upBefore := reg.Counter(stats.MetricGatewayUpstream).Load()
	coBefore := reg.Counter(stats.MetricGatewayCoalesced).Load()
	recording.Store(true)
	// Scrape /metrics from the loaded gateway mid-window: the exposition
	// must parse while the fleet hammers it.
	time.Sleep(cfg.Duration / 2)
	expoErr := e9Scrape(httpc, addr)
	time.Sleep(cfg.Duration / 2)
	recording.Store(false)
	side.Upstream = reg.Counter(stats.MetricGatewayUpstream).Load() - upBefore
	side.Coalesced = reg.Counter(stats.MetricGatewayCoalesced).Load() - coBefore
	cancel()
	wg.Wait()
	if expoErr != nil {
		return side, fmt.Errorf("/metrics under load: %w", expoErr)
	}

	side.Requests = requests.Load()
	side.Errors = errors.Load()
	side.ReqPS = float64(side.Requests) / cfg.Duration.Seconds()
	if side.Requests > 0 {
		side.UpstreamPerReq = float64(side.Upstream) / float64(side.Requests)
	}
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return all[int(p*float64(len(all)-1))]
	}
	side.P50MS, side.P99MS = pct(0.50), pct(0.99)
	return side, nil
}

// e9Scrape fetches and validates the Prometheus exposition.
func e9Scrape(httpc *http.Client, addr string) error {
	resp, err := httpc.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		return fmt.Errorf("content type %q", resp.Header.Get("Content-Type"))
	}
	return stats.ValidateExposition(strings.NewReader(string(body)))
}

// E9GatewayCoalescing runs every mode with coalescing on and off.
func E9GatewayCoalescing(cfg E9Config) ([]E9Row, error) {
	if cfg.Clients < 2 || cfg.Keys < 2 || cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("E9: need >= 2 clients, >= 2 keys, zipf s > 1")
	}
	rc := core.FastRing()
	rc.TokenHold = time.Duration(cfg.TokenHoldMS) * time.Millisecond
	rc.HungryTimeout = 400 * time.Millisecond
	rc.StarvingRetry = 300 * time.Millisecond
	rc.BodyodorInterval = 50 * time.Millisecond
	rc.MaxBatch = cfg.MaxBatch
	g, err := newClusterGrid(cfg.Nodes, cfg.Shards, rc)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	if err := g.WaitAssembled(30 * time.Second); err != nil {
		return nil, err
	}

	// Preload the keyspace through the member the gateway will front.
	cl := g.Clusters[g.IDs[0]]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	payload := make([]byte, cfg.PayloadBytes)
	sem := make(chan struct{}, 16)
	errCh := make(chan error, 1)
	for i := 0; i < cfg.Keys; i++ {
		sem <- struct{}{}
		go func(key string) {
			defer func() { <-sem }()
			if err := cl.Set(ctx, key, payload); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}(fmt.Sprintf("e9-key-%d", i))
	}
	for i := 0; i < cap(sem); i++ {
		sem <- struct{}{}
	}
	select {
	case err := <-errCh:
		return nil, fmt.Errorf("E9 preload: %w", err)
	default:
	}

	var rows []E9Row
	for _, mode := range e9Modes {
		row := E9Row{Mode: mode}
		if row.On, err = e9Phase(cfg, cl, mode, true); err != nil {
			return nil, fmt.Errorf("E9 %s coalesce=on: %w", mode, err)
		}
		if row.Off, err = e9Phase(cfg, cl, mode, false); err != nil {
			return nil, fmt.Errorf("E9 %s coalesce=off: %w", mode, err)
		}
		if row.On.UpstreamPerReq > 0 {
			row.UpstreamReduction = row.Off.UpstreamPerReq / row.On.UpstreamPerReq
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E9Table renders E9 rows.
func E9Table(rows []E9Row, cfg E9Config) *Table {
	t := &Table{
		Title: "E9: gateway request coalescing under zipfian fan-in",
		Columns: []string{
			"mode", "req/s on", "p99ms on", "up/req on",
			"req/s off", "p99ms off", "up/req off", "upstream cut",
		},
		Notes: []string{
			fmt.Sprintf("%d closed-loop HTTP clients, %d keys, zipf s=%.1f; %d nodes x %d shards behind one gateway",
				cfg.Clients, cfg.Keys, cfg.ZipfS, cfg.Nodes, cfg.Shards),
			"TTL micro-cache off on both sides: the upstream cut is coalescing alone",
			"fenced modes (linearizable) are where fan-in pays: a fence costs an ordered no-op, and every concurrent fetch of the key rides one flight",
			"/metrics scraped and validated mid-load in every phase",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mode,
			fmt.Sprintf("%.0f", r.On.ReqPS), fmt.Sprintf("%.2f", r.On.P99MS), fmt.Sprintf("%.3f", r.On.UpstreamPerReq),
			fmt.Sprintf("%.0f", r.Off.ReqPS), fmt.Sprintf("%.2f", r.Off.P99MS), fmt.Sprintf("%.3f", r.Off.UpstreamPerReq),
			fmt.Sprintf("%.1fx", r.UpstreamReduction),
		})
	}
	return t
}

// E9Baseline is the persisted benchmark baseline (BENCH_E9.json).
type E9Baseline struct {
	Experiment string   `json:"experiment"`
	Timestamp  string   `json:"timestamp"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Config     E9Config `json:"config"`
	Rows       []E9Row  `json:"rows"`
}

// WriteE9JSON persists the rows as a JSON baseline at path.
func WriteE9JSON(path string, cfg E9Config, rows []E9Row) error {
	b := E9Baseline{
		Experiment: "e9-gateway-coalescing",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Config:     cfg,
		Rows:       rows,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
