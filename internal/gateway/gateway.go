// Package gateway is Raincore's HTTP/JSON access tier: a stateless
// front that pools cluster handles, coalesces concurrent reads of hot
// keys into single upstream fetches, enforces per-request deadlines,
// and speaks the facade's retryable-error taxonomy to external clients
// as status codes and Retry-After headers. The ordered core keeps its
// zero-copy UDP protocol between members; fleets of clients that cannot
// join a token ring get this tier instead.
//
// Surface:
//
//	GET    /kv/{key}?mode=&timeout=   read (eventual|bounded|linearizable|lease)
//	PUT    /kv/{key}?timeout=         write (body = raw value bytes)
//	DELETE /kv/{key}?timeout=         delete
//	POST   /txn?timeout=              cross-shard transaction (JSON body)
//	GET    /healthz                   liveness of the member(s) behind
//	GET    /metrics                   Prometheus text exposition
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/dds"
	"repro/internal/rcerr"
	"repro/internal/stats"
)

// maxValueBytes bounds a PUT body / txn document; the ordered core
// fragments large payloads, but a gateway should not buffer arbitrary
// uploads.
const maxValueBytes = 4 << 20

// TxnRequest is the JSON body of POST /txn: declared read, write and
// delete sets, committed atomically across shards. Values are base64
// (encoding/json's []byte convention).
type TxnRequest struct {
	Reads   []string          `json:"reads,omitempty"`
	Sets    map[string][]byte `json:"sets,omitempty"`
	Deletes []string          `json:"deletes,omitempty"`
}

// TxnFunc commits one TxnRequest, returning the read-set values at the
// serialization point. The daemon wires this to Cluster.Txn; a nil
// TxnFunc makes POST /txn answer 501.
type TxnFunc func(ctx context.Context, req TxnRequest) (map[string][]byte, error)

// Options configures New. Zero values mean: no micro-cache, eventual
// default reads, 2s default / 30s max timeout, unlimited inflight,
// private registry.
type Options struct {
	// Backend serves the data operations (required). Use Pool to spread
	// over several cluster handles.
	Backend Backend
	// Txn commits POST /txn bodies (nil answers 501).
	Txn TxnFunc
	// Registry records the gateway_* metrics; /metrics renders it.
	Registry *stats.Registry
	// DefaultTimeout bounds requests that name no ?timeout= (default 2s).
	// It is also the detached upstream budget of coalesced reads.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested ?timeout= values (default 30s).
	MaxTimeout time.Duration
	// CacheTTL > 0 micro-caches read results per key×mode for the TTL.
	CacheTTL time.Duration
	// ReadMode is the consistency served when ?mode= is absent:
	// "eventual" (default), "bounded", "linearizable" or "lease".
	ReadMode string
	// MaxStaleness parameterizes bounded mode (default 50ms).
	MaxStaleness time.Duration
	// Lease parameterizes lease mode (default 100ms).
	Lease time.Duration
	// MaxInflight sheds requests with 429 beyond this concurrency
	// (0 = unlimited).
	MaxInflight int
}

// Gateway is one running access tier instance.
type Gateway struct {
	o     Options
	co    *coalescer
	mux   *http.ServeMux
	reg   *stats.Registry
	modes map[string][]dds.ReadOption
	names []string // mode names, for cache invalidation on writes

	inflight *stats.Gauge
	live     int64 // current inflight (guarded by liveMu; gauge mirrors it)
	liveMu   sync.Mutex

	srv *http.Server
	ln  net.Listener
}

// New builds a Gateway over the Options. The returned gateway is a
// handler factory — mount Handler on any server, or call Start to bind
// its own listener (h2c-capable on Go ≥ 1.24).
func New(o Options) (*Gateway, error) {
	if o.Backend == nil {
		return nil, errors.New("gateway: Options.Backend is required")
	}
	if o.Registry == nil {
		o.Registry = stats.NewRegistry()
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 30 * time.Second
	}
	if o.ReadMode == "" {
		o.ReadMode = "eventual"
	}
	if o.MaxStaleness <= 0 {
		o.MaxStaleness = 50 * time.Millisecond
	}
	if o.Lease <= 0 {
		o.Lease = 100 * time.Millisecond
	}
	g := &Gateway{
		o:   o,
		co:  newCoalescer(o.CacheTTL, o.DefaultTimeout),
		reg: o.Registry,
		modes: map[string][]dds.ReadOption{
			"eventual":     {dds.WithEventual()},
			"bounded":      {dds.WithMaxStaleness(o.MaxStaleness)},
			"linearizable": {dds.WithLinearizable()},
			"lease":        {dds.WithReadLease(o.Lease)},
		},
		inflight: o.Registry.Gauge(stats.GaugeGatewayInflight),
	}
	if _, ok := g.modes[o.ReadMode]; !ok {
		return nil, fmt.Errorf("gateway: unknown ReadMode %q", o.ReadMode)
	}
	for name := range g.modes {
		g.names = append(g.names, name)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /kv/{key...}", g.handleGet)
	mux.HandleFunc("PUT /kv/{key...}", g.handlePut)
	mux.HandleFunc("DELETE /kv/{key...}", g.handleDelete)
	mux.HandleFunc("POST /txn", g.handleTxn)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux = mux
	return g, nil
}

// Handler returns the gateway's HTTP handler for mounting on a caller's
// server (tests, embedding).
func (g *Gateway) Handler() http.Handler { return g.mux }

// Invalidate drops the micro-cached entries for key in every mode. Wire
// it to the cluster's ordered-apply stream (Cluster.OnApply) and the
// cache TTL stops being a staleness bound: a write committed through ANY
// member evicts this gateway's entry the moment it applies on the member
// behind it, so CacheTTL can grow without serving stale reads. Writes
// through this gateway still invalidate synchronously.
func (g *Gateway) Invalidate(key string) { g.co.invalidate(key, g.names) }

// Start binds addr and serves the gateway on it, returning the bound
// address (useful with ":0"). On Go ≥ 1.24 the server also accepts
// cleartext HTTP/2 (h2c), so client fleets can multiplex one connection.
func (g *Gateway) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	g.ln = ln
	g.srv = &http.Server{Handler: g.mux}
	enableH2C(g.srv)
	go func() { _ = g.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener started by Start (no-op otherwise).
func (g *Gateway) Close() error {
	if g.srv == nil {
		return nil
	}
	return g.srv.Close()
}

// --- request plumbing ---

// errorBody is the structured JSON error every non-2xx response carries.
type errorBody struct {
	Error     string `json:"error"`
	Op        string `json:"op"`
	Key       string `json:"key,omitempty"`
	Retryable bool   `json:"retryable"`
}

// admit applies the inflight gauge and load shedding. It returns false
// (after answering 429) when the gateway is over MaxInflight; the caller
// must invoke release() exactly once when it admitted.
func (g *Gateway) admit(w http.ResponseWriter, op, mode string) (release func(), ok bool) {
	g.liveMu.Lock()
	if g.o.MaxInflight > 0 && g.live >= int64(g.o.MaxInflight) {
		g.liveMu.Unlock()
		g.count(op, mode, "shed")
		w.Header().Set("Retry-After", "1")
		g.writeErr(w, http.StatusTooManyRequests, errorBody{
			Error: "gateway over capacity", Op: op, Retryable: true,
		})
		return nil, false
	}
	g.live++
	g.inflight.Set(g.live)
	g.liveMu.Unlock()
	return func() {
		g.liveMu.Lock()
		g.live--
		g.inflight.Set(g.live)
		g.liveMu.Unlock()
	}, true
}

// deadline resolves the request's deadline — ?timeout= as a Go duration
// ("250ms") or bare milliseconds, clamped to MaxTimeout; DefaultTimeout
// otherwise — and returns the derived context.
func (g *Gateway) deadline(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := g.o.DefaultTimeout
	if s := r.URL.Query().Get("timeout"); s != "" {
		var err error
		if d, err = time.ParseDuration(s); err != nil {
			if ms, merr := strconv.Atoi(s); merr == nil {
				d = time.Duration(ms) * time.Millisecond
			} else {
				return nil, nil, fmt.Errorf("bad timeout %q: %v", s, err)
			}
		}
		if d <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q: must be positive", s)
		}
		if d > g.o.MaxTimeout {
			d = g.o.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// count bumps gateway_requests_total{op,mode,outcome}.
func (g *Gateway) count(op, mode, outcome string) {
	g.reg.Counter(stats.LabeledName(stats.MetricGatewayRequests,
		"op", op, "mode", mode, "outcome", outcome)).Inc()
}

// finish maps an operation error onto the response: the retryable
// taxonomy becomes 503 + Retry-After (the client should back off and
// repeat), a blown deadline becomes 504, anything else 500. It returns
// the outcome label for the metrics.
func (g *Gateway) finish(w http.ResponseWriter, op, key string, err error) string {
	var status int
	var outcome string
	retryable := false
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status, outcome, retryable = http.StatusGatewayTimeout, "timeout", true
	case errors.Is(err, rcerr.ErrRetryable), errors.Is(err, context.Canceled):
		status, outcome, retryable = http.StatusServiceUnavailable, "unavailable", true
		w.Header().Set("Retry-After", "1")
	default:
		status, outcome = http.StatusInternalServerError, "error"
	}
	g.writeErr(w, status, errorBody{Error: err.Error(), Op: op, Key: key, Retryable: retryable})
	return outcome
}

func (g *Gateway) writeErr(w http.ResponseWriter, status int, body errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// --- handlers ---

// getResponse is the JSON body of a successful GET /kv/{key}.
type getResponse struct {
	Key   string `json:"key"`
	Value []byte `json:"value"` // base64 per encoding/json
	Mode  string `json:"mode"`
	// Coalesced reports the read fanned in on another request's flight;
	// Cached that it was served from the TTL micro-cache.
	Coalesced bool `json:"coalesced,omitempty"`
	Cached    bool `json:"cached,omitempty"`
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = g.o.ReadMode
	}
	opts, known := g.modes[mode]
	if key == "" || !known {
		g.count("get", mode, "bad_request")
		g.writeErr(w, http.StatusBadRequest, errorBody{
			Error: "want /kv/{key}?mode=eventual|bounded|linearizable|lease",
			Op:    "get", Key: key,
		})
		return
	}
	release, ok := g.admit(w, "get", mode)
	if !ok {
		return
	}
	defer release()
	ctx, cancel, err := g.deadline(r)
	if err != nil {
		g.count("get", mode, "bad_request")
		g.writeErr(w, http.StatusBadRequest, errorBody{Error: err.Error(), Op: "get", Key: key})
		return
	}
	defer cancel()

	start := time.Now()
	val, found, how, err := g.co.do(ctx, key, mode, func(fctx context.Context) ([]byte, bool, error) {
		g.reg.Counter(stats.MetricGatewayUpstream).Inc()
		return g.o.Backend.Get(fctx, key, opts...)
	})
	g.reg.Histogram(stats.LabeledName(stats.HistGatewayLatency, "mode", mode)).
		Observe(time.Since(start))
	switch how {
	case servedCoalesced:
		g.reg.Counter(stats.MetricGatewayCoalesced).Inc()
	case servedCached:
		g.reg.Counter(stats.MetricGatewayCacheHits).Inc()
	}
	if err != nil {
		g.count("get", mode, g.finish(w, "get", key, err))
		return
	}
	if !found {
		g.count("get", mode, "miss")
		g.writeErr(w, http.StatusNotFound, errorBody{Error: "key not found", Op: "get", Key: key})
		return
	}
	g.count("get", mode, "ok")
	writeJSON(w, http.StatusOK, getResponse{
		Key: key, Value: val, Mode: mode,
		Coalesced: how == servedCoalesced, Cached: how == servedCached,
	})
}

// admitWrite rejects mutations while the member behind the gateway has
// not yet assembled with its configured peers. A pre-merge singleton
// member would accept the write locally and then lose it to the
// lowest-ID-wins group merge — surfacing 503 (retryable) instead turns
// that silent loss window into a visible back-off.
func (g *Gateway) admitWrite(w http.ResponseWriter, op, key string) bool {
	if g.o.Backend.Joined() {
		return true
	}
	g.reg.Counter(stats.MetricGatewayPremergeRejects).Inc()
	g.count(op, "none", "premerge")
	w.Header().Set("Retry-After", "1")
	g.writeErr(w, http.StatusServiceUnavailable, errorBody{
		Error: "member has not joined its group yet; writes would be lost to the merge",
		Op:    op, Key: key, Retryable: true,
	})
	return false
}

// ObserveWriteBatch records one flushed write-batch's op count into the
// gateway_write_batch_size histogram. Wire it to the cluster's
// coalescer (Cluster.DDS().OnWriteBatch) so the gateway's metrics show
// how many client writes each ordered frame is carrying. The registry's
// histograms are duration-typed; batch sizes are stored as unit ticks
// (1 op = 1ns), so the summary's mean/percentiles read directly as ops.
func (g *Gateway) ObserveWriteBatch(ops int) {
	g.reg.Histogram(stats.HistGatewayWriteBatch).Observe(time.Duration(ops))
}

// handleWrite factors PUT and DELETE: resolve deadline, run op, map the
// error, invalidate the micro-cache on success.
func (g *Gateway) handleWrite(w http.ResponseWriter, r *http.Request, op string, run func(ctx context.Context, key string) error) {
	key := r.PathValue("key")
	if key == "" {
		g.count(op, "none", "bad_request")
		g.writeErr(w, http.StatusBadRequest, errorBody{Error: "want /kv/{key}", Op: op})
		return
	}
	if !g.admitWrite(w, op, key) {
		return
	}
	release, ok := g.admit(w, op, "none")
	if !ok {
		return
	}
	defer release()
	ctx, cancel, err := g.deadline(r)
	if err != nil {
		g.count(op, "none", "bad_request")
		g.writeErr(w, http.StatusBadRequest, errorBody{Error: err.Error(), Op: op, Key: key})
		return
	}
	defer cancel()
	if err := run(ctx, key); err != nil {
		g.count(op, "none", g.finish(w, op, key, err))
		return
	}
	g.co.invalidate(key, g.names)
	g.count(op, "none", "ok")
	w.WriteHeader(http.StatusNoContent)
}

func (g *Gateway) handlePut(w http.ResponseWriter, r *http.Request) {
	g.handleWrite(w, r, "put", func(ctx context.Context, key string) error {
		body, err := readAll(w, r)
		if err != nil {
			return err
		}
		return g.o.Backend.Set(ctx, key, body)
	})
}

func (g *Gateway) handleDelete(w http.ResponseWriter, r *http.Request) {
	g.handleWrite(w, r, "delete", func(ctx context.Context, key string) error {
		return g.o.Backend.Delete(ctx, key)
	})
}

func (g *Gateway) handleTxn(w http.ResponseWriter, r *http.Request) {
	if g.o.Txn == nil {
		g.count("txn", "none", "bad_request")
		g.writeErr(w, http.StatusNotImplemented, errorBody{
			Error: "transactions are not wired on this gateway", Op: "txn",
		})
		return
	}
	if !g.admitWrite(w, "txn", "") {
		return
	}
	release, ok := g.admit(w, "txn", "none")
	if !ok {
		return
	}
	defer release()
	var req TxnRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxValueBytes)).Decode(&req); err != nil {
		g.count("txn", "none", "bad_request")
		g.writeErr(w, http.StatusBadRequest, errorBody{Error: "bad txn body: " + err.Error(), Op: "txn"})
		return
	}
	ctx, cancel, err := g.deadline(r)
	if err != nil {
		g.count("txn", "none", "bad_request")
		g.writeErr(w, http.StatusBadRequest, errorBody{Error: err.Error(), Op: "txn"})
		return
	}
	defer cancel()
	reads, err := g.o.Txn(ctx, req)
	if err != nil {
		g.count("txn", "none", g.finish(w, "txn", "", err))
		return
	}
	for k := range req.Sets {
		g.co.invalidate(k, g.names)
	}
	for _, k := range req.Deletes {
		g.co.invalidate(k, g.names)
	}
	g.count("txn", "none", "ok")
	writeJSON(w, http.StatusOK, map[string]any{"reads": reads})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !g.o.Backend.Healthy() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"healthy": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"healthy": true})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := g.reg.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WriteText(w)
}

// readAll drains a bounded request body.
func readAll(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	lr := http.MaxBytesReader(w, r.Body, maxValueBytes)
	defer lr.Close()
	return io.ReadAll(lr)
}
