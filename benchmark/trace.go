package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	raincore "repro"
	"repro/internal/dds"
	"repro/internal/gateway"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The traced pass measures each layer from outside: timing decorators
// around the public seams (gateway.Backend, gateway.TxnFunc, wal.Backend /
// wal.Log, transport.PacketConn) and Cluster.OnApply observers on every
// member. Spans stay in memory and are written out when the run ends. The
// untraced pass builds none of this: tracer is nil and every seam gets the
// bare product value.

// A product interface change must break the benchmark's build rather than
// silently un-trace a layer.
var (
	_ gateway.Backend      = (*tracedCluster)(nil)
	_ gateway.Backend      = (*raincore.Cluster)(nil)
	_ wal.Backend          = (*tracedStorage)(nil)
	_ wal.Log              = (*tracedLog)(nil)
	_ transport.PacketConn = (*tracedConn)(nil)
)

// span is one timed interval at a layer boundary. Spans of one client
// operation share OpID; Parent is the span that caused this one (0 = root).
// Times are nanoseconds since the tracer's epoch.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	OpID    uint64 `json:"op_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// ref ties a client-side operation to the spans the decorators record for
// it further down.
type ref struct{ op, span uint64 }

type tracer struct {
	epoch   time.Time
	members int
	nextID  atomic.Uint64

	mu       sync.Mutex
	spans    []span
	inflight map[string][]ref // class:key -> client ops awaiting their backend call, FIFO
	pending  map[originKey][]*writeTrace
	writes   []*writeTrace

	datagrams, wireBytes atomic.Int64
	walRecords, walBytes atomic.Int64
	userBytes            atomic.Int64
	removals             atomic.Int64
}

type originKey struct {
	origin int
	key    string
}

// writeTrace follows one Set/Delete from facade entry to its ordered apply
// on every member and back to the caller.
type writeTrace struct {
	ref     ref
	origin  int
	key     string
	submit  int64
	ret     int64
	applied [rigMembers + 1]int64 // by member ID; 0 = not yet
	n       int
}

func newTracer(members int) *tracer {
	return &tracer{
		epoch:    time.Now(),
		members:  members,
		inflight: make(map[string][]ref),
		pending:  make(map[originKey][]*writeTrace),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }
func (t *tracer) id() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a client-side operation and queues it for the decorator that
// will see its backend call.
func (t *tracer) begin(class, key string) ref {
	r := ref{op: t.id(), span: t.id()}
	t.mu.Lock()
	k := class + ":" + key
	t.inflight[k] = append(t.inflight[k], r)
	t.mu.Unlock()
	return r
}

// end closes a client-side operation: it records the client span and drops
// the queue entry if no backend call claimed it (a coalesced or cached
// read never reaches the backend).
func (t *tracer) end(class, key string, r ref, name string, start, end int64) {
	t.mu.Lock()
	k := class + ":" + key
	q := t.inflight[k]
	for i, e := range q {
		if e == r {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(t.inflight, k)
	} else {
		t.inflight[k] = q
	}
	t.spans = append(t.spans, span{ID: r.span, OpID: r.op, Name: name, StartNS: start, EndNS: end})
	t.mu.Unlock()
}

// claim hands a backend call the client operation that caused it; a call
// made by the benchmark itself (no HTTP in front) gets a fresh root.
func (t *tracer) claim(class, key string) ref {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := class + ":" + key
	if q := t.inflight[k]; len(q) > 0 {
		r := q[0]
		if len(q) == 1 {
			delete(t.inflight, k)
		} else {
			t.inflight[k] = q[1:]
		}
		return r
	}
	return ref{op: t.id()}
}

// --- apply matching ---

// staleWrite bounds how long a write waits for a member's apply before the
// matcher gives up on it (a crashed member never applies).
const staleWrite = 3 * time.Second

func (t *tracer) beginWrite(parent ref, origin int, key string) *writeTrace {
	w := &writeTrace{ref: parent, origin: origin, key: key, submit: t.now()}
	k := originKey{origin, key}
	t.mu.Lock()
	t.pending[k] = append(t.pending[k], w)
	t.writes = append(t.writes, w)
	t.mu.Unlock()
	return w
}

// observe hooks a member's ordered apply stream and removal notices.
func (t *tracer) observe(memberID int, cl *raincore.Cluster) {
	cl.OnApply(func(e raincore.ApplyEvent) { t.applied(memberID, e) })
	cl.Runtime().OnMemberRemoved(func(raincore.RingID, raincore.NodeID) { t.removals.Add(1) })
}

// applied matches an apply event to the oldest write of (origin, key) this
// member has not applied yet. One writer owns each key and issues its ops
// on it in order, so FIFO per (origin, key) is the apply order.
func (t *tracer) applied(memberID int, e raincore.ApplyEvent) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, key := range e.Keys {
		k := originKey{int(e.Origin), key}
		q := t.pending[k]
		keep := q[:0]
		matched := false
		for _, w := range q {
			if !matched && w.applied[memberID] == 0 {
				w.applied[memberID] = now
				w.n++
				matched = true
			}
			if w.n < t.members && now-w.submit < int64(staleWrite) {
				keep = append(keep, w)
			}
		}
		if len(keep) == 0 {
			delete(t.pending, k)
		} else {
			t.pending[k] = keep
		}
	}
}

// finishWrites turns the write traces into spans: the facade call, and
// under it the wait for the origin's ordered apply, the return after it,
// and the lag until the last member applied. It runs when a rig's load has
// drained, before the next rig reuses the key names: what is still pending
// then will never be applied.
func (t *tracer) finishWrites() {
	if t == nil {
		return // untraced pass
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.writes {
		if w.ret == 0 {
			continue
		}
		set := span{ID: t.id(), Parent: w.ref.span, OpID: w.ref.op, Name: "raincore.set", StartNS: w.submit, EndNS: w.ret}
		t.spans = append(t.spans, set)
		at := w.applied[w.origin]
		if at == 0 || at < w.submit || at > w.ret {
			continue
		}
		t.spans = append(t.spans,
			span{ID: t.id(), Parent: set.ID, OpID: set.OpID, Name: "dds.submit_to_apply", StartNS: w.submit, EndNS: at},
			span{ID: t.id(), Parent: set.ID, OpID: set.OpID, Name: "dds.ack_after_apply", StartNS: at, EndNS: w.ret})
		if w.n == t.members {
			last := at
			for _, a := range w.applied {
				if a > last {
					last = a
				}
			}
			t.spans = append(t.spans, span{ID: t.id(), Parent: set.ID, OpID: set.OpID, Name: "dds.replica_lag", StartNS: at, EndNS: last})
		}
	}
	t.writes = nil
	t.pending = make(map[originKey][]*writeTrace)
}

// --- span arithmetic ---

// byName returns the durations (ns) of every span called name.
func (t *tracer) byName(name string) *samples {
	s := &samples{}
	t.mu.Lock()
	for _, sp := range t.spans {
		if sp.Name == name {
			s.ns = append(s.ns, sp.dur())
		}
	}
	t.mu.Unlock()
	return s
}

// selfTimes computes each span's self time: its duration minus the part of
// its own interval that its child spans cover (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), p.StartNS
		for _, c := range kids {
			lo, hi := max(c.StartNS, edge), min(c.EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// writeTraces writes trace.json: each traced pass's spans under its
// workload's name.
func writeTraces(path string, tracers map[string]*tracer) error {
	spans := make(map[string][]span, len(tracers))
	for name, t := range tracers {
		t.mu.Lock()
		spans[name] = t.spans
		t.mu.Unlock()
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- decorators ---

// tracedCluster times the facade's data operations. It is the
// gateway.Backend handed to the gateway in the traced pass, and the handle
// facade-level callers write through.
type tracedCluster struct {
	cl     *raincore.Cluster
	origin int
	tr     *tracer
}

func (c *tracedCluster) write(ctx context.Context, class, key string, size int, do func() error) error {
	parent := c.tr.claim(class, key)
	w := c.tr.beginWrite(parent, c.origin, key)
	err := do()
	ret := c.tr.now()
	c.tr.mu.Lock()
	w.ret = ret
	c.tr.mu.Unlock()
	if err == nil {
		c.tr.userBytes.Add(int64(len(key) + size))
	}
	return err
}

func (c *tracedCluster) Set(ctx context.Context, key string, val []byte) error {
	return c.write(ctx, "set", key, len(val), func() error { return c.cl.Set(ctx, key, val) })
}

func (c *tracedCluster) Delete(ctx context.Context, key string) error {
	return c.write(ctx, "del", key, 0, func() error { return c.cl.Delete(ctx, key) })
}

func (c *tracedCluster) Get(ctx context.Context, key string, opts ...dds.ReadOption) ([]byte, bool, error) {
	parent := c.tr.claim("get", key)
	start := c.tr.now()
	v, ok, err := c.cl.Get(ctx, key, opts...)
	c.tr.record(span{ID: c.tr.id(), Parent: parent.span, OpID: parent.op, Name: "raincore.get", StartNS: start, EndNS: c.tr.now()})
	return v, ok, err
}

func (c *tracedCluster) Healthy() bool { return c.cl.Healthy() }
func (c *tracedCluster) Joined() bool  { return c.cl.Joined() }

// wrapTxn times the gateway's TxnFunc.
func (t *tracer) wrapTxn(fn gateway.TxnFunc) gateway.TxnFunc {
	return func(ctx context.Context, req gateway.TxnRequest) (map[string][]byte, error) {
		first := ""
		for k := range req.Sets {
			if first == "" || k < first {
				first = k
			}
		}
		parent := t.claim("txn", first)
		start := t.now()
		out, err := fn(ctx, req)
		t.record(span{ID: t.id(), Parent: parent.span, OpID: parent.op, Name: "txn.commit", StartNS: start, EndNS: t.now()})
		return out, err
	}
}

// tracedStorage wraps the durability backend so every ring's log is timed.
type tracedStorage struct {
	wal.Backend
	tr *tracer
}

func (b *tracedStorage) Ring(id int) (wal.Log, error) {
	l, err := b.Backend.Ring(id)
	if err != nil {
		return nil, err
	}
	return &tracedLog{Log: l, tr: b.tr}, nil
}

// tracedLog times the append calls (time inside the call) and the wait
// from the call until the group is durable.
type tracedLog struct {
	wal.Log
	tr *tracer
}

func (l *tracedLog) count(recs ...wal.Record) {
	var n int64
	for _, r := range recs {
		n += int64(len(r.Payload))
	}
	l.tr.walRecords.Add(int64(len(recs)))
	l.tr.walBytes.Add(n)
}

func (l *tracedLog) timed(name string, do func() error) error {
	start := l.tr.now()
	err := do()
	l.tr.record(span{ID: l.tr.id(), Name: name, StartNS: start, EndNS: l.tr.now()})
	return err
}

func (l *tracedLog) Append(r wal.Record) error {
	l.count(r)
	return l.timed("wal.append", func() error { return l.Log.Append(r) })
}

func (l *tracedLog) AppendBatch(recs []wal.Record) error {
	l.count(recs...)
	return l.timed("wal.append", func() error { return l.Log.AppendBatch(recs) })
}

func (l *tracedLog) AppendBatchDurable(recs []wal.Record, done func(error)) (bool, error) {
	l.count(recs...)
	start := l.tr.now()
	durable := func() {
		l.tr.record(span{ID: l.tr.id(), Name: "wal.durable_wait", StartNS: start, EndNS: l.tr.now()})
	}
	pending, err := l.Log.AppendBatchDurable(recs, func(e error) {
		durable()
		done(e)
	})
	l.tr.record(span{ID: l.tr.id(), Name: "wal.append", StartNS: start, EndNS: l.tr.now()})
	if err == nil && !pending {
		durable()
	}
	return pending, err
}

func (l *tracedLog) SaveSnapshot(state []byte) error {
	return l.timed("wal.snapshot", func() error { return l.Log.SaveSnapshot(state) })
}

// tracedConn counts what a member puts on the wire.
type tracedConn struct {
	transport.PacketConn
	tr *tracer
}

func (c *tracedConn) Send(to transport.Addr, payload []byte) error {
	c.tr.datagrams.Add(1)
	c.tr.wireBytes.Add(int64(len(payload)))
	return c.PacketConn.Send(to, payload)
}
