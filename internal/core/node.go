// Package core is the Raincore Distributed Session Service: the public,
// runnable form of the protocols in internal/ring. A Node owns one protocol
// state machine, drives it with a single event loop, and exposes group
// membership, atomic reliable multicast with agreed or safe ordering
// (§2.6), and the token-based mutual exclusion service (§2.7) on top of
// the Raincore Transport Service (§2.1).
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// NodeID re-exports the cluster member identity.
type NodeID = wire.NodeID

// Delivery is one multicast message handed to the application, in the
// agreed total order.
type Delivery struct {
	Origin  NodeID
	Seq     uint64
	Safe    bool
	Payload []byte
}

// MembershipEvent reports a change of the node's membership view.
type MembershipEvent struct {
	Members []NodeID
	Epoch   uint64
}

// SysEvent reports an ordered system announcement (node joined/removed,
// group merged). These arrive in the same total order as Deliveries, which
// is what replicated state machines such as the lock manager key off.
type SysEvent struct {
	Kind    wire.SysKind
	Subject NodeID
	Origin  NodeID
}

// Handlers are the application callbacks. They are invoked from the node's
// event loop: they observe a consistent total order and must not block.
type Handlers struct {
	// OnDeliver receives application multicasts in agreed total order.
	OnDeliver func(Delivery)
	// OnMembership receives membership view changes.
	OnMembership func(MembershipEvent)
	// OnSys receives ordered system announcements.
	OnSys func(SysEvent)
	// OnShutdown is called once when the node stops itself (voluntary
	// leave, critical resource loss, quorum loss).
	OnShutdown func(reason string)
}

// RingID identifies one ring of a sharded multi-ring runtime.
type RingID = wire.RingID

// Config assembles a node.
type Config struct {
	// ID is the node identity (required, non-zero).
	ID NodeID
	// RingID selects which ring this node's protocol instance belongs
	// to. Single-ring deployments leave it zero; a sharded Runtime runs
	// one node per ring over a shared transport.
	RingID RingID
	// Ring tunes the protocol timers, eligible membership and quorum.
	// Ring.ID is overwritten with ID.
	Ring ring.Config
	// Transport tunes the reliable unicast layer.
	Transport transport.Config
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Registry defaults to a private registry.
	Registry *stats.Registry
	// Trace, when non-nil, records protocol events for diagnostics.
	Trace *trace.Log
}

// ErrStopped is returned by operations on a stopped node.
var ErrStopped = errors.New("core: node stopped")

// Node is one member of a Raincore cluster (one protocol instance on one
// ring).
type Node struct {
	id     NodeID
	ringID RingID
	clk    clock.Clock
	reg    *stats.Registry
	tr     *transport.Transport
	sm     *ring.SM
	trc    *trace.Log

	// demux is non-nil when the node shares its transport with other
	// rings; the node then owns only its ring registration, not the
	// transport itself.
	demux *transport.Demux

	events chan ring.Event
	done   chan struct{}
	loopWG sync.WaitGroup

	timers    [ring.NumTimers]clock.Timer
	timerGen  [ring.NumTimers]uint64
	handlers  Handlers
	handlerMu sync.Mutex
	// stopHook is a supervisor callback (separate from Handlers so a
	// Runtime can observe ring shutdowns without occupying the
	// application's handler slot).
	stopHook func(reason string)
	// sysTee observes ordered system events without occupying the
	// application's handler slot, so a Runtime can watch membership
	// removals (coordinator-death observation) while a layer such as the
	// data service owns Handlers. It runs before the application handler
	// at the same ordered position.
	sysTee func(SysEvent)

	// Receive-path state. onPacket may run concurrently (one callback per
	// conn on the batched UDP path), so the chunk assembler has its own
	// lock.
	pktMu      sync.Mutex
	asm        *wire.Assembler
	asmDropped int64

	// chunkFrameID numbers this node's outgoing chunked token frames; the
	// receiver uses it to supersede stale partial frames.
	chunkFrameID atomic.Uint64

	// lastTokArrival is the wall-clock nanotime the token last arrived at
	// this node (atomic: read by the bounded-staleness read path off the
	// loop goroutine). A token visit with nothing to deliver still proves
	// every multicast ordered before it has been seen, so it bounds how
	// stale this node's replicas can be.
	lastTokArrival atomic.Int64

	// tokenHooks run on the loop goroutine at every token arrival, before
	// the state machine steps — the natural flush clock for layers that
	// coalesce submissions (ops buffered since the last visit cannot be
	// ordered any earlier than this arrival). Hooks must be fast and must
	// not call Multicast or post events synchronously: the loop goroutine
	// is the events channel's consumer, so a synchronous post can
	// deadlock when the channel is full. Kick a goroutine instead.
	tokenHooks atomic.Pointer[[]func()]

	// Zero-copy pinning, owned by the loop goroutine: while the possessed
	// token's payload views alias a pooled receive buffer, pinBuf holds a
	// reference to it and pinTok identifies the token (pointer identity
	// against sm.PossessedToken).
	pinBuf *wire.Buf
	pinTok *wire.Token
	// viewStep marks steps whose deliveries may alias a pooled buffer;
	// deliver then copies payloads before handing them up.
	viewStep bool

	// Rest observability (loop goroutine only): restFrom is the arrival
	// of the possession whose pass is still to be observed, arriving marks
	// the execution of an arrival's own actions, so a pass among them was
	// made on arrival. restHist, idlePasses and budgetPasses are this
	// ring's token_rest_seconds, token_idle_passes_total and
	// token_budget_passes_total series.
	restFrom     time.Time
	arriving     bool
	restHist     *stats.Histogram
	idlePasses   *stats.Counter
	budgetPasses *stats.Counter

	// Snapshot state maintained by the loop, read by API methods.
	mu          sync.Mutex
	members     []NodeID
	epoch       uint64
	state       ring.NodeState
	stopped     bool
	lastToken   time.Time
	submitTimes []time.Time // FIFO of Multicast submit times for latency
	lockWaiter  chan struct{}
	lockHeld    bool

	stopOnce sync.Once
}

// tokenArrival wraps EvTokenReceived with the pooled receive buffer backing
// the token's zero-copy payload views; the loop unwraps it before Step and
// decides whether to pin the buffer. Embedding keeps it a valid ring.Event
// so it rides the events channel.
type tokenArrival struct {
	ring.EvTokenReceived
	buf *wire.Buf
}

// newNode builds the transport-independent part of a node.
func newNode(cfg Config) (*Node, error) {
	if cfg.ID == wire.NoNode {
		return nil, errors.New("core: Config.ID must be non-zero")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.Registry == nil {
		cfg.Registry = stats.NewRegistry()
	}
	cfg.Ring.ID = cfg.ID
	if cfg.Ring.SeqBase == 0 {
		// New incarnations must not reuse sequence numbers: derive the
		// base from the wall clock.
		cfg.Ring.SeqBase = uint64(time.Now().UnixNano())
	}
	ringLabel := strconv.FormatUint(uint64(cfg.RingID), 10)
	return &Node{
		id:           cfg.ID,
		ringID:       cfg.RingID,
		clk:          cfg.Clock,
		reg:          cfg.Registry,
		sm:           ring.New(cfg.Ring),
		trc:          cfg.Trace,
		asm:          wire.NewAssembler(),
		restHist:     cfg.Registry.Histogram(stats.LabeledName(stats.HistTokenRest, "ring", ringLabel)),
		idlePasses:   cfg.Registry.Counter(stats.LabeledName(stats.MetricTokenIdlePasses, "ring", ringLabel)),
		budgetPasses: cfg.Registry.Counter(stats.LabeledName(stats.MetricTokenBudgetPasses, "ring", ringLabel)),
		events:       make(chan ring.Event, 1024),
		done:         make(chan struct{}),
		state:        ring.Down,
	}, nil
}

// NewNode builds a node over the given transport conns (one per local
// physical address). The node owns the transport exclusively; use
// NewNodeOnDemux to share one transport between several rings. Call Start
// to boot it as a singleton group; groups assemble via the
// eligible-membership discovery protocol or Join.
func NewNode(cfg Config, conns []transport.PacketConn) (*Node, error) {
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	n.tr = transport.New(cfg.ID, conns, cfg.Clock, n.reg, cfg.Transport)
	n.tr.SetHandler(n.onPacket)
	return n, nil
}

// NewNodeOnDemux builds a node on a shared transport: the node sends
// through the demux's transport and receives only the frames addressed to
// its cfg.RingID. Closing the node releases the ring registration but
// leaves the shared transport (and the other rings on it) running; the
// transport's owner — typically a Runtime — closes it.
func NewNodeOnDemux(cfg Config, d *transport.Demux) (*Node, error) {
	if cfg.Registry == nil {
		// Share the transport's registry so per-ring protocol metrics
		// and transport metrics aggregate in one place by default.
		cfg.Registry = d.Transport().Stats()
	}
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	n.tr = d.Transport()
	n.demux = d
	if err := d.Register(cfg.RingID, n.onPacket); err != nil {
		return nil, err
	}
	return n, nil
}

// ID returns the node identity.
func (n *Node) ID() NodeID { return n.id }

// Ring returns the ring this node's protocol instance belongs to.
func (n *Node) Ring() RingID { return n.ringID }

// Stats returns the node's metric registry.
func (n *Node) Stats() *stats.Registry { return n.reg }

// LastTokenArrival reports the wall-clock time the ring's token last
// arrived at this node (zero before the first arrival). Safe to call from
// any goroutine.
func (n *Node) LastTokenArrival() time.Time {
	ns := n.lastTokArrival.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Transport exposes the transport layer for peer registration.
func (n *Node) Transport() *transport.Transport { return n.tr }

// SetPeer registers a peer's physical addresses.
func (n *Node) SetPeer(id NodeID, addrs []transport.Addr) { n.tr.SetPeer(id, addrs) }

// SetHandlers installs the application callbacks. Must be called before
// Start to observe every event.
func (n *Node) SetHandlers(h Handlers) {
	n.handlerMu.Lock()
	defer n.handlerMu.Unlock()
	n.handlers = h
}

func (n *Node) getHandlers() Handlers {
	n.handlerMu.Lock()
	defer n.handlerMu.Unlock()
	return n.handlers
}

// OnTokenArrival registers fn to run on the node's loop goroutine at
// every token arrival, before the arrival steps the state machine. See
// the tokenHooks field for the contract: fn must be cheap and must not
// synchronously post events (spawn a goroutine for any submission).
// Hooks cannot be unregistered; register once per layer.
func (n *Node) OnTokenArrival(fn func()) {
	n.handlerMu.Lock()
	defer n.handlerMu.Unlock()
	var cur []func()
	if p := n.tokenHooks.Load(); p != nil {
		cur = *p
	}
	next := make([]func(), len(cur)+1)
	copy(next, cur)
	next[len(cur)] = fn
	n.tokenHooks.Store(&next)
}

// setStopHook installs the supervisor shutdown callback.
func (n *Node) setStopHook(fn func(reason string)) {
	n.handlerMu.Lock()
	defer n.handlerMu.Unlock()
	n.stopHook = fn
}

func (n *Node) getStopHook() func(string) {
	n.handlerMu.Lock()
	defer n.handlerMu.Unlock()
	return n.stopHook
}

// setSysTee installs the supervisor's ordered system-event observer.
func (n *Node) setSysTee(fn func(SysEvent)) {
	n.handlerMu.Lock()
	defer n.handlerMu.Unlock()
	n.sysTee = fn
}

func (n *Node) getSysTee() func(SysEvent) {
	n.handlerMu.Lock()
	defer n.handlerMu.Unlock()
	return n.sysTee
}

// Start boots the node as a singleton group and begins the event loop.
func (n *Node) Start() {
	n.loopWG.Add(1)
	go n.loop()
	n.post(ring.EvStart{})
}

// StartJoining boots the node as a rejoining member: instead of forming
// a singleton group it sends 911 join requests to its eligible peers
// (§2.3) until an existing group admits it, seeding a fresh group only
// when no peer outranks it. A node restarting from a durable WAL uses
// this path so it re-enters through the ordered join announcement — and
// the delta state transfer keyed off its recovered applied vector —
// rather than a discovery merge's full resync.
func (n *Node) StartJoining() {
	n.loopWG.Add(1)
	go n.loop()
	n.post(ring.EvStartJoining{})
}

// post enqueues an event for the loop; drops if the node stopped.
func (n *Node) post(ev ring.Event) {
	select {
	case <-n.done:
	case n.events <- ev:
	}
}

// loop is the single goroutine that owns the state machine.
func (n *Node) loop() {
	defer n.loopWG.Done()
	for {
		select {
		case <-n.done:
			return
		case ev := <-n.events:
			var buf *wire.Buf
			var tok *wire.Token
			if ta, ok := ev.(tokenArrival); ok {
				buf, tok = ta.buf, ta.Tok
				ev = ta.EvTokenReceived
			}
			te, arriving := ev.(ring.EvTokenReceived)
			if arriving {
				// Every arrival counts — including bufferless merge and
				// recovery tokens — for both the staleness stamp and the
				// registered flush hooks.
				n.lastTokArrival.Store(time.Now().UnixNano())
				if hooks := n.tokenHooks.Load(); hooks != nil {
					for _, fn := range *hooks {
						fn()
					}
				}
				te.At = n.clk.Now() // the state machine places the rest by it
				ev = te
			}
			n.countTaskSwitch(ev)
			n.traceEvent(ev)
			acts := n.sm.Step(ev)
			if arriving && n.sm.PossessedToken() == te.Tok {
				n.restFrom = te.At
			}
			rel0, rel1 := n.updatePin(buf, tok)
			n.arriving = arriving
			n.execute(acts)
			n.arriving = false
			// Buffers are released only after the step's actions ran:
			// deliveries among them may still read the payload views.
			rel0.Release()
			rel1.Release()
		}
	}
}

// updatePin reconciles buffer pinning with token possession after a Step.
// The pooled receive buffer backing the possessed token's payload views
// must live exactly as long as the state machine can reference those views:
// an incoming buffer is adopted when its token became the possessed one,
// and the previous pin is dropped when its token moved on. Returned buffers
// are for the caller to release after executing the step's actions.
func (n *Node) updatePin(buf *wire.Buf, tok *wire.Token) (rel0, rel1 *wire.Buf) {
	poss := n.sm.PossessedToken()
	if n.pinBuf != nil && n.pinTok != poss {
		rel0 = n.pinBuf
		n.pinBuf, n.pinTok = nil, nil
	}
	if buf != nil {
		if tok != nil && poss == tok {
			n.pinBuf, n.pinTok = buf, tok // adopt the receive path's reference
		} else {
			rel1 = buf // token dropped, superseded, or held only as a view
		}
	}
	n.viewStep = n.pinBuf != nil || rel0 != nil || rel1 != nil
	return rel0, rel1
}

// countTaskSwitch implements the paper's §4.1 CPU overhead metric: one
// task switch per wake-up of the group-communication layer, i.e. per
// received protocol packet and per protocol timer fire. Transport-level
// acknowledgements and delivery notifications are handled in the
// transport's context (like NIC interrupts in the paper's model) and do
// not count; neither do local API calls, which run on application time.
func (n *Node) countTaskSwitch(ev ring.Event) {
	switch ev.(type) {
	case ring.EvTokenReceived, ring.Ev911Received, ring.Ev911ReplyReceived,
		ring.EvBodyodorReceived, ring.EvForwardReceived, ring.EvTimer:
		n.reg.Counter(stats.MetricTaskSwitches).Inc()
	}
}

// traceEvent records notable protocol events when tracing is enabled.
func (n *Node) traceEvent(ev ring.Event) {
	if n.trc == nil {
		return
	}
	switch e := ev.(type) {
	case ring.EvTokenReceived:
		n.trc.Add(trace.KindTokenRecv, "from %v epoch=%d seq=%d msgs=%d",
			e.From, e.Tok.Epoch, e.Tok.Seq, len(e.Tok.Msgs))
	case ring.EvTokenSendFailed:
		n.trc.Add(trace.KindTokenLostPeer, "pass to %v failed (epoch=%d seq=%d)", e.To, e.Epoch, e.Seq)
	case ring.Ev911Received:
		n.trc.Add(trace.Kind911, "911 from %v copy=(%d,%d)", e.M.From, e.M.Epoch, e.M.Seq)
	}
}

// onPacket decodes a session message from the transport and posts it. buf,
// when non-nil, is the pooled receive buffer backing payload: the decode is
// zero-copy, so token payload views alias it and the loop pins it for as
// long as the token stays possessed. Chunked (version-3) frames are
// reassembled first; a reassembled frame is owned, so its views need no
// pinning.
func (n *Node) onPacket(from wire.NodeID, payload []byte, buf *wire.Buf) {
	if wire.IsChunk(payload) {
		if ringID, err := wire.PeekRing(payload); err != nil || ringID != n.ringID {
			return
		}
		n.pktMu.Lock()
		frame, err := n.asm.Add(from, payload)
		dropped := n.asm.Dropped - n.asmDropped
		n.asmDropped = n.asm.Dropped
		n.pktMu.Unlock()
		if dropped > 0 {
			n.reg.Counter(stats.MetricChunkDrops).Add(dropped)
		}
		if err != nil || frame == nil {
			return
		}
		n.reg.Counter(stats.MetricChunksAssembled).Inc()
		payload, buf = frame, nil
	}
	env, err := wire.DecodeView(payload)
	if err != nil {
		return // corrupt or foreign frame
	}
	if env.Ring != n.ringID {
		return // another ring's frame (only reachable without a demux)
	}
	switch env.Kind {
	case wire.KindToken:
		tok := env.Token
		if buf == nil {
			n.post(ring.EvTokenReceived{From: from, Tok: tok})
			return
		}
		if tok.TBM {
			// Merge tokens are parked by the state machine until our own
			// token arrives; own them instead of pinning a receive buffer
			// for an unbounded wait.
			n.post(ring.EvTokenReceived{From: from, Tok: tok.Clone()})
			return
		}
		buf.Retain()
		n.postToken(tokenArrival{ring.EvTokenReceived{From: from, Tok: tok}, buf})
	case wire.Kind911:
		n.post(ring.Ev911Received{M: *env.M911})
	case wire.Kind911Reply:
		n.post(ring.Ev911ReplyReceived{M: *env.M911R})
	case wire.KindBodyodor:
		n.post(ring.EvBodyodorReceived{M: *env.Bodyodor})
	case wire.KindForward:
		m := *env.Forward
		if buf != nil {
			// The state machine queues forwards beyond this callback; the
			// payload view must not outlive the receive buffer.
			m.Payload = append([]byte(nil), m.Payload...)
		}
		n.post(ring.EvForwardReceived{M: m})
	}
}

// postToken enqueues a token arrival carrying a retained buffer reference,
// releasing it if the node is already stopping.
func (n *Node) postToken(ta tokenArrival) {
	select {
	case <-n.done:
		ta.buf.Release()
	case n.events <- ta:
	}
}

// execute applies the state machine's actions to the outside world.
func (n *Node) execute(acts []ring.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case ring.ActSendToken:
			n.sendToken(act)
		case ring.ActSend911:
			m := act.M
			to := act.To
			n.tr.Send(to, wire.Encode911Ring(n.ringID, &m), func(err error) {
				if err != nil {
					n.post(ring.Ev911SendFailed{To: to, ReqID: m.ReqID})
				}
			})
		case ring.ActSend911Reply:
			m := act.M
			n.tr.Send(act.To, wire.Encode911ReplyRing(n.ringID, &m), nil)
		case ring.ActSendBodyodor:
			m := act.M
			n.tr.Send(act.To, wire.EncodeBodyodorRing(n.ringID, &m), nil)
		case ring.ActSetTimer:
			n.setTimer(act.Kind, act.D)
		case ring.ActStopTimer:
			n.stopTimer(act.Kind)
		case ring.ActDeliver:
			n.deliver(act.Msg)
		case ring.ActMembershipChanged:
			n.mu.Lock()
			n.members = append([]NodeID(nil), act.Members...)
			n.epoch = act.Epoch
			n.mu.Unlock()
			if n.trc != nil {
				n.trc.Add(trace.KindMembership, "view %v epoch=%d", act.Members, act.Epoch)
			}
			if h := n.getHandlers().OnMembership; h != nil {
				h(MembershipEvent{Members: act.Members, Epoch: act.Epoch})
			}
		case ring.ActStateChanged:
			n.mu.Lock()
			n.state = act.State
			n.mu.Unlock()
			if n.trc != nil {
				n.trc.Add(trace.KindStateChange, "%v", act.State)
			}
		case ring.ActHoldGranted:
			n.mu.Lock()
			n.lockHeld = true
			w := n.lockWaiter
			n.lockWaiter = nil
			n.mu.Unlock()
			if w != nil {
				close(w)
			}
		case ring.ActTokenRegenerated:
			n.reg.Counter(stats.MetricTokenRegens).Inc()
			if n.trc != nil {
				n.trc.Add(trace.KindRegen, "regenerated epoch=%d", act.Epoch)
			}
		case ring.ActMergeCompleted:
			n.reg.Counter(stats.MetricMerges).Inc()
			if n.trc != nil {
				n.trc.Add(trace.KindMerge, "merged view %v epoch=%d", act.Members, act.Epoch)
			}
		case ring.ActShutdown:
			n.mu.Lock()
			n.stopped = true
			n.mu.Unlock()
			if h := n.getHandlers().OnShutdown; h != nil {
				h(act.Reason)
			}
			if hook := n.getStopHook(); hook != nil {
				hook(act.Reason)
			}
			go n.Close() // release resources outside the loop
		}
	}
}

func (n *Node) sendToken(act ring.ActSendToken) {
	tok := act.Tok
	to := act.To
	now := n.clk.Now()
	n.observeTokenInterval(now)
	n.observeRest(now, act)
	size := wire.EncodedTokenSize(n.ringID, tok)
	if size > transport.MaxSessionFrame {
		n.sendTokenChunked(to, tok, size)
		return
	}
	fb := wire.GetBufSize(size)
	frame := wire.AppendTokenRing(fb.B[:0], n.ringID, tok)
	n.tr.Send(to, frame, func(err error) {
		if err != nil {
			n.post(ring.EvTokenSendFailed{To: to, Epoch: tok.Epoch, Seq: tok.Seq})
			return
		}
		n.reg.Counter(stats.MetricTokenPasses).Inc()
		if n.trc != nil {
			n.trc.Add(trace.KindTokenPass, "to %v epoch=%d seq=%d", to, tok.Epoch, tok.Seq)
		}
		n.post(ring.EvTokenAcked{To: to, Epoch: tok.Epoch, Seq: tok.Seq})
	})
	fb.Release() // Send framed the payload into its own pooled buffer
}

// sendTokenChunked splits an oversized token frame — typically a master-lock
// release burst, whose holder is exempt from the attach budget — into
// version-3 chunks and reports one aggregated outcome to the state machine:
// the first failed chunk fails the pass, the last acknowledged chunk
// completes it.
func (n *Node) sendTokenChunked(to wire.NodeID, tok *wire.Token, size int) {
	frame := wire.AppendTokenRing(make([]byte, 0, size), n.ringID, tok)
	chunks, err := wire.ChunkFrame(frame, n.ringID, n.chunkFrameID.Add(1), transport.MaxSessionFrame)
	if err != nil {
		n.post(ring.EvTokenSendFailed{To: to, Epoch: tok.Epoch, Seq: tok.Seq})
		return
	}
	n.reg.Counter(stats.MetricChunkedFrames).Inc()
	epoch, seq := tok.Epoch, tok.Seq
	remaining := new(atomic.Int64)
	failed := new(atomic.Bool)
	remaining.Store(int64(len(chunks)))
	cb := func(err error) {
		if err != nil && !failed.Swap(true) {
			n.post(ring.EvTokenSendFailed{To: to, Epoch: epoch, Seq: seq})
		}
		if remaining.Add(-1) == 0 && !failed.Load() {
			n.reg.Counter(stats.MetricTokenPasses).Inc()
			if n.trc != nil {
				n.trc.Add(trace.KindTokenPass, "to %v epoch=%d seq=%d (%d chunks)",
					to, epoch, seq, len(chunks))
			}
			n.post(ring.EvTokenAcked{To: to, Epoch: epoch, Seq: seq})
		}
	}
	for _, c := range chunks {
		n.tr.Send(to, c, cb)
	}
}

// observeRest records how long the possession this pass ends rested, and
// counts the pass if its attach budget was spent or, failing that, if it
// was made on arrival.
func (n *Node) observeRest(now time.Time, act ring.ActSendToken) {
	if act.Tok.TBM || n.restFrom.IsZero() {
		return // a merge hand-off, or the retry of an observed pass
	}
	n.restHist.Observe(now.Sub(n.restFrom))
	n.restFrom = time.Time{}
	switch {
	case act.Spent:
		n.budgetPasses.Inc()
	case n.arriving:
		n.idlePasses.Inc()
	}
}

// observeTokenInterval records the spacing of outgoing token passes, which
// over a full ring equals the token round-trip (§4.1's L).
func (n *Node) observeTokenInterval(now time.Time) {
	n.mu.Lock()
	last := n.lastToken
	n.lastToken = now
	n.mu.Unlock()
	if !last.IsZero() {
		n.reg.Histogram(stats.HistTokenRoundTrip).Observe(now.Sub(last))
	}
}

func (n *Node) deliver(m wire.Message) {
	n.reg.Counter(stats.MetricMsgsDelivered).Inc()
	h := n.getHandlers()
	if m.Sys != wire.SysApp {
		ev := SysEvent{Kind: m.Sys, Subject: m.Subject, Origin: m.Origin}
		if tee := n.getSysTee(); tee != nil {
			tee(ev)
		}
		if h.OnSys != nil {
			h.OnSys(ev)
		}
		return
	}
	if m.Origin == n.id {
		n.mu.Lock()
		if len(n.submitTimes) > 0 {
			n.reg.Histogram(stats.HistMulticastLatency).Observe(n.clk.Now().Sub(n.submitTimes[0]))
			n.submitTimes = n.submitTimes[1:]
		}
		n.mu.Unlock()
	}
	if h.OnDeliver != nil {
		pay := m.Payload
		if n.viewStep && len(pay) > 0 {
			// The payload is a zero-copy view into a pooled receive buffer
			// that may be recycled after this step; the application owns
			// what it is handed, so copy exactly here, at the boundary.
			pay = append([]byte(nil), pay...)
		}
		h.OnDeliver(Delivery{Origin: m.Origin, Seq: m.Seq, Safe: m.Safe, Payload: pay})
	}
}

func (n *Node) setTimer(kind ring.TimerKind, d time.Duration) {
	if t := n.timers[kind]; t != nil {
		t.Stop()
	}
	n.mu.Lock()
	n.timerGen[kind]++
	gen := n.timerGen[kind]
	n.mu.Unlock()
	k := kind
	n.timers[kind] = n.clk.AfterFunc(d, func() {
		n.mu.Lock()
		valid := n.timerGen[k] == gen
		n.mu.Unlock()
		if valid {
			n.post(ring.EvTimer{Kind: k})
		}
	})
}

func (n *Node) stopTimer(kind ring.TimerKind) {
	if t := n.timers[kind]; t != nil {
		t.Stop()
	}
	n.mu.Lock()
	n.timerGen[kind]++
	n.mu.Unlock()
}

// Multicast submits a payload for atomic reliable multicast with agreed
// ordering (§2.6). Delivery to the local application happens through the
// OnDeliver handler like everywhere else.
func (n *Node) Multicast(payload []byte) error {
	return n.submit(payload, false)
}

// MulticastSafe submits a payload with safe ordering: delivery is withheld
// until every member provably holds the message (§2.6).
func (n *Node) MulticastSafe(payload []byte) error {
	return n.submit(payload, true)
}

func (n *Node) submit(payload []byte, safe bool) error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	n.submitTimes = append(n.submitTimes, n.clk.Now())
	n.mu.Unlock()
	n.reg.Counter(stats.MetricMsgsSent).Inc()
	n.post(ring.EvSubmit{Payload: append([]byte(nil), payload...), Safe: safe})
	return nil
}

// Members returns the current membership view.
func (n *Node) Members() []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]NodeID(nil), n.members...)
}

// Epoch returns the current group epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// State returns the node's protocol state.
func (n *Node) State() ring.NodeState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// Stopped reports whether the node shut down.
func (n *Node) Stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// Lock acquires the cluster master lock (§2.7): it returns once this node
// holds the token and the token is pinned. While held, no other node can
// be EATING, so changes to shared state are authoritative.
func (n *Node) Lock(ctx context.Context) error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	if n.lockHeld {
		n.mu.Unlock()
		return errors.New("core: master lock already held by this node")
	}
	if n.lockWaiter != nil {
		n.mu.Unlock()
		return errors.New("core: concurrent Lock in progress")
	}
	w := make(chan struct{})
	n.lockWaiter = w
	n.mu.Unlock()
	n.post(ring.EvHoldRequest{})
	select {
	case <-w:
		return nil
	case <-ctx.Done():
		n.mu.Lock()
		stillWaiting := n.lockWaiter == w
		if stillWaiting {
			n.lockWaiter = nil
		}
		held := n.lockHeld
		n.mu.Unlock()
		if !stillWaiting && held {
			// Granted concurrently with cancellation: release it.
			n.Unlock()
		} else {
			n.post(ring.EvHoldRelease{})
		}
		return ctx.Err()
	case <-n.done:
		return ErrStopped
	}
}

// Unlock releases the master lock and lets the token circulate again.
func (n *Node) Unlock() {
	n.mu.Lock()
	n.lockHeld = false
	n.mu.Unlock()
	n.post(ring.EvHoldRelease{})
}

// Join sends a 911 join request to a known member (§2.3). The group admits
// this node and sends it the token; membership change is observable via
// OnMembership. Join is best-effort: retry until Members grows.
func (n *Node) Join(seed NodeID) error {
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if stopped {
		return ErrStopped
	}
	m := wire.Msg911{From: n.id, Epoch: 0, Seq: 0, ReqID: uint64(time.Now().UnixNano())}
	errCh := make(chan error, 1)
	n.tr.Send(seed, wire.Encode911Ring(n.ringID, &m), func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		return fmt.Errorf("core: join via %v: %w", seed, err)
	}
	return nil
}

// Leave removes the node from the group gracefully and stops it.
func (n *Node) Leave() {
	n.post(ring.EvLeave{})
}

// FailCriticalResource reports a critical resource failure (§2.4): the
// node removes itself from the group and shuts down.
func (n *Node) FailCriticalResource(name string) {
	n.post(ring.EvCriticalResourceFailed{Resource: name})
}

// SetEligible replaces the eligible membership online (§2.4).
func (n *Node) SetEligible(ids []NodeID) {
	n.post(ring.EvSetEligible{IDs: ids})
}

// Close stops the event loop and releases the node's transport resources:
// an exclusively owned transport is closed, a shared (demux) transport only
// loses this node's ring registration. It does not announce a graceful
// leave; use Leave for that.
func (n *Node) Close() error {
	n.stopOnce.Do(func() {
		close(n.done)
		n.loopWG.Wait()
		for _, t := range n.timers {
			if t != nil {
				t.Stop()
			}
		}
		n.mu.Lock()
		n.stopped = true
		w := n.lockWaiter
		n.lockWaiter = nil
		n.mu.Unlock()
		if w != nil {
			close(w)
		}
		if n.demux != nil {
			n.demux.Unregister(n.ringID)
		} else {
			n.tr.Close()
		}
		// Receive callbacks are done now: release the pinned buffer and any
		// token buffers still queued behind the stopped loop.
		if n.pinBuf != nil {
			n.pinBuf.Release()
			n.pinBuf, n.pinTok = nil, nil
		}
	drain:
		for {
			select {
			case ev := <-n.events:
				if ta, ok := ev.(tokenArrival); ok {
					ta.buf.Release()
				}
			default:
				break drain
			}
		}
	})
	return nil
}
