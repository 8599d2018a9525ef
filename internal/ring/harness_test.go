package ring

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/wire"
)

// The harness runs several state machines against a virtual-time scheduler
// that models the Raincore Transport Service's semantics: a send either
// arrives (after a delay) and is acknowledged, or the sender receives a
// failure-on-delivery notification. Everything is deterministic given the
// seed, so protocol scenarios (crashes, partitions, merges) replay exactly.

type simEvent struct {
	at    time.Duration
	seq   uint64
	node  wire.NodeID
	ev    Event
	timer *timerRef // non-nil for timer events: fire only if still armed
}

type timerRef struct {
	kind TimerKind
	gen  uint64
}

type eventHeap []*simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)     { *h = append(*h, x.(*simEvent)) }
func (h *eventHeap) Pop() any       { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() *simEvent { return h[0] }

type simNode struct {
	sm        *SM
	timers    [numTimers]uint64 // generation; odd = armed
	crashed   bool
	delivered []wire.Message
	members   []wire.NodeID
	shutdown  bool
	regens    int
	merges    int
	holds     int
	s911      int
	// gotAt is when the current possession's token arrived (valid while
	// resting); passes records every non-merge pass this node made.
	gotAt   time.Duration
	resting bool
	passes  []simPass
	// holdFor is the arrival of the possession that armed the hold timer
	// (holdArmed: it was armed while resting); strayHolds counts hold-timer
	// fires that outlived that possession.
	holdFor    time.Duration
	holdArmed  bool
	strayHolds int
}

// simPass is one token pass: when it was sent, how long the possession
// it ended rested, whether it was made on arrival, and whether it was made
// because the possession's attach budget was spent.
type simPass struct {
	at, rest  time.Duration
	onArrival bool
	spent     bool
}

type cluster struct {
	t      testing.TB
	nodes  map[wire.NodeID]*simNode
	order  []wire.NodeID
	events eventHeap
	now    time.Duration
	seq    uint64
	rng    *rand.Rand

	delay time.Duration // one-way message delay
	cut   map[[2]wire.NodeID]bool
	part  map[wire.NodeID]int

	// unstamped delivers token arrivals without a time stamp, so every
	// member rests the fixed TokenHold (the paper's schedule).
	unstamped bool
	arriving  bool // the actions being applied come from a token arrival
}

// simEpoch anchors the virtual clock for token arrival stamps.
var simEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func newCluster(t testing.TB, cfgOf func(id wire.NodeID) Config, ids ...wire.NodeID) *cluster {
	c := &cluster{
		t:     t,
		nodes: make(map[wire.NodeID]*simNode),
		rng:   rand.New(rand.NewSource(1)),
		delay: time.Millisecond,
		cut:   make(map[[2]wire.NodeID]bool),
		part:  make(map[wire.NodeID]int),
	}
	for _, id := range ids {
		cfg := cfgOf(id)
		cfg.ID = id
		c.nodes[id] = &simNode{sm: New(cfg)}
		c.order = append(c.order, id)
	}
	return c
}

// defaultCfg is a tight-timer config for fast simulations.
func defaultCfg(eligible ...wire.NodeID) func(wire.NodeID) Config {
	return func(id wire.NodeID) Config {
		return Config{
			TokenHold:        5 * time.Millisecond,
			HungryTimeout:    40 * time.Millisecond,
			StarvingRetry:    30 * time.Millisecond,
			BodyodorInterval: 25 * time.Millisecond,
			Eligible:         eligible,
		}
	}
}

func (c *cluster) startAll() {
	for _, id := range c.order {
		c.inject(id, EvStart{})
	}
}

// inject feeds an event to a node immediately and executes its actions.
func (c *cluster) inject(id wire.NodeID, ev Event) {
	n := c.nodes[id]
	if n.crashed || n.shutdown {
		return
	}
	c.step(id, ev)
}

// step feeds one event to a node at the current virtual time, stamping
// token arrivals with it, and executes the resulting actions.
func (c *cluster) step(id wire.NodeID, ev Event) {
	n := c.nodes[id]
	te, arriving := ev.(EvTokenReceived)
	if arriving && !c.unstamped {
		te.At = simEpoch.Add(c.now)
		ev = te
	}
	acts := n.sm.Step(ev)
	if arriving && n.sm.PossessedToken() == te.Tok {
		n.gotAt, n.resting = c.now, true
	}
	c.arriving = arriving
	c.apply(id, acts)
	c.arriving = false
}

// schedule queues an event for later delivery.
func (c *cluster) schedule(d time.Duration, id wire.NodeID, ev Event, tr *timerRef) {
	c.seq++
	heap.Push(&c.events, &simEvent{at: c.now + d, seq: c.seq, node: id, ev: ev, timer: tr})
}

// reachable mirrors simnet topology rules.
func (c *cluster) reachable(from, to wire.NodeID) bool {
	if c.nodes[to] == nil || c.nodes[to].crashed || c.nodes[to].shutdown {
		return false
	}
	if c.nodes[from] == nil || c.nodes[from].crashed {
		return false
	}
	if c.cut[[2]wire.NodeID{from, to}] || c.cut[[2]wire.NodeID{to, from}] {
		return false
	}
	if c.part[from] != c.part[to] {
		return false
	}
	return true
}

// apply executes a node's actions against the simulated world.
func (c *cluster) apply(id wire.NodeID, acts []Action) {
	n := c.nodes[id]
	for _, a := range acts {
		switch act := a.(type) {
		case ActSendToken:
			if n.resting && !act.Tok.TBM {
				n.passes = append(n.passes, simPass{at: c.now, rest: c.now - n.gotAt, onArrival: c.arriving, spent: act.Spent})
				n.resting = false
			}
			if c.reachable(id, act.To) {
				c.schedule(c.delay, act.To, EvTokenReceived{From: id, Tok: act.Tok}, nil)
				c.schedule(2*c.delay, id, EvTokenAcked{To: act.To, Epoch: act.Tok.Epoch, Seq: act.Tok.Seq}, nil)
			} else {
				// Failure-on-delivery after the transport's retry budget.
				c.schedule(3*c.delay, id, EvTokenSendFailed{To: act.To, Epoch: act.Tok.Epoch, Seq: act.Tok.Seq}, nil)
			}
		case ActSend911:
			n.s911++
			if c.reachable(id, act.To) {
				c.schedule(c.delay, act.To, Ev911Received{M: act.M}, nil)
			} else {
				c.schedule(3*c.delay, id, Ev911SendFailed{To: act.To, ReqID: act.M.ReqID}, nil)
			}
		case ActSend911Reply:
			if c.reachable(id, act.To) {
				c.schedule(c.delay, act.To, Ev911ReplyReceived{M: act.M}, nil)
			}
		case ActSendBodyodor:
			if c.reachable(id, act.To) {
				c.schedule(c.delay, act.To, EvBodyodorReceived{M: act.M}, nil)
			}
		case ActSetTimer:
			if act.Kind == TimerTokenHold {
				n.holdFor, n.holdArmed = n.gotAt, n.resting
			}
			n.timers[act.Kind]++ // invalidates any previously scheduled fire
			c.schedule(act.D, id, EvTimer{Kind: act.Kind}, &timerRef{kind: act.Kind, gen: n.timers[act.Kind]})
		case ActStopTimer:
			n.timers[act.Kind]++ // disarm
		case ActDeliver:
			n.delivered = append(n.delivered, act.Msg)
		case ActMembershipChanged:
			n.members = append([]wire.NodeID(nil), act.Members...)
		case ActTokenRegenerated:
			n.regens++
		case ActMergeCompleted:
			n.merges++
		case ActHoldGranted:
			n.holds++
		case ActShutdown:
			n.shutdown = true
		case ActStateChanged:
			// observable via sm.State()
		}
	}
}

// run processes events until the virtual deadline.
func (c *cluster) run(until time.Duration) {
	deadline := c.now + until
	for len(c.events) > 0 && c.events.Peek().at <= deadline {
		e := heap.Pop(&c.events).(*simEvent)
		c.now = e.at
		n := c.nodes[e.node]
		if n == nil || n.crashed || n.shutdown {
			continue
		}
		if e.timer != nil && n.timers[e.timer.kind] != e.timer.gen {
			continue // timer was re-armed or stopped since scheduling
		}
		if e.timer != nil && e.timer.kind == TimerTokenHold && n.holdArmed &&
			(!n.resting || n.gotAt != n.holdFor) {
			n.strayHolds++
		}
		c.step(e.node, e.ev)
	}
	if c.now < deadline {
		c.now = deadline
	}
}

func (c *cluster) crash(id wire.NodeID) { c.nodes[id].crashed = true }

func (c *cluster) revive(id wire.NodeID) {
	n := c.nodes[id]
	n.crashed = false
	n.shutdown = false
	// A restarted node is a new incarnation: its multicast sequence
	// numbers must not reuse the old range (Config.SeqBase).
	cfg := n.sm.cfg
	cfg.SeqBase = n.sm.nextSeq + 1<<32
	n.sm = New(cfg)
	n.delivered = nil
	c.inject(id, EvStart{})
}

func (c *cluster) partition(groups ...[]wire.NodeID) {
	c.part = make(map[wire.NodeID]int)
	for i, g := range groups {
		for _, id := range g {
			c.part[id] = i
		}
	}
}

func (c *cluster) heal() { c.part = make(map[wire.NodeID]int) }

// live returns IDs of nodes that are running.
func (c *cluster) live() []wire.NodeID {
	var out []wire.NodeID
	for _, id := range c.order {
		n := c.nodes[id]
		if !n.crashed && !n.shutdown {
			out = append(out, id)
		}
	}
	return out
}

// --- invariant checks ---

// requireMembershipAgreement asserts that all live nodes share the same
// membership view equal to exactly the live set (§2.5, quiescent period).
func (c *cluster) requireMembershipAgreement() {
	c.t.Helper()
	want := wire.SortedIDs(c.live())
	for _, id := range c.live() {
		got := wire.SortedIDs(c.nodes[id].sm.Members())
		if fmt.Sprint(got) != fmt.Sprint(want) {
			c.t.Fatalf("node %v membership = %v, want %v", id, got, want)
		}
	}
}

// requireSingleToken asserts the group has converged to exactly one
// circulating token. A pass in flight legitimately shows the token at two
// nodes (the sender retains it until the acknowledgement, §2.2), so the
// check advances the simulation to a settled instant: exactly one node
// possessing the token with no pass outstanding.
func (c *cluster) requireSingleToken() {
	c.t.Helper()
	for attempt := 0; attempt < 400; attempt++ {
		settled, holders := 0, 0
		for _, id := range c.live() {
			sm := c.nodes[id].sm
			if sm.HasToken() {
				holders++
				if !sm.passing {
					settled++
				}
			}
		}
		if settled > 1 {
			c.t.Fatalf("%d settled token holders, want at most 1", settled)
		}
		if settled == 1 && holders == 1 {
			return
		}
		c.run(500 * time.Microsecond)
	}
	c.t.Fatal("token never settled at a single holder")
}

// appPayloads filters a node's deliveries to application messages.
func appPayloads(n *simNode) []string {
	var out []string
	for _, m := range n.delivered {
		if m.Sys == wire.SysApp {
			out = append(out, string(m.Payload))
		}
	}
	return out
}

// requireAtomicDelivery asserts every live node delivered exactly the
// given set of payloads (any order check is separate).
func (c *cluster) requireAtomicDelivery(want map[string]bool) {
	c.t.Helper()
	for _, id := range c.live() {
		got := appPayloads(c.nodes[id])
		if len(got) != len(want) {
			c.t.Fatalf("node %v delivered %d messages (%v), want %d", id, len(got), got, len(want))
		}
		seen := map[string]bool{}
		for _, p := range got {
			if seen[p] {
				c.t.Fatalf("node %v delivered %q twice", id, p)
			}
			seen[p] = true
			if !want[p] {
				c.t.Fatalf("node %v delivered unexpected %q", id, p)
			}
		}
	}
}

// requireConsistentOrder asserts any two live nodes deliver their common
// application messages in the same relative order (agreed ordering, §2.6).
func (c *cluster) requireConsistentOrder() {
	c.t.Helper()
	ids := c.live()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a := appIDs(c.nodes[ids[i]])
			b := appIDs(c.nodes[ids[j]])
			if !sameRelativeOrder(a, b) {
				c.t.Fatalf("nodes %v and %v disagree on delivery order:\n%v\n%v",
					ids[i], ids[j], a, b)
			}
		}
	}
}

func appIDs(n *simNode) []wire.MessageID {
	var out []wire.MessageID
	for _, m := range n.delivered {
		if m.Sys == wire.SysApp {
			out = append(out, m.ID())
		}
	}
	return out
}

// sameRelativeOrder checks that the common elements of a and b appear in
// the same order in both.
func sameRelativeOrder(a, b []wire.MessageID) bool {
	posB := make(map[wire.MessageID]int, len(b))
	for i, id := range b {
		posB[id] = i
	}
	last := -1
	for _, id := range a {
		if p, ok := posB[id]; ok {
			if p < last {
				return false
			}
			last = p
		}
	}
	return true
}

// assemble boots all nodes and lets discovery merge them into one group.
func (c *cluster) assemble() {
	c.t.Helper()
	c.startAll()
	c.run(2 * time.Second)
	c.requireMembershipAgreement()
	c.requireSingleToken()
}
