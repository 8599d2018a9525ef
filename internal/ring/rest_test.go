package ring

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// These tests pin where each rotation's rest budget is spent (restFor) on
// the virtual-time harness. The config gives R = 4 x 5 ms = 20 ms on a
// four-member ring, exactly the HungryTimeout/2 cap.

const restHold = 5 * time.Millisecond

func restCfg(eligible ...wire.NodeID) func(wire.NodeID) Config {
	return func(id wire.NodeID) Config {
		return Config{
			TokenHold:        restHold,
			HungryTimeout:    40 * time.Millisecond,
			StarvingRetry:    30 * time.Millisecond,
			BodyodorInterval: 25 * time.Millisecond,
			Eligible:         eligible,
		}
	}
}

var ring4 = []wire.NodeID{1, 2, 3, 4}

// newRestCluster assembles a four-member ring on the rest config and lets
// its idle rotation settle.
func newRestCluster(t *testing.T) *cluster {
	t.Helper()
	c := newCluster(t, restCfg(ring4...), ring4...)
	c.assemble()
	c.run(time.Second)
	return c
}

// submitEvery schedules a multicast from id every period for the next
// span, returning the payloads it will send.
func (c *cluster) submitEvery(id wire.NodeID, period, span time.Duration) map[string]bool {
	want := map[string]bool{}
	for d := period; d <= span; d += period {
		p := fmt.Sprintf("n%v@%v", id, c.now+d)
		want[p] = true
		c.schedule(d, id, EvSubmit{Payload: []byte(p)}, nil)
	}
	return want
}

// passesSince returns a node's passes sent at or after virtual time t.
func (c *cluster) passesSince(id wire.NodeID, t time.Duration) []simPass {
	var out []simPass
	for _, p := range c.nodes[id].passes {
		if p.at >= t {
			out = append(out, p)
		}
	}
	return out
}

// requireRests asserts every pass a node made since t rested want (zero:
// made on arrival), and that there were at least min of them.
func (c *cluster) requireRests(id wire.NodeID, since time.Duration, want time.Duration, min int) {
	c.t.Helper()
	ps := c.passesSince(id, since)
	if len(ps) < min {
		c.t.Fatalf("node %v made %d passes since %v, want >= %d", id, len(ps), since, min)
	}
	for _, p := range ps {
		if p.rest != want || p.onArrival != (want == 0) {
			c.t.Fatalf("node %v pass at %v rested %v (on arrival %v), want %v", id, p.at, p.rest, p.onArrival, want)
		}
	}
}

func TestRestSettlesAtSingleWriter(t *testing.T) {
	c := newRestCluster(t)
	const budget = 4 * restHold
	rotation := budget + 4*c.delay
	want := c.submitEvery(2, time.Millisecond, 40*rotation)
	c.run(2 * rotation)
	settled := c.now
	c.run(40 * rotation)
	c.requireRests(2, settled, budget, 30)
	for _, id := range []wire.NodeID{1, 3, 4} {
		c.requireRests(id, settled, 0, 30)
	}
	c.run(time.Second)
	c.requireAtomicDelivery(want)
	c.requireConsistentOrder()
}

func TestRestEveryMemberActiveKeepsFixedSchedule(t *testing.T) {
	// The same ring twice: one on arrival stamps, one unstamped (the
	// paper's fixed TokenHold). With every member submitting at every
	// visit each member's passes must follow the fixed schedule exactly.
	// Assembly order depends on map iteration, so the rings may differ in
	// phase: compare the spacing of each member's passes, not their times.
	// An attach budget the outboxes stay below (about 30 multicasts a
	// visit against 64) changes nothing: only a spent budget passes early.
	for _, maxBatch := range []int{0, 64} {
		t.Run(fmt.Sprintf("MaxBatch=%d", maxBatch), func(t *testing.T) {
			everyMemberActiveKeepsFixedSchedule(t, maxBatch)
		})
	}
}

func everyMemberActiveKeepsFixedSchedule(t *testing.T, maxBatch int) {
	seed := newCluster(t, restCfg(ring4...), ring4...)
	placed := newCluster(t, budgetCfg(maxBatch), ring4...)
	for _, c := range []*cluster{seed, placed} {
		c.unstamped = true
		c.assemble()
		c.run(time.Second)
	}
	placed.unstamped = false
	start := placed.now
	for _, c := range []*cluster{seed, placed} {
		for _, id := range ring4 {
			c.submitEvery(id, time.Millisecond, 2*time.Second)
		}
		c.run(2 * time.Second)
	}
	gaps := func(ps []simPass) []time.Duration {
		var out []time.Duration
		for i := 1; i < len(ps); i++ {
			out = append(out, ps[i].at-ps[i-1].at)
		}
		return out
	}
	for _, id := range ring4 {
		placed.requireRests(id, start, restHold, 50)
		for _, p := range placed.passesSince(id, start) {
			if p.spent {
				t.Fatalf("node %v spent the budget at %v", id, p.at)
			}
		}
		got, want := gaps(placed.passesSince(id, start)), gaps(seed.passesSince(id, start))
		if d := len(got) - len(want); d < -1 || d > 1 {
			t.Fatalf("node %v: %d passes placed vs %d fixed", id, len(got)+1, len(want)+1)
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("node %v pass %d: %v after the last placed, %v fixed", id, i+1, got[i], want[i])
			}
		}
	}
}

func TestRestSplitsBetweenTwoWriters(t *testing.T) {
	c := newRestCluster(t)
	const budget = 4 * restHold
	rotation := budget + 4*c.delay
	c.submitEvery(1, time.Millisecond, 40*rotation)
	c.submitEvery(3, time.Millisecond, 40*rotation)
	c.run(3 * rotation)
	settled := c.now
	c.run(37 * rotation)
	c.requireRests(1, settled, budget/2, 30)
	c.requireRests(3, settled, budget/2, 30)
	c.requireRests(2, settled, 0, 30)
	c.requireRests(4, settled, 0, 30)
}

func TestRestSparseWriterKeepsItsShare(t *testing.T) {
	// Node 3 writes one op every two and a half rotations beside a busy
	// node 1: the 4R activity window carries it across the visits where
	// it has nothing queued, so it keeps R/2 instead of ceding its rest.
	c := newRestCluster(t)
	const budget = 4 * restHold
	rotation := budget + 4*c.delay
	c.submitEvery(1, time.Millisecond, 60*rotation)
	c.submitEvery(3, 5*rotation/2, 60*rotation)
	c.run(4 * rotation)
	settled := c.now
	c.run(56 * rotation)
	c.requireRests(1, settled, budget/2, 40)
	c.requireRests(3, settled, budget/2, 40)
	c.requireRests(2, settled, 0, 40)
}

func TestRestIdleRingKeepsRester(t *testing.T) {
	c := newRestCluster(t)
	const budget = 4 * restHold
	start := c.now
	c.run(2 * time.Second)
	rester := wire.NoNode
	for _, id := range ring4 {
		ps := c.passesSince(id, start)
		if len(ps) == 0 || ps[0].rest == 0 {
			continue
		}
		if rester != wire.NoNode {
			t.Fatalf("nodes %v and %v both rest on an idle ring", rester, id)
		}
		rester = id
	}
	if rester == wire.NoNode {
		t.Fatal("no member rests on the idle ring")
	}
	for _, id := range ring4 {
		if id == rester {
			c.requireRests(id, start, budget, 50)
		} else {
			c.requireRests(id, start, 0, 50)
		}
	}
	ps := c.passesSince(rester, start)
	for i := 1; i < len(ps); i++ {
		if gap := ps[i].at - ps[i-1].at; gap > budget+4*c.delay {
			t.Fatalf("idle rotation took %v, want <= R + n*delay = %v", gap, budget+4*c.delay)
		}
	}
}

func TestRestIdleRingDaemonTimersNo911(t *testing.T) {
	// raincored's defaults: TokenHold 100 ms, HungryTimeout 500 ms. Six
	// members at the fixed hold take 600 ms a rotation and starve; the
	// placed rest is capped at 250 ms, so 1000 idle rotations run with no
	// 911 at all.
	ids := []wire.NodeID{1, 2, 3, 4, 5, 6}
	cfg := func(wire.NodeID) Config {
		return Config{
			TokenHold:        100 * time.Millisecond,
			HungryTimeout:    500 * time.Millisecond,
			BodyodorInterval: time.Second,
			Eligible:         ids,
		}
	}
	for _, unstamped := range []bool{true, false} {
		c := newCluster(t, cfg, ids...)
		c.unstamped = unstamped
		c.startAll()
		c.run(10 * time.Second)
		c.requireMembershipAgreement()
		c.requireSingleToken()
		c.run(5 * time.Second)
		calls := 0
		for _, id := range ids {
			calls += c.nodes[id].s911 + c.nodes[id].regens
			c.nodes[id].s911, c.nodes[id].regens = 0, 0
		}
		start := c.now
		c.run(1000 * (250*time.Millisecond + 6*c.delay))
		for _, id := range ids {
			calls += c.nodes[id].s911 + c.nodes[id].regens
		}
		if unstamped {
			if calls == 0 {
				t.Fatal("fixed 100 ms hold on six members did not starve; the test proves nothing")
			}
			continue
		}
		for _, id := range ids {
			if n := c.nodes[id]; n.s911 != 0 || n.regens != 0 {
				t.Fatalf("node %v: %d 911s, %d regenerations on an idle ring", id, n.s911, n.regens)
			}
		}
		c.requireMembershipAgreement()
		if p := len(c.passesSince(1, start)); p < 990 {
			t.Fatalf("node 1 passed %d times in 1000 rotations", p)
		}
	}
}

func TestRestMasterLockHolderNeverPasses(t *testing.T) {
	// Node 2 is idle while 1 and 3 write, so every arrival would pass on
	// at once — except under the master lock (§2.7).
	c := newRestCluster(t)
	c.submitEvery(1, time.Millisecond, 2*time.Second)
	c.submitEvery(3, time.Millisecond, 2*time.Second)
	c.run(200 * time.Millisecond)
	c.inject(2, EvHoldRequest{})
	c.run(200 * time.Millisecond)
	n := c.nodes[2]
	if n.holds != 1 || !n.sm.HasToken() {
		t.Fatalf("node 2: %d grants, token %v; want the lock held", n.holds, n.sm.HasToken())
	}
	granted := len(n.passes)
	c.run(time.Second)
	if len(n.passes) != granted || !n.sm.HasToken() {
		t.Fatalf("lock holder passed the token %d times", len(n.passes)-granted)
	}
	c.inject(2, EvHoldRelease{})
	c.run(200 * time.Millisecond)
	if len(n.passes) == granted {
		t.Fatal("token did not move after release")
	}
}

func TestRestPlacementAllocs(t *testing.T) {
	// One possession — arrival with two piggybacked messages, hold-timer
	// fire, pass acknowledged — stamped against unstamped (the fixed-hold
	// path): placement bookkeeping must not allocate. Idle members pass
	// on arrival; active ones rest, or pass on arrival once a one-message
	// budget is spent.
	for _, tc := range []struct {
		active   bool
		maxBatch int
	}{{false, 0}, {true, 0}, {true, 1}} {
		active := tc.active
		cycle := func(stamped bool) float64 {
			s := New(Config{ID: 1, MaxBatch: tc.maxBatch})
			s.Step(EvStart{})
			members := []wire.NodeID{1, 2, 3}
			payload := make([]byte, 64)
			i := 0
			return testing.AllocsPerRun(200, func() {
				i++
				seq := uint64(10 + 2*i)
				if active {
					s.Step(EvSubmit{Payload: payload})
				}
				ev := EvTokenReceived{From: 3, Tok: &wire.Token{
					Epoch: 2, Seq: seq, Members: members,
					Msgs: []wire.Message{
						{Origin: 2, Seq: uint64(i)*2 + 1, Visited: 1, Payload: payload},
						{Origin: 3, Seq: uint64(i)*2 + 2, Visited: 2, Payload: payload},
					},
				}}
				if stamped {
					ev.At = simEpoch.Add(time.Duration(i) * 16 * time.Millisecond)
				}
				s.Step(ev)
				s.Step(EvTimer{Kind: TimerTokenHold})
				s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: seq + 1})
			})
		}
		if placed, fixed := cycle(true), cycle(false); placed > fixed {
			t.Fatalf("active=%v MaxBatch=%d: %.1f allocs per possession placed, %.1f fixed", active, tc.maxBatch, placed, fixed)
		}
	}
}
