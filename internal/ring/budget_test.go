package ring

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// These tests pin when a holder that has spent its attach budget (§2.6)
// passes: at once, on arrival or at the submission that spends it, with no
// rest and no hold timer left behind. restFor still places every
// possession that does not spend the budget (rest_test.go).

const budgetMax = 3

func budgetCfg(maxBatch int) func(wire.NodeID) Config {
	return func(id wire.NodeID) Config {
		cfg := restCfg(ring4...)(id)
		cfg.MaxBatch = maxBatch
		return cfg
	}
}

var ring3 = []wire.NodeID{1, 2, 3}

// budgetSM returns node 2 of a three-member ring after one stamped
// possession at simEpoch, so its next arrival is placed by restFor.
func budgetSM(t *testing.T, cfg Config) *SM {
	t.Helper()
	cfg.ID = 2
	if cfg.TokenHold == 0 {
		cfg.TokenHold, cfg.HungryTimeout = restHold, 40*time.Millisecond
	}
	s := New(cfg)
	s.Step(EvStart{})
	s.Step(EvTokenReceived{From: 1, Tok: &wire.Token{Epoch: 5, Seq: 1, Members: ring3}, At: simEpoch})
	sent := sentTokens(s.Step(EvTimer{Kind: TimerTokenHold}))
	if len(sent) != 1 {
		t.Fatalf("history possession sent %d tokens, want 1", len(sent))
	}
	s.Step(EvTokenAcked{To: sent[0].To, Epoch: sent[0].Tok.Epoch, Seq: sent[0].Tok.Seq})
	return s
}

// arrive hands s the ring token at simEpoch + d.
func arrive(s *SM, seq uint64, d time.Duration) []Action {
	return s.Step(EvTokenReceived{From: 1, Tok: &wire.Token{Epoch: 5, Seq: seq, Members: ring3}, At: simEpoch.Add(d)})
}

func submitN(s *SM, n int) (sent []ActSendToken) {
	for i := 0; i < n; i++ {
		sent = append(sent, sentTokens(s.Step(EvSubmit{Payload: []byte("x")}))...)
	}
	return sent
}

// armsHold reports whether acts arm the hold timer.
func armsHold(acts []Action) bool {
	for _, a := range acts {
		if a, ok := a.(ActSetTimer); ok && a.Kind == TimerTokenHold {
			return true
		}
	}
	return false
}

func ownAttached(tok *wire.Token, id wire.NodeID) int {
	n := 0
	for _, m := range tok.Msgs {
		if m.Origin == id && m.Sys == wire.SysApp {
			n++
		}
	}
	return n
}

func TestBudgetSpentAtArrivalPassesAtOnce(t *testing.T) {
	const at = 20 * time.Millisecond
	// Below the budget the active holder rests, as placed.
	s := budgetSM(t, Config{MaxBatch: budgetMax})
	submitN(s, budgetMax-1)
	acts := arrive(s, 10, at)
	if !armsHold(acts) || len(sentTokens(acts)) != 0 {
		t.Fatalf("below the budget: hold armed %v, %d passes; want a rest", armsHold(acts), len(sentTokens(acts)))
	}
	// A backlog of the budget or more passes on arrival, rest 0.
	s = budgetSM(t, Config{MaxBatch: budgetMax})
	submitN(s, budgetMax+2)
	acts = arrive(s, 10, at)
	sent := sentTokens(acts)
	if len(sent) != 1 || !sent[0].Spent {
		t.Fatalf("budget spent on arrival: %d passes (%+v), want one budget pass", len(sent), sent)
	}
	if armsHold(acts) {
		t.Fatal("a holder passing on arrival armed the hold timer")
	}
	if got := ownAttached(sent[0].Tok, 2); got != budgetMax {
		t.Fatalf("attached %d, want the budget %d", got, budgetMax)
	}
	if !s.passAt.Equal(simEpoch.Add(at)) {
		t.Fatalf("passAt = %v after arrival, want the arrival %v", s.passAt.Sub(simEpoch), at)
	}
}

func TestBudgetSpentMidPossessionPassesAndStopsHold(t *testing.T) {
	const at = 20 * time.Millisecond
	s := budgetSM(t, Config{MaxBatch: budgetMax})
	submitN(s, 1)
	acts := arrive(s, 10, at)
	if !armsHold(acts) {
		t.Fatal("an active holder below the budget did not rest")
	}
	if !s.passAt.After(simEpoch.Add(at)) {
		t.Fatalf("planned pass %v, want after the arrival %v", s.passAt.Sub(simEpoch), at)
	}
	if sent := submitN(s, budgetMax-2); len(sent) != 0 {
		t.Fatalf("a submission below the budget passed the token")
	}
	acts = s.Step(EvSubmit{Payload: []byte("x")})
	stop, pass := -1, -1
	for i, a := range acts {
		switch a := a.(type) {
		case ActStopTimer:
			if a.Kind == TimerTokenHold {
				stop = i
			}
		case ActSendToken:
			if !a.Spent {
				t.Fatal("the pass that spent the budget is not marked Spent")
			}
			pass = i
		}
	}
	if stop < 0 || pass < 0 || stop > pass {
		t.Fatalf("spending submission: stop at %d, pass at %d; want the hold stopped, then the pass", stop, pass)
	}
	// The state machine has no clock on a submit: the early pass is stamped
	// at the arrival, never at the planned end of the rest.
	if !s.passAt.Equal(simEpoch.Add(at)) {
		t.Fatalf("passAt = %v after the early pass, want the arrival %v", s.passAt.Sub(simEpoch), at)
	}
	// A hold fire that raced the pass does nothing.
	if acts := s.Step(EvTimer{Kind: TimerTokenHold}); len(acts) != 0 {
		t.Fatalf("hold fire after the early pass: %v", acts)
	}
}

func TestBudgetStaleHoldTimerNeverFires(t *testing.T) {
	// Node 2 alternates slow and fast phases. In a slow phase it arrives
	// below the budget, arms the hold timer and spends the budget mid-rest;
	// the fast phase that follows passes on arrival and arms nothing, so a
	// hold timer left running by the early pass would fire outside the
	// possession that armed it.
	c := newCluster(t, budgetCfg(budgetMax), ring4...)
	c.assemble()
	c.run(time.Second)
	start := c.now
	want := map[string]bool{}
	for phase := time.Duration(0); phase < 20; phase++ {
		off := phase * 60 * time.Millisecond
		period := 3 * time.Millisecond
		if phase%2 == 1 {
			period = time.Millisecond
		}
		for d := period; d <= 60*time.Millisecond; d += period {
			p := fmt.Sprintf("p%d@%v", phase, off+d)
			want[p] = true
			c.schedule(off+d, 2, EvSubmit{Payload: []byte(p)}, nil)
		}
	}
	c.run(2200 * time.Millisecond)
	mid, onArrival := 0, 0
	for _, p := range c.passesSince(2, start) {
		if p.spent && p.onArrival {
			onArrival++
		} else if p.spent {
			mid++
		}
	}
	if mid < 10 || onArrival < 10 {
		t.Fatalf("budget passes: %d mid-possession, %d on arrival; the schedule proves nothing", mid, onArrival)
	}
	for _, id := range ring4 {
		if n := c.nodes[id].strayHolds; n != 0 {
			t.Fatalf("node %v: %d hold-timer fires outlived their possession", id, n)
		}
	}
	c.requireAtomicDelivery(want)
	c.requireConsistentOrder()
}

func TestBudgetExemptions(t *testing.T) {
	t.Run("master lock", func(t *testing.T) {
		// A pending hold request at arrival, then submissions past the
		// budget under the lock: the token never leaves until release.
		s := budgetSM(t, Config{MaxBatch: budgetMax})
		s.Step(EvHoldRequest{})
		submitN(s, budgetMax+2)
		acts := arrive(s, 10, 20*time.Millisecond)
		if !hasAction[ActHoldGranted](acts) || len(sentTokens(acts)) != 0 {
			t.Fatalf("lock requester on arrival: granted %v, %d passes", hasAction[ActHoldGranted](acts), len(sentTokens(acts)))
		}
		if sent := submitN(s, 10); len(sent) != 0 {
			t.Fatalf("lock holder passed %d times", len(sent))
		}
		sent := sentTokens(s.Step(EvHoldRelease{}))
		if len(sent) != 1 || sent[0].Spent {
			t.Fatalf("release: %+v, want one pass not counted as a budget pass", sent)
		}
	})
	t.Run("singleton", func(t *testing.T) {
		s := New(Config{ID: 1, MaxBatch: 2})
		s.Step(EvStart{})
		if sent := submitN(s, 7); len(sent) != 0 || !s.HasToken() {
			t.Fatalf("singleton passed %d times", len(sent))
		}
	})
	t.Run("unlimited", func(t *testing.T) {
		s := budgetSM(t, Config{})
		submitN(s, 50)
		acts := arrive(s, 10, 20*time.Millisecond)
		if !armsHold(acts) || len(sentTokens(acts)) != 0 {
			t.Fatal("MaxBatch 0 did not rest")
		}
		if sent := submitN(s, 50); len(sent) != 0 {
			t.Fatalf("MaxBatch 0 passed %d times mid-possession", len(sent))
		}
	})
}

func TestBudgetIdleRingUnchanged(t *testing.T) {
	// 1000 idle rotations with and without a budget: one rester resting R,
	// everyone else passing on arrival, rotation R plus the hops, and the
	// rester's pass times spaced identically.
	const budget = 4 * restHold
	var gaps [2][]time.Duration
	for i, maxBatch := range []int{0, budgetMax} {
		c := newCluster(t, budgetCfg(maxBatch), ring4...)
		c.assemble()
		c.run(time.Second)
		start := c.now
		rotation := budget + 4*c.delay
		c.run(1000 * rotation)
		rester := wire.NoNode
		for _, id := range ring4 {
			if ps := c.passesSince(id, start); len(ps) > 0 && ps[0].rest != 0 {
				rester = id
			}
		}
		for _, id := range ring4 {
			want := time.Duration(0)
			if id == rester {
				want = budget
			}
			c.requireRests(id, start, want, 990)
			if n := c.nodes[id]; n.s911 != 0 || n.regens != 0 {
				t.Fatalf("MaxBatch %d node %v: %d 911s, %d regenerations", maxBatch, id, n.s911, n.regens)
			}
		}
		ps := c.passesSince(rester, start)
		for j := 1; j < len(ps); j++ {
			if g := ps[j].at - ps[j-1].at; g > rotation {
				t.Fatalf("MaxBatch %d: idle rotation took %v, want <= %v", maxBatch, g, rotation)
			}
			gaps[i] = append(gaps[i], ps[j].at-ps[j-1].at)
		}
	}
	if len(gaps[0]) != len(gaps[1]) {
		t.Fatalf("%d idle rotations unlimited, %d with a budget", len(gaps[0]), len(gaps[1]))
	}
	for j := range gaps[0] {
		if gaps[0][j] != gaps[1][j] {
			t.Fatalf("rotation %d: %v unlimited, %v with a budget", j+1, gaps[0][j], gaps[1][j])
		}
	}
}

func TestBudgetBurstThenIdleSettles(t *testing.T) {
	// Right after a burst of budget passes the ring goes idle: it must find
	// its single rester again, with no 911, as passAt stamps the early
	// passes at their arrivals.
	c := newCluster(t, budgetCfg(budgetMax), ring4...)
	c.assemble()
	c.run(time.Second)
	const budget = 4 * restHold
	rotation := budget + 4*c.delay
	want := c.submitEvery(2, time.Millisecond, 200*time.Millisecond)
	c.run(200 * time.Millisecond)
	for len(c.nodes[2].sm.outbox) > 0 {
		c.run(rotation)
	}
	burst := c.passesSince(2, 0)
	spent := 0
	for _, p := range burst {
		if p.spent {
			spent++
		}
	}
	if spent < 20 {
		t.Fatalf("%d budget passes in the burst", spent)
	}
	// The backlog has drained; the 4R activity window runs out, then the
	// ring is idle.
	c.run(8 * rotation)
	settled := c.now
	c.run(50 * rotation)
	resters := 0
	for _, id := range ring4 {
		ps := c.passesSince(id, settled)
		if len(ps) > 0 && ps[0].rest != 0 {
			resters++
			c.requireRests(id, settled, budget, 45)
		} else {
			c.requireRests(id, settled, 0, 45)
		}
		if n := c.nodes[id]; n.s911 != 0 || n.regens != 0 {
			t.Fatalf("node %v: %d 911s, %d regenerations after the burst", id, n.s911, n.regens)
		}
	}
	if resters != 1 {
		t.Fatalf("%d resters on the idle ring after the burst, want 1", resters)
	}
	c.requireAtomicDelivery(want)
	c.requireConsistentOrder()
}
