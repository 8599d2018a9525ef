package ring

import (
	"fmt"
	"testing"

	"repro/internal/wire"
)

// TestMaxBatchBoundsAttachmentsPerHop submits more messages than the batch
// bound and checks each token visit attaches at most MaxBatch, draining
// the backlog over successive visits in FIFO order. A visit that spends
// the budget passes on arrival; the others rest until the hold timer.
func TestMaxBatchBoundsAttachmentsPerHop(t *testing.T) {
	s := New(Config{ID: 2, MaxBatch: 3})
	s.Step(EvStart{})
	var attached []string
	visit := func(seq uint64, spent bool) int {
		tok := &wire.Token{Epoch: 5, Seq: seq, Members: []wire.NodeID{1, 2, 3}}
		acts := s.Step(EvTokenReceived{From: 1, Tok: tok})
		if !spent {
			acts = s.Step(EvTimer{Kind: TimerTokenHold})
		}
		sent := sentTokens(acts)
		if len(sent) != 1 {
			t.Fatalf("visit seq=%d: %d tokens sent, want 1", seq, len(sent))
		}
		n := 0
		for _, m := range sent[0].Tok.Msgs {
			if m.Origin == 2 {
				attached = append(attached, string(m.Payload))
				n++
			}
		}
		// Complete the pass so the next visit finds the node idle.
		s.Step(EvTokenAcked{To: sent[0].To, Epoch: sent[0].Tok.Epoch, Seq: sent[0].Tok.Seq})
		return n
	}
	// First visit adopts the ring membership and hands the token off, so
	// the backlog below queues while the token is elsewhere.
	if got := visit(1, false); got != 0 {
		t.Fatalf("assembly visit attached %d, want 0", got)
	}
	for i := 0; i < 8; i++ {
		s.Step(EvSubmit{Payload: []byte(fmt.Sprintf("m%d", i))})
	}
	// Token visits: 3 + 3 + 2, never more than MaxBatch per hop. Between
	// visits the token is elsewhere, so each visit sees a fresh token
	// (older attachments pruned after their full round).
	if got := visit(10, true); got != 3 {
		t.Fatalf("first visit attached %d, want 3", got)
	}
	if got := visit(20, true); got != 3 {
		t.Fatalf("second visit attached %d, want 3", got)
	}
	if got := visit(30, false); got != 2 {
		t.Fatalf("third visit attached %d, want 2", got)
	}
	for i, p := range attached {
		if want := fmt.Sprintf("m%d", i); p != want {
			t.Fatalf("attachment %d = %q, want %q (FIFO violated)", i, p, want)
		}
	}
}

// TestMaxBatchCapsSubmitsDuringPossession checks the budget is per token
// possession, not per attach call: submissions arriving while the node
// holds the token attach immediately only until the budget is spent, and
// the submission that spends it passes the token.
func TestMaxBatchCapsSubmitsDuringPossession(t *testing.T) {
	s := New(Config{ID: 2, MaxBatch: 3})
	s.Step(EvStart{})
	// Receive the ring token and keep holding it (no hold-timer fire).
	s.Step(EvTokenReceived{From: 1, Tok: &wire.Token{Epoch: 5, Seq: 1, Members: []wire.NodeID{1, 2, 3}}})
	var immediate int
	var sent []ActSendToken
	for i := 0; i < 10; i++ {
		acts := s.Step(EvSubmit{Payload: []byte("x")})
		immediate += len(deliveries(acts))
		if p := sentTokens(acts); len(p) > 0 && i != 2 {
			t.Fatalf("submission %d passed the token, want the third (the budget)", i+1)
		}
		sent = append(sent, sentTokens(acts)...)
	}
	if immediate != 3 {
		t.Fatalf("%d immediate attach-deliveries while holding, want 3 (the budget)", immediate)
	}
	// Passing and re-acquiring refreshes the budget and drains the rest.
	if len(sent) != 1 {
		t.Fatalf("%d tokens sent, want 1", len(sent))
	}
	s.Step(EvTokenAcked{To: sent[0].To, Epoch: sent[0].Tok.Epoch, Seq: sent[0].Tok.Seq})
	next := deliveries(s.Step(EvTokenReceived{From: 1, Tok: &wire.Token{Epoch: 5, Seq: 9, Members: []wire.NodeID{1, 2, 3}}}))
	if len(next) != 3 {
		t.Fatalf("next possession attached %d, want 3", len(next))
	}
}

// TestMaxBatchExemptsMasterLockHolder guards the no-deadlock guarantee: a
// node pinning the token under the master lock must be able to attach (and
// so locally deliver) more than MaxBatch multicasts, or an application
// waiting on its own multicast before releasing the lock would hang the
// whole ring.
func TestMaxBatchExemptsMasterLockHolder(t *testing.T) {
	s := New(Config{ID: 2, MaxBatch: 3})
	s.Step(EvStart{})
	s.Step(EvTokenReceived{From: 1, Tok: &wire.Token{Epoch: 5, Seq: 1, Members: []wire.NodeID{1, 2, 3}}})
	if !hasAction[ActHoldGranted](s.Step(EvHoldRequest{})) {
		t.Fatal("master lock not granted while possessing the token")
	}
	var got int
	for i := 0; i < 10; i++ {
		got += len(deliveries(s.Step(EvSubmit{Payload: []byte("x")})))
	}
	if got != 10 {
		t.Fatalf("lock holder attach-delivered %d of 10 submissions; budget must not apply while pinned", got)
	}
}

// TestMaxBatchResetOn911Regeneration guards the other possession-start
// path: a node that exhausts its budget, passes the token, loses it, and
// regenerates via 911 must begin the regenerated possession with a fresh
// budget, not the stale exhausted one.
func TestMaxBatchResetOn911Regeneration(t *testing.T) {
	s := New(Config{ID: 1, MaxBatch: 3})
	s.Step(EvStart{})
	// Join a ring, exhaust the budget, pass the token on: the submission
	// that spends the budget passes.
	s.Step(EvTokenReceived{From: 2, Tok: &wire.Token{Epoch: 2, Seq: 10, Members: []wire.NodeID{1, 2, 3}}})
	var sent []ActSendToken
	for i := 0; i < 3; i++ {
		sent = append(sent, sentTokens(s.Step(EvSubmit{Payload: []byte("x")}))...)
	}
	if len(sent) != 1 {
		t.Fatalf("%d tokens sent, want 1", len(sent))
	}
	s.Step(EvTokenAcked{To: sent[0].To, Epoch: sent[0].Tok.Epoch, Seq: sent[0].Tok.Seq})
	// Token lost: starve and regenerate with unanimous grants.
	acts := s.Step(EvTimer{Kind: TimerHungry})
	reqID := sent911s(acts)[0].M.ReqID
	s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{From: 2, ReqID: reqID, Grant: true}})
	acts = s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{From: 3, ReqID: reqID, Grant: true}})
	if !hasAction[ActTokenRegenerated](acts) {
		t.Fatal("unanimous grants did not regenerate")
	}
	// The regenerated possession must accept a full fresh batch.
	var delivered int
	for i := 0; i < 3; i++ {
		delivered += len(deliveries(s.Step(EvSubmit{Payload: []byte("y")})))
	}
	if delivered != 3 {
		t.Fatalf("regenerated possession attached %d of 3, want a fresh budget", delivered)
	}
}

// TestMaxBatchIgnoredBySingleton checks a singleton ring delivers its
// whole backlog immediately regardless of the bound: its token never
// travels, so there is no frame to protect.
func TestMaxBatchIgnoredBySingleton(t *testing.T) {
	s := New(Config{ID: 1, MaxBatch: 2})
	s.Step(EvStart{})
	var got int
	for i := 0; i < 7; i++ {
		acts := s.Step(EvSubmit{Payload: []byte("x")})
		got += len(deliveries(acts))
	}
	if got != 7 {
		t.Fatalf("singleton delivered %d of 7 submissions", got)
	}
}

// TestZeroMaxBatchUnlimited checks the default keeps the previous
// attach-everything behavior.
func TestZeroMaxBatchUnlimited(t *testing.T) {
	s := New(Config{ID: 2})
	s.Step(EvStart{})
	// Adopt the ring and hand the token off so submissions queue.
	s.Step(EvTokenReceived{From: 1, Tok: &wire.Token{Epoch: 5, Seq: 1, Members: []wire.NodeID{1, 2}}})
	first := sentTokens(s.Step(EvTimer{Kind: TimerTokenHold}))
	if len(first) != 1 {
		t.Fatalf("%d tokens sent on assembly pass, want 1", len(first))
	}
	s.Step(EvTokenAcked{To: first[0].To, Epoch: first[0].Tok.Epoch, Seq: first[0].Tok.Seq})
	for i := 0; i < 50; i++ {
		s.Step(EvSubmit{Payload: []byte("x")})
	}
	tok := &wire.Token{Epoch: 5, Seq: 10, Members: []wire.NodeID{1, 2}}
	s.Step(EvTokenReceived{From: 1, Tok: tok})
	acts := s.Step(EvTimer{Kind: TimerTokenHold})
	sent := sentTokens(acts)
	if len(sent) != 1 {
		t.Fatalf("%d tokens sent, want 1", len(sent))
	}
	mine := 0
	for _, m := range sent[0].Tok.Msgs {
		if m.Origin == 2 {
			mine++
		}
	}
	if mine != 50 {
		t.Fatalf("attached %d, want all 50", mine)
	}
}
