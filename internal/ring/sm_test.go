package ring

import (
	"reflect"
	"testing"

	"repro/internal/wire"
)

// actionsOf filters actions by example type.
func deliveries(acts []Action) []wire.Message {
	var out []wire.Message
	for _, a := range acts {
		if d, ok := a.(ActDeliver); ok {
			out = append(out, d.Msg)
		}
	}
	return out
}

func sentTokens(acts []Action) []ActSendToken {
	var out []ActSendToken
	for _, a := range acts {
		if s, ok := a.(ActSendToken); ok {
			out = append(out, s)
		}
	}
	return out
}

func sent911s(acts []Action) []ActSend911 {
	var out []ActSend911
	for _, a := range acts {
		if s, ok := a.(ActSend911); ok {
			out = append(out, s)
		}
	}
	return out
}

func replies911(acts []Action) []ActSend911Reply {
	var out []ActSend911Reply
	for _, a := range acts {
		if s, ok := a.(ActSend911Reply); ok {
			out = append(out, s)
		}
	}
	return out
}

func hasAction[T Action](acts []Action) bool {
	for _, a := range acts {
		if _, ok := a.(T); ok {
			return true
		}
	}
	return false
}

func newStarted(t *testing.T, id wire.NodeID) *SM {
	t.Helper()
	s := New(Config{ID: id})
	s.Step(EvStart{})
	return s
}

// receiveRingToken hands s a token for the given ring membership, as if
// sent by the predecessor.
func receiveRingToken(s *SM, epoch, seq uint64, members ...wire.NodeID) []Action {
	tok := &wire.Token{Epoch: epoch, Seq: seq, Members: members}
	return s.Step(EvTokenReceived{From: members[0], Tok: tok})
}

func TestStartBootsSingletonEating(t *testing.T) {
	s := New(Config{ID: 1})
	acts := s.Step(EvStart{})
	if s.State() != Eating {
		t.Fatalf("state = %v, want EATING", s.State())
	}
	if !s.HasToken() {
		t.Fatal("singleton does not hold its token")
	}
	if got := s.Members(); !reflect.DeepEqual(got, []wire.NodeID{1}) {
		t.Fatalf("members = %v, want [1]", got)
	}
	if !hasAction[ActMembershipChanged](acts) {
		t.Fatal("no membership action on start")
	}
	if !hasAction[ActSetTimer](acts) {
		t.Fatal("no timer armed on start")
	}
	if s.GroupID() != 1 {
		t.Fatalf("group ID = %v, want 1", s.GroupID())
	}
}

func TestZeroIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero ID did not panic")
		}
	}()
	New(Config{})
}

func TestSingletonMulticastDeliversImmediately(t *testing.T) {
	s := newStarted(t, 1)
	acts := s.Step(EvSubmit{Payload: []byte("solo")})
	del := deliveries(acts)
	if len(del) != 1 || string(del[0].Payload) != "solo" {
		t.Fatalf("deliveries = %v", del)
	}
	// The message must be pruned from the token after the local cycle.
	if n := len(s.possessed.Msgs); n != 0 {
		t.Fatalf("token still carries %d messages", n)
	}
}

func TestSingletonSafeMulticastDelivers(t *testing.T) {
	s := newStarted(t, 1)
	acts := s.Step(EvSubmit{Payload: []byte("safe"), Safe: true})
	del := deliveries(acts)
	if len(del) != 1 || !del[0].Safe {
		t.Fatalf("safe deliveries = %v", del)
	}
	if n := len(s.possessed.Msgs); n != 0 {
		t.Fatalf("token still carries %d messages", n)
	}
}

func TestHoldTimerPassesToSuccessor(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2, 3)
	acts := s.Step(EvTimer{Kind: TimerTokenHold})
	toks := sentTokens(acts)
	if len(toks) != 1 || toks[0].To != 2 {
		t.Fatalf("sent tokens = %+v, want one to node 2", toks)
	}
	if toks[0].Tok.Seq != 11 {
		t.Fatalf("passed seq = %d, want 11 (incremented per hop)", toks[0].Tok.Seq)
	}
	// Until acked we still possess the token for safety.
	if !s.HasToken() {
		t.Fatal("token dropped before acknowledgement")
	}
	acts = s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: 11})
	if s.HasToken() {
		t.Fatal("token retained after acknowledgement")
	}
	if s.State() != Hungry {
		t.Fatalf("state = %v, want HUNGRY", s.State())
	}
	if !hasAction[ActSetTimer](acts) {
		t.Fatal("hungry timer not armed")
	}
}

func TestStaleAckIgnored(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2)
	s.Step(EvTimer{Kind: TimerTokenHold})
	// Wrong seq: must not release the token.
	s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: 999})
	if !s.HasToken() {
		t.Fatal("stale ack released the token")
	}
}

func TestSendFailureRemovesMemberAndForwards(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2, 3)
	s.Step(EvTimer{Kind: TimerTokenHold}) // pass to 2
	acts := s.Step(EvTokenSendFailed{To: 2, Epoch: 2, Seq: 11})
	if got := s.Members(); !reflect.DeepEqual(got, []wire.NodeID{1, 3}) {
		t.Fatalf("members = %v, want [1 3]", got)
	}
	// A SysNodeRemoved announcement is delivered locally and attached.
	del := deliveries(acts)
	if len(del) != 1 || del[0].Sys != wire.SysNodeRemoved || del[0].Subject != 2 {
		t.Fatalf("deliveries = %+v, want SysNodeRemoved(2)", del)
	}
	// The token is forwarded to the next healthy member.
	toks := sentTokens(acts)
	if len(toks) != 1 || toks[0].To != 3 {
		t.Fatalf("sent tokens = %+v, want one to node 3", toks)
	}
	if !toks[0].Tok.HasMember(3) || toks[0].Tok.HasMember(2) {
		t.Fatalf("forwarded token members = %v", toks[0].Tok.Members)
	}
}

func TestSendFailureCollapsesToSingleton(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2)
	s.Step(EvTimer{Kind: TimerTokenHold})
	acts := s.Step(EvTokenSendFailed{To: 2, Epoch: 2, Seq: 11})
	if got := s.Members(); !reflect.DeepEqual(got, []wire.NodeID{1}) {
		t.Fatalf("members = %v, want [1]", got)
	}
	if len(sentTokens(acts)) != 0 {
		t.Fatal("singleton sent the token to someone")
	}
	if !s.HasToken() || s.State() != Eating {
		t.Fatal("singleton must keep eating")
	}
}

func TestSingletonDoesNotRearmHoldTimer(t *testing.T) {
	s := newStarted(t, 1)
	acts := s.Step(EvTimer{Kind: TimerTokenHold})
	for _, a := range acts {
		if st, ok := a.(ActSetTimer); ok && st.Kind == TimerTokenHold {
			t.Fatal("singleton re-armed the hold timer")
		}
	}
	if !s.HasToken() || s.State() != Eating {
		t.Fatal("singleton must keep eating")
	}
}

func TestCollapseToSingletonGrantsPendingHold(t *testing.T) {
	// A lock requested while the last pass was in flight is granted when
	// that pass fails and the ring collapses to this node.
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2)
	s.Step(EvTimer{Kind: TimerTokenHold})
	if acts := s.Step(EvHoldRequest{}); hasAction[ActHoldGranted](acts) {
		t.Fatal("hold granted while passing")
	}
	acts := s.Step(EvTokenSendFailed{To: 2, Epoch: 2, Seq: 11})
	if !hasAction[ActHoldGranted](acts) {
		t.Fatal("pending hold not granted on collapse to singleton")
	}
}

func Test911FromNonMemberIsJoinRequest(t *testing.T) {
	s := newStarted(t, 1)
	acts := s.Step(Ev911Received{M: wire.Msg911{From: 5, Epoch: 1, Seq: 0, ReqID: 1}})
	reps := replies911(acts)
	if len(reps) != 1 || !reps[0].M.JoinPending || reps[0].To != 5 {
		t.Fatalf("replies = %+v, want JoinPending to 5", reps)
	}
	// Since we hold the token, the joiner is admitted at once and the
	// token is sent to it (§2.3).
	toks := sentTokens(acts)
	if len(toks) != 1 || toks[0].To != 5 {
		t.Fatalf("sent tokens = %+v, want token to joiner 5", toks)
	}
	if !toks[0].Tok.HasMember(5) {
		t.Fatalf("token members = %v, joiner missing", toks[0].Tok.Members)
	}
	del := deliveries(acts)
	if len(del) != 1 || del[0].Sys != wire.SysNodeJoined || del[0].Subject != 5 {
		t.Fatalf("deliveries = %+v, want SysNodeJoined(5)", del)
	}
}

func Test911DeniedWhileHoldingToken(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2)
	acts := s.Step(Ev911Received{M: wire.Msg911{From: 2, Epoch: 2, Seq: 9, ReqID: 1}})
	reps := replies911(acts)
	if len(reps) != 1 || reps[0].M.Grant {
		t.Fatalf("replies = %+v, want denial while holding token", reps)
	}
}

func Test911FreshnessComparison(t *testing.T) {
	s := newStarted(t, 3)
	receiveRingToken(s, 2, 10, 2, 3)
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: 11}) // now hungry, copy = (2, 11)

	// Requester with an older copy: denied.
	acts := s.Step(Ev911Received{M: wire.Msg911{From: 2, Epoch: 2, Seq: 10, ReqID: 7}})
	if reps := replies911(acts); len(reps) != 1 || reps[0].M.Grant {
		t.Fatalf("replies = %+v, want denial for stale requester", reps)
	}
	// Requester with a fresher copy: granted.
	acts = s.Step(Ev911Received{M: wire.Msg911{From: 2, Epoch: 2, Seq: 12, ReqID: 8}})
	if reps := replies911(acts); len(reps) != 1 || !reps[0].M.Grant {
		t.Fatalf("replies = %+v, want grant for fresher requester", reps)
	}
	// Equal copies: the higher node ID refuses the lower's request.
	acts = s.Step(Ev911Received{M: wire.Msg911{From: 2, Epoch: 2, Seq: 11, ReqID: 9}})
	if reps := replies911(acts); len(reps) != 1 || reps[0].M.Grant {
		t.Fatalf("replies = %+v, want denial by ID tie-break (3 > 2)", reps)
	}
}

func TestStarvingRunsA911RoundAndRegenerates(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2, 3)
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: 11})
	acts := s.Step(EvTimer{Kind: TimerHungry})
	if s.State() != Starving {
		t.Fatalf("state = %v, want STARVING", s.State())
	}
	reqs := sent911s(acts)
	if len(reqs) != 2 {
		t.Fatalf("911 requests = %+v, want fan-out to 2 members", reqs)
	}
	if reqs[0].M.Epoch != 2 || reqs[0].M.Seq != 11 {
		t.Fatalf("911 carries copy (%d,%d), want (2,11)", reqs[0].M.Epoch, reqs[0].M.Seq)
	}
	reqID := reqs[0].M.ReqID

	// One grant is not enough.
	acts = s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{From: 2, ReqID: reqID, Grant: true}})
	if hasAction[ActTokenRegenerated](acts) {
		t.Fatal("regenerated with only one grant")
	}
	// Second grant completes the round.
	acts = s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{From: 3, ReqID: reqID, Grant: true}})
	if !hasAction[ActTokenRegenerated](acts) {
		t.Fatal("unanimous grants did not regenerate")
	}
	if !s.HasToken() || s.State() != Eating {
		t.Fatal("regeneration did not restore EATING")
	}
	if s.copyEpoch != 3 {
		t.Fatalf("regenerated epoch = %d, want 3", s.copyEpoch)
	}
}

func TestDenialBlocksRegeneration(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2, 3)
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: 11})
	acts := s.Step(EvTimer{Kind: TimerHungry})
	reqID := sent911s(acts)[0].M.ReqID
	s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{From: 2, ReqID: reqID, Grant: false}})
	acts = s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{From: 3, ReqID: reqID, Grant: true}})
	if hasAction[ActTokenRegenerated](acts) {
		t.Fatal("regenerated despite a denial")
	}
	if s.State() != Starving {
		t.Fatalf("state = %v, want still STARVING", s.State())
	}
}

func TestUnreachableMembersCountTowardRegeneration(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2, 3)
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: 11})
	acts := s.Step(EvTimer{Kind: TimerHungry})
	reqID := sent911s(acts)[0].M.ReqID
	s.Step(Ev911SendFailed{To: 2, ReqID: reqID})
	acts = s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{From: 3, ReqID: reqID, Grant: true}})
	if !hasAction[ActTokenRegenerated](acts) {
		t.Fatal("grant + unreachable did not regenerate")
	}
}

func TestLateSendFailureCountsInNextRound(t *testing.T) {
	// The transport reports node 3 unreachable only after the retry timer
	// started the next round; that report must still count, or the
	// survivors of a dead holder re-run rounds forever.
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2, 3)
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: 11})
	first := sent911s(s.Step(EvTimer{Kind: TimerHungry}))[0].M.ReqID
	second := sent911s(s.Step(EvTimer{Kind: TimerStarvingRetry}))[0].M.ReqID
	s.Step(Ev911SendFailed{To: 3, ReqID: first})
	acts := s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{From: 2, ReqID: second, Grant: true}})
	if !hasAction[ActTokenRegenerated](acts) {
		t.Fatal("late failure report from the previous round ignored")
	}
}

func TestJoinPendingFromFresherReplierDoesNotRegenerate(t *testing.T) {
	// A falsely removed node must not regenerate: it was removed, the
	// live token still circulates among the others, whose copies are
	// strictly fresher.
	s := newStarted(t, 2)
	receiveRingToken(s, 2, 10, 1, 2)
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 1, Epoch: 2, Seq: 11})
	acts := s.Step(EvTimer{Kind: TimerHungry})
	reqID := sent911s(acts)[0].M.ReqID
	acts = s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{
		From: 1, ReqID: reqID, JoinPending: true, Epoch: 2, Seq: 13, // fresher
	}})
	if hasAction[ActTokenRegenerated](acts) {
		t.Fatal("regenerated despite fresher JoinPending reply")
	}
	if s.State() != Starving {
		t.Fatalf("state = %v, want STARVING until re-admitted", s.State())
	}
}

func TestJoinPendingFromStalerReplierCountsAsGrant(t *testing.T) {
	// If the replier's copy is staler than ours, it must not be able to
	// block regeneration forever (it may itself hold a stale view).
	s := newStarted(t, 2)
	receiveRingToken(s, 2, 10, 1, 2)
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 1, Epoch: 2, Seq: 11})
	acts := s.Step(EvTimer{Kind: TimerHungry})
	reqID := sent911s(acts)[0].M.ReqID
	acts = s.Step(Ev911ReplyReceived{M: wire.Msg911Reply{
		From: 1, ReqID: reqID, JoinPending: true, Epoch: 2, Seq: 5, // staler
	}})
	if !hasAction[ActTokenRegenerated](acts) {
		t.Fatal("staler JoinPending reply blocked regeneration")
	}
}

func TestSeqBaseSeparatesIncarnations(t *testing.T) {
	s := New(Config{ID: 1, SeqBase: 1 << 32})
	s.Step(EvStart{})
	acts := s.Step(EvSubmit{Payload: []byte("x")})
	del := deliveries(acts)
	if len(del) != 1 || del[0].Seq <= 1<<32 {
		t.Fatalf("first message seq = %d, want > SeqBase", del[0].Seq)
	}
}

func TestStaleTokenDropped(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 3, 20, 1, 2) // copy epoch now 3
	acts := s.Step(EvTokenReceived{From: 2, Tok: &wire.Token{Epoch: 2, Seq: 99, Members: []wire.NodeID{1, 2}}})
	if len(acts) != 0 {
		t.Fatalf("stale token produced actions: %+v", acts)
	}
}

func TestTokenForNonMemberDropped(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2)
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: 11})
	// A token that does not list us must be ignored.
	acts := s.Step(EvTokenReceived{From: 2, Tok: &wire.Token{Epoch: 2, Seq: 12, Members: []wire.NodeID{2, 3}}})
	if s.HasToken() {
		t.Fatal("accepted a token we are not a member of")
	}
	_ = acts
}

func TestMasterLockHoldAndRelease(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2)
	acts := s.Step(EvHoldRequest{})
	if !hasAction[ActHoldGranted](acts) {
		t.Fatal("hold not granted while EATING")
	}
	// The hold timer fires but the token must not move (§2.7).
	acts = s.Step(EvTimer{Kind: TimerTokenHold})
	if len(sentTokens(acts)) != 0 {
		t.Fatal("token passed while master lock held")
	}
	// Releasing resumes circulation immediately.
	acts = s.Step(EvHoldRelease{})
	if toks := sentTokens(acts); len(toks) != 1 || toks[0].To != 2 {
		t.Fatalf("release did not pass the token: %+v", toks)
	}
}

func TestHoldRequestWhileHungryGrantsOnTokenArrival(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2)
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 2, Epoch: 2, Seq: 11})
	acts := s.Step(EvHoldRequest{})
	if hasAction[ActHoldGranted](acts) {
		t.Fatal("hold granted without the token")
	}
	acts = receiveRingToken(s, 2, 12, 1, 2)
	if !hasAction[ActHoldGranted](acts) {
		t.Fatal("hold not granted when the token arrived")
	}
}

func TestLeavePassesTokenOn(t *testing.T) {
	s := newStarted(t, 1)
	receiveRingToken(s, 2, 10, 1, 2, 3)
	acts := s.Step(EvLeave{})
	toks := sentTokens(acts)
	if len(toks) != 1 {
		t.Fatalf("leaving holder sent %d tokens, want 1", len(toks))
	}
	if toks[0].Tok.HasMember(1) {
		t.Fatal("departed node still in token membership")
	}
	if !hasAction[ActShutdown](acts) {
		t.Fatal("no shutdown action")
	}
	if s.State() != Down {
		t.Fatalf("state = %v, want DOWN", s.State())
	}
	// Events after shutdown are ignored.
	if acts := s.Step(EvTimer{Kind: TimerTokenHold}); len(acts) != 0 {
		t.Fatalf("stopped SM produced actions: %+v", acts)
	}
}

func TestCriticalResourceFailureShutsDown(t *testing.T) {
	s := newStarted(t, 1)
	acts := s.Step(EvCriticalResourceFailed{Resource: "uplink"})
	if !hasAction[ActShutdown](acts) {
		t.Fatal("no shutdown on critical resource failure")
	}
}

func TestQuorumShutdown(t *testing.T) {
	s := New(Config{ID: 1, MinQuorum: 2})
	s.Step(EvStart{}) // singleton is below quorum only once membership is adopted from a token
	receiveRingToken(s, 2, 10, 1, 2, 3)
	s.Step(EvTimer{Kind: TimerTokenHold})
	acts := s.Step(EvTokenSendFailed{To: 2, Epoch: 2, Seq: 11})
	// Removing 2 leaves {1,3}: quorum holds. Then 3 fails too.
	if hasAction[ActShutdown](acts) {
		t.Fatal("premature quorum shutdown")
	}
	acts = s.Step(EvTokenSendFailed{To: 3, Epoch: 2, Seq: 12})
	if !hasAction[ActShutdown](acts) {
		t.Fatal("no quorum shutdown at membership 1 < 2")
	}
}

func TestAgreedOrderingAcrossMessages(t *testing.T) {
	// A node receiving a token with foreign messages delivers them in
	// token order before its own attach-time deliveries.
	s := newStarted(t, 2)
	s.Step(EvSubmit{Payload: []byte("mine")}) // queued: singleton delivers locally at once
	tok := &wire.Token{Epoch: 2, Seq: 5, Members: []wire.NodeID{1, 2}, Msgs: []wire.Message{
		{Origin: 1, Seq: 1, Visited: 1, Payload: []byte("first")},
		{Origin: 1, Seq: 2, Visited: 1, Payload: []byte("second")},
	}}
	acts := s.Step(EvTokenReceived{From: 1, Tok: tok})
	del := deliveries(acts)
	if len(del) != 2 {
		t.Fatalf("deliveries = %d, want 2 foreign messages", len(del))
	}
	if string(del[0].Payload) != "first" || string(del[1].Payload) != "second" {
		t.Fatalf("order = %q, %q", del[0].Payload, del[1].Payload)
	}
}

func TestDuplicateMessagesNotRedelivered(t *testing.T) {
	s := newStarted(t, 2)
	msg := wire.Message{Origin: 1, Seq: 1, Visited: 1, Payload: []byte("x")}
	tok := &wire.Token{Epoch: 2, Seq: 5, Members: []wire.NodeID{1, 2, 3}, Msgs: []wire.Message{msg}}
	acts := s.Step(EvTokenReceived{From: 1, Tok: tok})
	if len(deliveries(acts)) != 1 {
		t.Fatal("first delivery missing")
	}
	s.Step(EvTimer{Kind: TimerTokenHold})
	s.Step(EvTokenAcked{To: 3, Epoch: 2, Seq: 6})
	// A regenerated token replays the same message (e.g., after a 911).
	tok2 := &wire.Token{Epoch: 3, Seq: 7, Members: []wire.NodeID{1, 2, 3}, Msgs: []wire.Message{
		{Origin: 1, Seq: 1, Visited: 1, Payload: []byte("x")},
	}}
	acts = s.Step(EvTokenReceived{From: 1, Tok: tok2})
	if n := len(deliveries(acts)); n != 0 {
		t.Fatalf("replayed message redelivered %d times", n)
	}
}

func TestForwardQueuesMulticast(t *testing.T) {
	s := newStarted(t, 1)
	acts := s.Step(EvForwardReceived{M: wire.Forward{From: 99, Payload: []byte("open-group")}})
	del := deliveries(acts)
	if len(del) != 1 || string(del[0].Payload) != "open-group" {
		t.Fatalf("deliveries = %+v", del)
	}
	if del[0].Origin != 1 {
		t.Fatalf("origin = %v, want the forwarding member 1", del[0].Origin)
	}
}

func TestBodyodorTriggersTBMSend(t *testing.T) {
	// Node 2 (group {2,3}, GID 2) hears a beacon from node 1 (GID 1 < 2):
	// it must add 1 and send it the TBM token.
	s := New(Config{ID: 2, Eligible: []wire.NodeID{1, 2, 3}})
	s.Step(EvStart{})
	receiveRingToken(s, 2, 10, 2, 3)
	acts := s.Step(EvBodyodorReceived{M: wire.Bodyodor{From: 1, GroupID: 1, Epoch: 1}})
	toks := sentTokens(acts)
	if len(toks) != 1 || toks[0].To != 1 {
		t.Fatalf("sent tokens = %+v, want TBM token to 1", toks)
	}
	if !toks[0].Tok.TBM {
		t.Fatal("token not marked TBM")
	}
	if !toks[0].Tok.HasMember(1) {
		t.Fatalf("TBM token members = %v, beacon sender missing", toks[0].Tok.Members)
	}
}

func TestBodyodorFromHigherGroupIgnored(t *testing.T) {
	s := New(Config{ID: 1, Eligible: []wire.NodeID{1, 5}})
	s.Step(EvStart{})
	acts := s.Step(EvBodyodorReceived{M: wire.Bodyodor{From: 5, GroupID: 5, Epoch: 1}})
	if len(sentTokens(acts)) != 0 {
		t.Fatal("acted on a beacon from a higher group ID")
	}
}

func TestBodyodorFromNonEligibleIgnored(t *testing.T) {
	s := New(Config{ID: 2, Eligible: []wire.NodeID{2, 3}})
	s.Step(EvStart{})
	acts := s.Step(EvBodyodorReceived{M: wire.Bodyodor{From: 1, GroupID: 1, Epoch: 1}})
	if len(sentTokens(acts)) != 0 {
		t.Fatal("acted on a beacon from a non-eligible node")
	}
}

func TestTBMTokenMergesWithOwnToken(t *testing.T) {
	// Node 1 is a singleton holding its token; a TBM token arrives from
	// group {2,3}. The merge happens immediately.
	s := New(Config{ID: 1, Eligible: []wire.NodeID{1, 2, 3}})
	s.Step(EvStart{})
	tbm := &wire.Token{Epoch: 4, Seq: 40, TBM: true, Members: []wire.NodeID{2, 3, 1},
		Msgs: []wire.Message{{Origin: 2, Seq: 1, Visited: 2, Payload: []byte("theirs")}}}
	acts := s.Step(EvTokenReceived{From: 2, Tok: tbm})
	if !hasAction[ActMergeCompleted](acts) {
		t.Fatal("merge did not complete")
	}
	got := wire.SortedIDs(s.Members())
	if !reflect.DeepEqual(got, []wire.NodeID{1, 2, 3}) {
		t.Fatalf("merged members = %v, want [1 2 3]", got)
	}
	if s.copyEpoch != 5 {
		t.Fatalf("merged epoch = %d, want max(1,4)+1 = 5", s.copyEpoch)
	}
	// The foreign message is delivered here as part of the new round.
	var sawForeign bool
	for _, d := range deliveries(acts) {
		if d.Origin == 2 && string(d.Payload) == "theirs" {
			sawForeign = true
		}
	}
	if !sawForeign {
		t.Fatal("foreign message not delivered after merge")
	}
}

func TestBodyodorTimerBeaconsToAbsentEligibles(t *testing.T) {
	s := New(Config{ID: 1, Eligible: []wire.NodeID{1, 2, 3}, BodyodorInterval: 1})
	s.Step(EvStart{})
	acts := s.Step(EvTimer{Kind: TimerBodyodor})
	var beacons []ActSendBodyodor
	for _, a := range acts {
		if b, ok := a.(ActSendBodyodor); ok {
			beacons = append(beacons, b)
		}
	}
	if len(beacons) != 2 {
		t.Fatalf("beacons = %+v, want to nodes 2 and 3", beacons)
	}
	for _, b := range beacons {
		if b.M.GroupID != 1 || b.M.From != 1 {
			t.Fatalf("beacon = %+v", b.M)
		}
	}
}

func TestSetEligibleOnline(t *testing.T) {
	s := New(Config{ID: 2})
	s.Step(EvStart{})
	// Initially node 1 is not eligible; its beacon is ignored.
	if acts := s.Step(EvBodyodorReceived{M: wire.Bodyodor{From: 1, GroupID: 1}}); len(sentTokens(acts)) != 0 {
		t.Fatal("non-eligible beacon acted on")
	}
	s.Step(EvSetEligible{IDs: []wire.NodeID{1, 2}})
	acts := s.Step(EvBodyodorReceived{M: wire.Bodyodor{From: 1, GroupID: 1}})
	if len(sentTokens(acts)) != 1 {
		t.Fatal("eligible beacon ignored after online update")
	}
}

func TestMergePendingDeniesAndSuppresses911(t *testing.T) {
	// Node 2 sends its token TBM to node 1 and the pass is acked: while
	// the merge window is open, 911s are denied and our own hungry
	// timeout does not start a 911 round.
	s := New(Config{ID: 2, Eligible: []wire.NodeID{1, 2, 3}})
	s.Step(EvStart{})
	receiveRingToken(s, 2, 10, 2, 3)
	acts := s.Step(EvBodyodorReceived{M: wire.Bodyodor{From: 1, GroupID: 1}})
	tok := sentTokens(acts)[0]
	s.Step(EvTokenAcked{To: 1, Epoch: tok.Tok.Epoch, Seq: tok.Tok.Seq})
	// 911 from a member is denied during the merge window.
	acts = s.Step(Ev911Received{M: wire.Msg911{From: 3, Epoch: 2, Seq: 9, ReqID: 1}})
	if reps := replies911(acts); len(reps) != 1 || reps[0].M.Grant {
		t.Fatalf("replies = %+v, want denial while merge pending", reps)
	}
	// Our own hungry timeout re-arms instead of starving.
	acts = s.Step(EvTimer{Kind: TimerHungry})
	if s.State() == Starving {
		t.Fatal("starved during merge window")
	}
	if len(sent911s(acts)) != 0 {
		t.Fatal("sent 911s during merge window")
	}
	// After the merge window expires, starving works again.
	s.Step(EvTimer{Kind: TimerMergePending})
	s.Step(EvTimer{Kind: TimerHungry})
	if s.State() != Starving {
		t.Fatalf("state = %v, want STARVING after merge window", s.State())
	}
}
