package ring

import "repro/internal/wire"

// This file implements the 911 token-recovery and join protocol (§2.3).
//
// A starving node fans a 911 request out to every other member of its
// view, carrying the (epoch, seq) of its freshest token copy. Each member
// replies with a grant or a denial; the request is denied by any node that
// holds the live token, is vouching for a token handed to a merging group,
// or possesses a fresher copy. Regeneration requires a grant from every
// live member — members whose 911 delivery fails outright are presumed
// dead for the round. A 911 from a node outside the receiver's membership
// is treated as a join request, which also heals broken links and failure
// detector false alarms exactly as described in the paper.

// start911 begins a new 911 round.
func (s *SM) start911(acts *[]Action) {
	s.reqID++
	s.grants = make(map[wire.NodeID]bool)
	s.unreachable = make(map[wire.NodeID]bool)
	s.denied = false
	others := 0
	for _, m := range s.members {
		if m == s.id {
			continue
		}
		others++
		*acts = append(*acts, ActSend911{
			To: m,
			M:  wire.Msg911{From: s.id, Epoch: s.copyEpoch, Seq: s.copySeq, ReqID: s.reqID},
		})
	}
	if others == 0 {
		// Defensive: a singleton cannot lose its token to another node,
		// but if we ever starve alone, regenerate immediately.
		s.regenerate(acts)
	}
}

// startJoinRound begins a rejoin round (§2.3): the tokenless node asks
// every eligible peer for admission. A peer that is a member of a live
// group treats the 911 as a join request and admits us on its next
// token; a peer as cold as we are answers with its own epoch-0 state,
// and the freshness tie-break (node ID) elects exactly one node to seed
// the group the rest then join. With no eligible peers at all — the
// single-node cluster — the node seeds immediately.
func (s *SM) startJoinRound(acts *[]Action) {
	s.reqID++
	s.grants = make(map[wire.NodeID]bool)
	s.unreachable = make(map[wire.NodeID]bool)
	s.denied = false
	targets := 0
	for id := range s.eligible {
		targets++
		*acts = append(*acts, ActSend911{
			To: id,
			M:  wire.Msg911{From: s.id, Epoch: s.copyEpoch, Seq: s.copySeq, ReqID: s.reqID},
		})
	}
	if targets == 0 {
		s.regenerate(acts)
	}
}

// maybeSettleJoin seeds a fresh group once every eligible peer has
// proven unable to admit us — unreachable, or no fresher lineage than
// ours after the ID tie-break. Any fresher peer instead sets denied and
// we keep waiting for its group's token.
func (s *SM) maybeSettleJoin(acts *[]Action) {
	if !s.joining || s.state != Starving || s.denied {
		return
	}
	for id := range s.eligible {
		if !s.grants[id] && !s.unreachable[id] {
			return
		}
	}
	s.regenerate(acts)
}

// clear911 resets round state after the token reappears.
func (s *SM) clear911() {
	s.grants = nil
	s.unreachable = nil
	s.denied = false
}

// on911 answers a 911 request (§2.3).
func (s *SM) on911(m wire.Msg911, acts *[]Action) {
	if m.From == s.id {
		return
	}
	reply := wire.Msg911Reply{
		From:  s.id,
		ReqID: m.ReqID,
		Epoch: s.copyEpoch,
		Seq:   s.copySeq,
	}
	if !s.isMember(m.From) {
		// Join request: admit on our next token (§2.3). This is also how
		// falsely removed nodes automatically rejoin.
		s.queueJoin(m.From)
		reply.JoinPending = true
		*acts = append(*acts, ActSend911Reply{To: m.From, M: reply})
		s.flushJoinsIfPossible(acts)
		return
	}
	switch {
	case s.possessed != nil:
		// The token is not lost: deny (§2.3).
	case s.mergePending:
		// We handed the token to a merging group and vouch for it.
	case s.fresherThan(m.Epoch, m.Seq, m.From):
		// Our local copy is more recent: deny (§2.3).
	default:
		reply.Grant = true
	}
	*acts = append(*acts, ActSend911Reply{To: m.From, M: reply})
}

// fresherThan reports whether our copy is strictly fresher than the
// requester's, with the node ID as the deterministic tie-breaker so that
// at most one node can win a symmetric round.
func (s *SM) fresherThan(epoch, seq uint64, from wire.NodeID) bool {
	if s.copyEpoch != epoch {
		return s.copyEpoch > epoch
	}
	if s.copySeq != seq {
		return s.copySeq > seq
	}
	return s.id > from
}

// on911Reply processes a grant/denial for our current round.
func (s *SM) on911Reply(m wire.Msg911Reply, acts *[]Action) {
	if s.state != Starving || m.ReqID != s.reqID {
		return
	}
	if s.joining {
		// Rejoin round: a fresher lineage exists somewhere — wait for its
		// group to admit us. A peer no fresher than us (after the ID
		// tie-break) cannot admit us, whatever it answered; once every
		// eligible peer is in that bucket or unreachable, we seed.
		if s.fresherThan(m.Epoch, m.Seq, m.From) {
			s.grants[m.From] = true
			s.maybeSettleJoin(acts)
		} else {
			s.denied = true
		}
		return
	}
	switch {
	case m.JoinPending:
		// We are not in the replier's membership. If the replier's token
		// copy is fresher than ours, a live-er lineage exists: wait for
		// that group to admit us (§2.3). If ours is fresher, the replier
		// is itself behind a stale view and must not be allowed to block
		// regeneration forever — count it as a grant; any duplicate
		// lineage that results is reconciled by the epoch rule and the
		// merge protocol.
		if s.fresherThan(m.Epoch, m.Seq, m.From) {
			s.grants[m.From] = true
			s.maybeRegenerate(acts)
		} else {
			s.denied = true
		}
	case m.Grant:
		s.grants[m.From] = true
		s.maybeRegenerate(acts)
	default:
		// A denial means a fresher copy or a live token exists; this
		// round is over, the retry timer starts the next one.
		s.denied = true
	}
}

// on911SendFailed marks a member unreachable for this round. A failure of
// the previous round's request counts too: the transport gives up after
// about Attempts x AckTimeout, which under tight timers is as long as
// StarvingRetry, so that report routinely lands just after the next round
// began — and counting only same-round failures could then starve the
// survivors of a dead token holder indefinitely.
func (s *SM) on911SendFailed(e Ev911SendFailed, acts *[]Action) {
	if s.state != Starving || (e.ReqID != s.reqID && e.ReqID+1 != s.reqID) {
		return
	}
	s.unreachable[e.To] = true
	if s.joining {
		s.maybeSettleJoin(acts)
	} else {
		s.maybeRegenerate(acts)
	}
}

// maybeRegenerate regenerates the token once every other member of our
// view has granted or is unreachable and nobody denied (§2.3).
func (s *SM) maybeRegenerate(acts *[]Action) {
	if s.state != Starving || s.denied {
		return
	}
	for _, m := range s.members {
		if m == s.id {
			continue
		}
		if !s.grants[m] && !s.unreachable[m] {
			return
		}
	}
	s.regenerate(acts)
}

// regenerate recreates the token from the local copy: epoch bumped so
// stale in-flight tokens are discarded, visited counters reset so every
// surviving message makes one full round under the new epoch.
func (s *SM) regenerate(acts *[]Action) {
	wasJoining := s.joining
	tok := s.tokenCopy.Clone()
	tok.Epoch++
	tok.Seq++
	tok.TBM = false
	for i := range tok.Msgs {
		tok.Msgs[i].Visited = 0
	}
	s.possessed = tok
	s.passing = false
	s.joining = false
	s.attachUsed = 0 // regeneration starts a fresh possession and budget
	s.clear911()
	s.setState(Eating, acts)
	*acts = append(*acts, ActStopTimer{Kind: TimerHungry})
	*acts = append(*acts, ActStopTimer{Kind: TimerStarvingRetry})
	*acts = append(*acts, ActTokenRegenerated{Epoch: tok.Epoch})
	if wasJoining && equalIDs(s.members, tok.Members) {
		// The rejoin fallback seeds the group with the same singleton
		// view it booted with, so adoptMembers alone would not emit: a
		// replica recovered from its WAL keys on a live-token membership
		// event to adopt that state as the ring state, so the anchor
		// must fire even though the member list is unchanged.
		*acts = append(*acts, ActMembershipChanged{Members: s.Members(), Epoch: tok.Epoch})
	} else {
		s.adoptMembers(tok, acts)
	}
	if s.stopped {
		return
	}
	// Deliver anything on the regenerated token we had not seen (we are
	// the first visit of the new round).
	s.ingest(tok, acts)
	s.noteCopy(tok)
	*acts = append(*acts, ActSetTimer{Kind: TimerTokenHold, D: s.cfg.TokenHold})
}

// isMember reports whether id is in our current view.
func (s *SM) isMember(id wire.NodeID) bool {
	for _, m := range s.members {
		if m == id {
			return true
		}
	}
	return false
}

// queueJoin records a join request, deduplicated.
func (s *SM) queueJoin(id wire.NodeID) {
	for _, j := range s.pendingJoins {
		if j == id {
			return
		}
	}
	s.pendingJoins = append(s.pendingJoins, id)
}

// flushJoinsIfPossible admits pending joiners immediately when we already
// hold the token; otherwise they wait for the next token arrival.
func (s *SM) flushJoinsIfPossible(acts *[]Action) {
	if s.possessed == nil || s.passing {
		return
	}
	tok := s.possessed
	s.admitJoiners(tok, acts)
	// Pass promptly so the joiner receives the token (§2.3): the paper
	// sends the token to the new node right after admitting it.
	if !s.holding {
		s.passToken(acts, false)
	}
}
