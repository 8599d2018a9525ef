package ring

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// Config parameterizes one node's protocol instance. Durations follow the
// paper's regime: the token circulates at a regular interval (§2.2), the
// HUNGRY timeout triggers the 911 protocol (§2.3), and BODYODOR beacons
// run at a low frequency (§2.4).
type Config struct {
	// ID is this node's identity. Must be non-zero.
	ID wire.NodeID
	// TokenHold sets the rotation period: each rotation spends a rest
	// budget R = len(members) x TokenHold (capped at HungryTimeout/2),
	// which the members with work share (§2.2's regular interval, placed
	// where the writes are; see restFor). A member with work rests at
	// least TokenHold, so a ring where every member has work at every
	// visit, below its attach budget, passes exactly as the paper's fixed
	// hold does; an arrival without a timestamp (EvTokenReceived.At) also
	// rests TokenHold. A member that spends its attach budget (MaxBatch)
	// does not rest at all.
	TokenHold time.Duration
	// HungryTimeout is how long HUNGRY lasts before STARVING. It also
	// caps the rest budget at half its length, so a member never waits
	// close to it while another rests.
	HungryTimeout time.Duration
	// StarvingRetry is the period between 911 rounds while starving.
	StarvingRetry time.Duration
	// BodyodorInterval paces discovery beacons. Zero disables discovery.
	BodyodorInterval time.Duration
	// MergeTimeout bounds how long a group that handed its token away
	// for a merge vouches for it. Zero derives 4x HungryTimeout.
	MergeTimeout time.Duration
	// Eligible is the eligible membership (§2.4), this node included.
	Eligible []wire.NodeID
	// MinQuorum, when > 0, shuts the node down if the membership drops
	// below this size — the paper's quorum-decider strategy (§2.4).
	MinQuorum int
	// MaxBatch, when > 0, bounds how many queued multicasts this node
	// attaches to the token per hop (its attach budget, §2.6); the rest
	// wait for the next visit. The bound keeps token frames within
	// datagram limits and caps each member's share of a visit, and a
	// spent budget ends the visit: the holder passes on arrival, or at the
	// submission that spends it, instead of resting with nothing left that
	// it may send, so a loaded ring turns the token as fast as its members
	// can process it. Zero means unlimited (the holder rests as placed).
	// Singleton rings ignore the bound: their token never travels, so
	// batching has nothing to protect. A master-lock holder (§2.7) is also
	// exempt — capping it would deadlock an application that awaits its
	// own multicast before unlocking — so everything it submits during the
	// hold travels in one frame on release; do not bulk-multicast under
	// the lock if datagram size is the reason for the bound. Oversized
	// frames no longer destroy the pass — the runtime chunks them across
	// datagrams — but the budget is still what keeps steady-state tokens
	// single-datagram. The budget is fixed for the node's life; a ring
	// whose token_budget_passes_total climbs is bound by it.
	MaxBatch int
	// SeqBase seeds this node's per-origin multicast sequence numbers.
	// It must be higher than any sequence the node used in a previous
	// incarnation, or peers will suppress its messages as duplicates;
	// the runtime derives it from the wall clock.
	SeqBase uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.TokenHold <= 0 {
		out.TokenHold = 10 * time.Millisecond
	}
	if out.HungryTimeout <= 0 {
		out.HungryTimeout = 50 * time.Millisecond
	}
	if out.StarvingRetry <= 0 {
		out.StarvingRetry = out.HungryTimeout
	}
	if out.MergeTimeout <= 0 {
		out.MergeTimeout = 4 * out.HungryTimeout
	}
	return out
}

// outMsg is an application multicast waiting for the token.
type outMsg struct {
	payload []byte
	safe    bool
}

// originSlots bounds the per-origin activity table; rings are a handful
// of members, and an overflow only evicts the stalest origin.
const originSlots = 32

// originSeen records when an origin's application multicast last rode a
// token arriving here.
type originSeen struct {
	id wire.NodeID
	at time.Time
}

// SM is the protocol state machine for one node. It is not safe for
// concurrent use; the runtime serializes events.
type SM struct {
	cfg Config
	id  wire.NodeID

	state   NodeState
	members []wire.NodeID

	// Token possession. possessed is non-nil while this node holds the
	// live token, including the window where a pass awaits its transport
	// acknowledgement (the token must survive a failed pass, §2.2).
	possessed *wire.Token
	passing   bool
	passTBM   bool
	passTo    wire.NodeID
	passEpoch uint64
	passSeq   uint64

	// copyEpoch/copySeq identify the freshest token state this node has
	// seen or sent; tokenCopy is the local copy kept for 911
	// regeneration (§2.3).
	copyEpoch uint64
	copySeq   uint64
	tokenCopy *wire.Token

	// Multicast bookkeeping.
	nextSeq   uint64 // per-origin sequence for our own messages
	outbox    []outMsg
	delivered map[wire.MessageID]bool
	highWater map[wire.NodeID]uint64
	// attachUsed counts outbox attachments during the current token
	// possession; the batch budget bounds it per possession, not per
	// attachOutbox call, so submissions arriving while the token is
	// held cannot bypass the per-hop budget.
	attachUsed int

	// Rest placement (restFor), all on arrival stamps: arrivedAt is the
	// current or last possession's arrival (zero: no history yet), passAt
	// when that possession was due to end, attachAt the arrival of the
	// last possession that attached an application multicast, and seen
	// when each other origin's application multicasts last rode an
	// arriving token.
	arrivedAt time.Time
	passAt    time.Time
	attachAt  time.Time
	seen      [originSlots]originSeen

	// Master lock (§2.7).
	holdRequested bool
	holding       bool

	// 911 state (§2.3).
	reqID        uint64
	grants       map[wire.NodeID]bool
	unreachable  map[wire.NodeID]bool
	denied       bool
	pendingJoins []wire.NodeID
	// joining marks a rejoin boot (EvStartJoining): the node holds no
	// token and runs join rounds against its eligible peers instead of
	// member 911 rounds, until a token admits it or it seeds a group.
	joining bool

	// Discovery / merge state (§2.4).
	eligible      map[wire.NodeID]bool
	pendingMerges []wire.NodeID
	tbmTokens     []*wire.Token
	mergePending  bool

	stopped bool
}

// New constructs a state machine. Call Step(EvStart{}) to boot it.
func New(cfg Config) *SM {
	if cfg.ID == wire.NoNode {
		panic("ring: Config.ID must be non-zero")
	}
	c := cfg.withDefaults()
	s := &SM{
		cfg:       c,
		id:        c.ID,
		state:     Down,
		nextSeq:   c.SeqBase,
		delivered: make(map[wire.MessageID]bool),
		highWater: make(map[wire.NodeID]uint64),
		eligible:  make(map[wire.NodeID]bool),
	}
	for _, e := range c.Eligible {
		if e != c.ID {
			s.eligible[e] = true
		}
	}
	return s
}

// ID returns the node's identity.
func (s *SM) ID() wire.NodeID { return s.id }

// State returns the current protocol state.
func (s *SM) State() NodeState { return s.state }

// Members returns the node's current membership view.
func (s *SM) Members() []wire.NodeID { return append([]wire.NodeID(nil), s.members...) }

// GroupID returns the current group ID: the lowest member ID (§2.4).
func (s *SM) GroupID() wire.NodeID {
	g := wire.NoNode
	for _, m := range s.members {
		if g == wire.NoNode || m < g {
			g = m
		}
	}
	return g
}

// HasToken reports whether the node currently possesses the token.
func (s *SM) HasToken() bool { return s.possessed != nil }

// PossessedToken returns the token this node currently holds, or nil. The
// runtime uses pointer identity to track which receive buffer (if any)
// backs the possessed token's zero-copy payload views; the caller must not
// mutate the token.
func (s *SM) PossessedToken() *wire.Token { return s.possessed }

// Step applies one event and returns the resulting actions in order.
func (s *SM) Step(ev Event) []Action {
	if s.stopped {
		return nil
	}
	var acts []Action
	switch e := ev.(type) {
	case EvStart:
		s.start(&acts)
	case EvStartJoining:
		s.startJoining(&acts)
	case EvTokenReceived:
		s.onToken(e, &acts)
	case EvTokenAcked:
		s.onTokenAcked(e, &acts)
	case EvTokenSendFailed:
		s.onTokenSendFailed(e, &acts)
	case Ev911Received:
		s.on911(e.M, &acts)
	case Ev911ReplyReceived:
		s.on911Reply(e.M, &acts)
	case Ev911SendFailed:
		s.on911SendFailed(e, &acts)
	case EvBodyodorReceived:
		s.onBodyodor(e.M, &acts)
	case EvForwardReceived:
		s.outbox = append(s.outbox, outMsg{payload: e.M.Payload, safe: e.M.Safe})
		s.flushIfPossessed(&acts)
	case EvTimer:
		s.onTimer(e.Kind, &acts)
	case EvSubmit:
		s.outbox = append(s.outbox, outMsg{payload: e.Payload, safe: e.Safe})
		s.flushIfPossessed(&acts)
	case EvHoldRequest:
		s.holdRequested = true
		if s.state == Eating && !s.passing && !s.holding {
			s.holding = true
			acts = append(acts, ActHoldGranted{})
		}
	case EvHoldRelease:
		s.holdRequested = false
		if s.holding {
			s.holding = false
			if s.possessed != nil && !s.passing {
				s.passToken(&acts, false)
			}
		}
	case EvLeave:
		s.shutdown("voluntary leave", &acts)
	case EvCriticalResourceFailed:
		s.shutdown(fmt.Sprintf("critical resource failed: %s", e.Resource), &acts)
	case EvSetEligible:
		s.eligible = make(map[wire.NodeID]bool, len(e.IDs))
		for _, id := range e.IDs {
			if id != s.id {
				s.eligible[id] = true
			}
		}
	}
	return acts
}

// start boots the node as a singleton group with a fresh token.
func (s *SM) start(acts *[]Action) {
	s.members = []wire.NodeID{s.id}
	tok := &wire.Token{Epoch: 1, Seq: 0, Members: []wire.NodeID{s.id}}
	s.possessed = tok
	s.noteCopy(tok)
	s.setState(Eating, acts)
	*acts = append(*acts, ActMembershipChanged{Members: s.Members(), Epoch: tok.Epoch})
	*acts = append(*acts, ActSetTimer{Kind: TimerTokenHold, D: s.cfg.TokenHold})
	if s.cfg.BodyodorInterval > 0 {
		*acts = append(*acts, ActSetTimer{Kind: TimerBodyodor, D: s.cfg.BodyodorInterval})
	}
}

// startJoining boots the node as a rejoining member (§2.3): tokenless
// and STARVING from the first instant, it runs join rounds against the
// eligible peers until a group's token admits it. tokenCopy seeds the
// epoch-0 singleton the node falls back to when no peer answers — the
// single-node-cluster restart.
func (s *SM) startJoining(acts *[]Action) {
	s.members = []wire.NodeID{s.id}
	s.joining = true
	s.tokenCopy = &wire.Token{Members: []wire.NodeID{s.id}}
	*acts = append(*acts, ActMembershipChanged{Members: s.Members(), Epoch: 0})
	s.setState(Starving, acts)
	s.startJoinRound(acts)
	if s.joining {
		*acts = append(*acts, ActSetTimer{Kind: TimerStarvingRetry, D: s.cfg.StarvingRetry})
	}
	if s.cfg.BodyodorInterval > 0 {
		*acts = append(*acts, ActSetTimer{Kind: TimerBodyodor, D: s.cfg.BodyodorInterval})
	}
}

// setState transitions the protocol state, emitting an action on change.
func (s *SM) setState(st NodeState, acts *[]Action) {
	if s.state == st {
		return
	}
	s.state = st
	*acts = append(*acts, ActStateChanged{State: st})
}

// noteCopy records tok as this node's freshest known token state and keeps
// a deep local copy for 911 regeneration (§2.3).
func (s *SM) noteCopy(tok *wire.Token) {
	s.copyEpoch, s.copySeq = tok.Epoch, tok.Seq
	s.tokenCopy = tok.Clone()
}

// flushIfPossessed attaches queued messages immediately when this node
// holds the token. This matters in two cases: a singleton's token never
// travels, and a node pinning the token with the master lock (§2.7) would
// otherwise deadlock waiting for its own multicast to attach.
//
// A submission that spends the possession's attach budget passes the token
// at once: nothing more may ride it here. The pass is stamped at the
// arrival (the state machine has no clock on a submit), and the hold timer
// armed for the planned rest is stopped so it cannot fire into a later
// possession.
func (s *SM) flushIfPossessed(acts *[]Action) {
	if s.possessed == nil || s.passing || len(s.outbox) == 0 {
		return
	}
	s.attachOutbox(s.possessed, acts)
	if s.budgetSpent() {
		s.passAt = s.arrivedAt
		*acts = append(*acts, ActStopTimer{Kind: TimerTokenHold})
		s.passToken(acts, true)
	}
}

// budgetSpent reports whether this possession has attached everything its
// attach budget (§2.6) allows, so holding the token longer only delays the
// ring. Exempt, as in attachOutbox: a master-lock holder or a pending hold
// request (§2.7), a singleton, and an unlimited budget.
func (s *SM) budgetSpent() bool {
	ceil := s.cfg.MaxBatch
	return ceil > 0 && s.attachUsed >= ceil && s.possessed != nil && len(s.possessed.Members) > 1 &&
		!s.holding && !s.holdRequested
}

// onTimer dispatches timer fires.
func (s *SM) onTimer(kind TimerKind, acts *[]Action) {
	switch kind {
	case TimerTokenHold:
		if s.possessed == nil || s.passing {
			return
		}
		if s.holdRequested || s.holding {
			if !s.holding {
				s.holding = true
				*acts = append(*acts, ActHoldGranted{})
			}
			return // master lock held: the token stays (§2.7)
		}
		s.passToken(acts, false)
	case TimerHungry:
		if s.state != Hungry {
			return
		}
		if s.mergePending {
			// The token is with a merging group; do not start 911 while
			// the merge window is open (§2.4).
			*acts = append(*acts, ActSetTimer{Kind: TimerHungry, D: s.cfg.HungryTimeout})
			return
		}
		s.setState(Starving, acts)
		s.start911(acts)
		*acts = append(*acts, ActSetTimer{Kind: TimerStarvingRetry, D: s.cfg.StarvingRetry})
	case TimerStarvingRetry:
		if s.state != Starving {
			return
		}
		if s.joining {
			s.startJoinRound(acts)
		} else {
			s.start911(acts)
		}
		if s.state == Starving {
			*acts = append(*acts, ActSetTimer{Kind: TimerStarvingRetry, D: s.cfg.StarvingRetry})
		}
	case TimerBodyodor:
		s.sendBodyodors(acts)
		if s.cfg.BodyodorInterval > 0 {
			*acts = append(*acts, ActSetTimer{Kind: TimerBodyodor, D: s.cfg.BodyodorInterval})
		}
	case TimerMergePending:
		s.mergePending = false
	}
}

// onToken handles a TOKEN arrival (§2.2).
func (s *SM) onToken(e EvTokenReceived, acts *[]Action) {
	tok := e.Tok
	if tok.TBM {
		// A merge token from another group (§2.4): epochs across groups
		// are incomparable, so accept regardless of our copy's epoch.
		// Hold it until our own token arrives, then merge; if we possess
		// our token right now, merge immediately.
		s.tbmTokens = append(s.tbmTokens, tok)
		if s.possessed != nil && !s.passing {
			s.mergeHeldTokens(acts)
		}
		return
	}
	// Stale token from before a regeneration or merge: discard. The
	// sender will starve and re-learn the fresh state through 911.
	if tok.Epoch < s.copyEpoch {
		return
	}
	if !tok.HasMember(s.id) {
		// We are not in this token's membership: we were removed and the
		// token leaked to us anyway. Ignore; the 911/join path recovers.
		return
	}
	// A fresh token supersedes any pass still awaiting acknowledgement.
	s.possessed = tok
	s.passing = false
	s.joining = false // an admitting token completes a rejoin boot
	s.attachUsed = 0  // a new possession starts a fresh attach budget
	s.setState(Eating, acts)
	*acts = append(*acts, ActStopTimer{Kind: TimerHungry})
	*acts = append(*acts, ActStopTimer{Kind: TimerStarvingRetry})
	s.clear911()
	if s.mergePending {
		s.mergePending = false
		*acts = append(*acts, ActStopTimer{Kind: TimerMergePending})
	}

	s.adoptMembers(tok, acts)
	prev := s.arrivedAt
	s.arrivedAt = e.At
	if !e.At.IsZero() {
		s.noteOrigins(tok, e.At)
	}
	s.ingest(tok, acts)

	// Merge any TBM tokens we have been holding (§2.4).
	if len(s.tbmTokens) > 0 {
		s.mergeHeldTokens(acts)
	}

	// Admit pending joiners (§2.3): add to the membership, announce in
	// the agreed order, and pass the token to the newest joiner.
	s.admitJoiners(tok, acts)

	// Attach queued multicasts (§2.6).
	s.attachOutbox(tok, acts)

	s.noteCopy(tok)

	// Initiate a pending merge (§2.4); this may send the token away.
	s.processMerges(tok, acts)

	if s.holdRequested && !s.holding && !s.passing {
		s.holding = true
		*acts = append(*acts, ActHoldGranted{})
	}
	rest, spent := s.restFor(e.At, prev), s.budgetSpent()
	if spent {
		rest = 0 // the attach budget is spent: nothing more may ride here
	}
	s.passAt = e.At.Add(rest)
	if rest > 0 {
		*acts = append(*acts, ActSetTimer{Kind: TimerTokenHold, D: rest})
	} else if s.possessed != nil && !s.passing && !s.holding {
		s.passToken(acts, spent) // idle while the rest is spent elsewhere, or budget spent
	}
}

// restFor places one possession within the rotation's rest budget
// R = len(members) x TokenHold, capped at HungryTimeout/2. A member is
// active while it has a multicast queued or attached one within the last
// 4R; k counts the active members it knows of: itself, plus the other
// origins whose application multicasts rode arriving tokens within the
// same window. An active member rests R/k, never less than TokenHold, so
// a ring where every member is active keeps the paper's fixed schedule.
// An idle member passes on arrival while anyone else is active. On a
// wholly idle ring the rest stays where it is: a member the token
// returns to within R/2 of its own pass (everyone else passed on
// arrival) rests R, the others pass on, and one rotation still takes
// about R plus the hops. Without arrival history — the first stamped
// arrival, or an unstamped one — the member rests TokenHold.
func (s *SM) restFor(now, prev time.Time) time.Duration {
	hold := s.cfg.TokenHold
	if now.IsZero() || prev.IsZero() {
		return hold
	}
	budget := time.Duration(len(s.members)) * hold
	if ceil := s.cfg.HungryTimeout / 2; budget > ceil {
		budget = ceil
	}
	window := 4 * budget
	k := s.activeOthers(now, window)
	switch {
	case len(s.outbox) > 0 || now.Sub(s.attachAt) <= window:
		return max(budget/time.Duration(k+1), hold)
	case k > 0:
		return 0
	case now.Sub(s.passAt) <= budget/2:
		return budget
	default:
		return 0
	}
}

// noteOrigins stamps the origins of the application multicasts riding an
// arriving token into the fixed-size activity table.
func (s *SM) noteOrigins(tok *wire.Token, now time.Time) {
	last := wire.NoNode
	for i := range tok.Msgs {
		m := &tok.Msgs[i]
		if m.Sys != wire.SysApp || m.Origin == s.id || m.Origin == last {
			continue
		}
		last = m.Origin
		slot := 0
		for j := range s.seen {
			if s.seen[j].id == m.Origin {
				slot = j
				break
			}
			if s.seen[j].at.Before(s.seen[slot].at) {
				slot = j // the stalest entry, or an empty one
			}
		}
		s.seen[slot] = originSeen{id: m.Origin, at: now}
	}
}

// activeOthers counts the current members other than this one whose
// application multicasts arrived here within the window.
func (s *SM) activeOthers(now time.Time, window time.Duration) int {
	k := 0
	for i := range s.seen {
		if e := &s.seen[i]; e.id != wire.NoNode && now.Sub(e.at) <= window && s.isMember(e.id) {
			k++
		}
	}
	return k
}

// adoptMembers installs the token's authoritative membership as the local
// view (§2.5) and applies the quorum policy.
func (s *SM) adoptMembers(tok *wire.Token, acts *[]Action) {
	if equalIDs(s.members, tok.Members) {
		return
	}
	shrank := len(tok.Members) < len(s.members)
	s.members = append(s.members[:0:0], tok.Members...)
	*acts = append(*acts, ActMembershipChanged{Members: s.Members(), Epoch: tok.Epoch})
	if shrank {
		s.checkQuorum(acts)
	}
}

// checkQuorum applies the quorum-decider strategy (§2.4). It is only
// invoked when the membership shrinks: groups must be allowed to assemble
// from singletons, so growth never trips the policy.
func (s *SM) checkQuorum(acts *[]Action) {
	if s.cfg.MinQuorum > 0 && len(s.members) < s.cfg.MinQuorum {
		s.shutdown(fmt.Sprintf("membership %d below quorum %d", len(s.members), s.cfg.MinQuorum), acts)
	}
}

// admitJoiners adds pending joiners to the token (§2.3). The token is then
// sent to the first admitted joiner, naturally bypassing any broken link.
func (s *SM) admitJoiners(tok *wire.Token, acts *[]Action) {
	if len(s.pendingJoins) == 0 || s.passing {
		return
	}
	admitted := false
	for _, j := range s.pendingJoins {
		if tok.HasMember(j) {
			continue
		}
		tok.InsertAfter(s.id, j)
		s.appendSys(tok, wire.SysNodeJoined, j, acts)
		admitted = true
	}
	s.pendingJoins = s.pendingJoins[:0]
	if admitted {
		s.adoptMembersFromLocal(tok, false, acts)
	}
}

// adoptMembersFromLocal refreshes the local view after this node itself
// edited the token's membership; shrank selects whether the quorum policy
// applies (removals yes, joins and merges no).
func (s *SM) adoptMembersFromLocal(tok *wire.Token, shrank bool, acts *[]Action) {
	s.members = append(s.members[:0:0], tok.Members...)
	*acts = append(*acts, ActMembershipChanged{Members: s.Members(), Epoch: tok.Epoch})
	if shrank {
		s.checkQuorum(acts)
	}
}

// appendSys attaches a system message (node joined/removed, merge) to the
// token so every replica observes the change at the same point in the
// agreed total order, and delivers it locally.
func (s *SM) appendSys(tok *wire.Token, kind wire.SysKind, subject wire.NodeID, acts *[]Action) {
	s.nextSeq++
	m := wire.Message{
		Origin:  s.id,
		Seq:     s.nextSeq,
		Sys:     kind,
		Subject: subject,
		Visited: 1,
	}
	tok.Msgs = append(tok.Msgs, m)
	s.delivered[m.ID()] = true
	*acts = append(*acts, ActDeliver{Msg: m})
}

// attachOutbox appends queued application multicasts to the token and
// delivers the agreed-ordered ones locally (the origin's position in the
// total order is its attach point, §2.6).
func (s *SM) attachOutbox(tok *wire.Token, acts *[]Action) {
	limit := len(s.outbox)
	// The batch budget bounds how much one possession adds to the
	// traveling token frame. A node pinning the token under the master
	// lock (§2.7) is exempt: its token is not traveling, and capping it
	// would recreate the deadlock flushIfPossessed exists to prevent —
	// a lock holder waiting on its own (budget-starved) multicast.
	if ceil := s.cfg.MaxBatch; ceil > 0 && len(tok.Members) > 1 && !s.holding {
		budget := ceil - s.attachUsed
		if budget < 0 {
			budget = 0
		}
		if limit > budget {
			limit = budget
		}
		s.attachUsed += limit
	}
	if limit > 0 {
		s.attachAt = s.arrivedAt // activity, stamped at this possession's arrival
	}
	for _, om := range s.outbox[:limit] {
		s.nextSeq++
		m := wire.Message{
			Origin:  s.id,
			Seq:     s.nextSeq,
			Safe:    om.safe,
			Phase:   wire.PhaseCollect,
			Visited: 1,
			Payload: om.payload,
		}
		if !om.safe {
			s.delivered[m.ID()] = true
			*acts = append(*acts, ActDeliver{Msg: m})
		}
		tok.Msgs = append(tok.Msgs, m)
	}
	s.outbox = s.outbox[:copy(s.outbox, s.outbox[limit:])]
	// A singleton ring never passes the token, so complete local cycles
	// here: visited==1 >= members==1 prunes agreed messages and walks
	// safe messages through their phases.
	if len(tok.Members) == 1 {
		s.ingest(tok, acts)
		if len(tok.Msgs) > 0 {
			s.ingest(tok, acts) // release phase of safe messages
		}
		s.noteCopy(tok)
	}
}

// ingest processes the token's piggybacked messages at this node: delivery
// with dedup, visited accounting, safe-phase transitions and pruning
// (§2.6).
func (s *SM) ingest(tok *wire.Token, acts *[]Action) {
	n := uint16(len(tok.Members))
	kept := tok.Msgs[:0]
	for i := range tok.Msgs {
		m := tok.Msgs[i]
		m.Visited++
		switch {
		case !m.Safe:
			s.deliverOnce(m, acts)
			if m.Visited >= n {
				continue // full round: every member has it; prune
			}
		case m.Phase == wire.PhaseCollect:
			if m.Visited >= n {
				// Whole membership holds the message: release it. This
				// node is the first to deliver in the release round.
				m.Phase = wire.PhaseRelease
				m.Visited = 1
				s.deliverOnce(m, acts)
			}
		default: // PhaseRelease
			s.deliverOnce(m, acts)
			if m.Visited >= n {
				continue
			}
		}
		kept = append(kept, m)
	}
	tok.Msgs = kept
	s.pruneDelivered(tok)
}

// deliverOnce delivers m upward unless it was already delivered.
func (s *SM) deliverOnce(m wire.Message, acts *[]Action) {
	id := m.ID()
	if m.Seq <= s.highWater[m.Origin] || s.delivered[id] {
		return
	}
	s.delivered[id] = true
	*acts = append(*acts, ActDeliver{Msg: m})
}

// pruneDelivered drops dedup entries for messages no longer on the token,
// advancing the per-origin high-water mark so replays from regenerated
// token copies are still suppressed.
func (s *SM) pruneDelivered(tok *wire.Token) {
	if len(s.delivered) == 0 {
		return
	}
	onToken := make(map[wire.MessageID]bool, len(tok.Msgs))
	for i := range tok.Msgs {
		onToken[tok.Msgs[i].ID()] = true
	}
	for id := range s.delivered {
		if !onToken[id] {
			delete(s.delivered, id)
			if id.Seq > s.highWater[id.Origin] {
				s.highWater[id.Origin] = id.Seq
			}
		}
	}
}

// passToken sends the possessed token to the ring successor (§2.2); spent
// marks a pass made because the possession's attach budget was spent.
func (s *SM) passToken(acts *[]Action, spent bool) {
	tok := s.possessed
	succ := tok.Successor(s.id)
	if succ == s.id || succ == wire.NoNode {
		// Singleton: run a local cycle and keep eating. No hold timer is
		// re-armed: attachOutbox already completes a singleton's cycles on
		// submit, and joins and merges act on their own events, so waking
		// every TokenHold would only repeat that ingest. A master-lock
		// request that waited out the pass that collapsed the ring is
		// granted here instead of by the next timer fire.
		s.ingest(tok, acts)
		s.noteCopy(tok)
		if s.holdRequested && !s.holding {
			s.holding = true
			*acts = append(*acts, ActHoldGranted{})
		}
		return
	}
	tok.Seq++
	s.passing = true
	s.passTBM = false
	s.passTo = succ
	s.passEpoch, s.passSeq = tok.Epoch, tok.Seq
	s.noteCopy(tok) // our copy reflects the state we sent (§2.3)
	*acts = append(*acts, ActSendToken{To: succ, Tok: tok.Clone(), Spent: spent})
}

// onTokenAcked completes a pass: the successor holds the token now.
func (s *SM) onTokenAcked(e EvTokenAcked, acts *[]Action) {
	if !s.passing || e.Epoch != s.passEpoch || e.Seq != s.passSeq || e.To != s.passTo {
		return // stale acknowledgement
	}
	s.passing = false
	s.possessed = nil
	if s.passTBM {
		// We handed our token to a merging group's representative: vouch
		// for it (deny 911s) until the merged token appears or the merge
		// window expires (§2.4).
		s.passTBM = false
		s.mergePending = true
		*acts = append(*acts, ActSetTimer{Kind: TimerMergePending, D: s.cfg.MergeTimeout})
	}
	s.setState(Hungry, acts)
	*acts = append(*acts, ActSetTimer{Kind: TimerHungry, D: s.cfg.HungryTimeout})
}

// onTokenSendFailed is the aggressive failure detector (§2.2): the target
// is immediately removed from the membership and the token forwarded to
// the next healthy member.
func (s *SM) onTokenSendFailed(e EvTokenSendFailed, acts *[]Action) {
	if !s.passing || e.Epoch != s.passEpoch || e.Seq != s.passSeq || e.To != s.passTo {
		return // stale failure
	}
	s.passing = false
	s.passTBM = false
	tok := s.possessed
	tok.TBM = false // a failed TBM pass aborts the merge attempt
	if tok.RemoveMember(e.To) {
		s.appendSys(tok, wire.SysNodeRemoved, e.To, acts)
		s.adoptMembersFromLocal(tok, true, acts)
		if s.stopped {
			return // quorum policy shut us down
		}
	}
	s.passToken(acts, false)
}

// shutdown stops the node. If it holds the token, the token is passed on
// with this node removed so the group continues without interruption.
func (s *SM) shutdown(reason string, acts *[]Action) {
	if s.stopped {
		return
	}
	if s.possessed != nil && !s.passing {
		tok := s.possessed
		if tok.RemoveMember(s.id) && len(tok.Members) > 0 {
			s.appendSys(tok, wire.SysNodeRemoved, s.id, acts)
			succ := tok.Members[0]
			tok.Seq++
			*acts = append(*acts, ActSendToken{To: succ, Tok: tok.Clone()})
		}
	}
	s.stopped = true
	s.possessed = nil
	s.state = Down
	for k := TimerKind(0); k < numTimers; k++ {
		*acts = append(*acts, ActStopTimer{Kind: k})
	}
	*acts = append(*acts, ActStateChanged{State: Down})
	*acts = append(*acts, ActShutdown{Reason: reason})
}

// equalIDs compares two membership slices in order.
func equalIDs(a, b []wire.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
