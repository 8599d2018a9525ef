// Package ring implements the Raincore token-ring protocol (§2.2), the 911
// token-recovery and join protocol (§2.3), and the discovery/merge
// protocols (§2.4) as a pure state machine: events in, actions out, no
// goroutines, no clocks, no sockets. The runtime in internal/core wires it
// to the Raincore Transport Service and real timers; tests drive it
// synchronously and deterministically.
package ring

import (
	"time"

	"repro/internal/wire"
)

// NodeState is the per-node protocol state of §2.2/§2.3.
type NodeState uint8

const (
	// Hungry: the node does not have the TOKEN.
	Hungry NodeState = iota
	// Eating: the node has the TOKEN.
	Eating
	// Starving: HUNGRY persisted past the timeout; the node suspects
	// token loss and is running the 911 protocol.
	Starving
	// Down: the node has shut itself down (critical resource loss,
	// quorum loss, or voluntary leave).
	Down
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case Hungry:
		return "HUNGRY"
	case Eating:
		return "EATING"
	case Starving:
		return "STARVING"
	case Down:
		return "DOWN"
	default:
		return "UNKNOWN"
	}
}

// TimerKind identifies the protocol timers the state machine asks the
// runtime to arm.
type TimerKind uint8

const (
	// TimerTokenHold fires when the node's rest with the token is over
	// and it should pass (§2.2). The state machine arms it on each arrival
	// for that possession's share of the rotation's rest budget (see
	// Config.TokenHold), or not at all when it passes on arrival, and stops
	// it when a submission spends the attach budget mid-possession
	// (Config.MaxBatch); a singleton ring never re-arms it.
	TimerTokenHold TimerKind = iota
	// TimerHungry fires when HUNGRY has lasted long enough to suspect
	// token loss (§2.3).
	TimerHungry
	// TimerStarvingRetry re-runs the 911 round while starving.
	TimerStarvingRetry
	// TimerBodyodor paces discovery beacons (§2.4).
	TimerBodyodor
	// TimerMergePending bounds how long a group that handed its token to
	// another group's representative vouches for that token.
	TimerMergePending
	numTimers
)

// NumTimers is the number of timer kinds, for runtimes that keep per-kind
// timer state.
const NumTimers = int(numTimers)

// String names the timer.
func (k TimerKind) String() string {
	switch k {
	case TimerTokenHold:
		return "token-hold"
	case TimerHungry:
		return "hungry"
	case TimerStarvingRetry:
		return "starving-retry"
	case TimerBodyodor:
		return "bodyodor"
	case TimerMergePending:
		return "merge-pending"
	default:
		return "unknown"
	}
}

// Event is an input to the state machine.
type Event interface{ isEvent() }

// EvStart boots the node as a singleton group holding its own token.
// Groups assemble through the 911 join path or the discovery/merge path.
type EvStart struct{}

// EvStartJoining boots the node as a rejoining member: no token is
// created; instead the node sends 911 join requests to its eligible
// peers (§2.3) until an existing group admits it, and falls back to a
// fresh singleton only when every peer is unreachable or equally cold.
// A node restarting from durable state uses this path so it re-enters
// through the ordered join announcement — and its delta state transfer —
// rather than the discovery/merge path's full resync.
type EvStartJoining struct{}

// EvTokenReceived delivers a TOKEN (§2.2). From is the transport-level
// sender. At is the arrival time on the runtime's clock; the state machine
// reads it only to place the rotation's rest (Config.TokenHold), and a
// zero At rests the fixed TokenHold.
type EvTokenReceived struct {
	From wire.NodeID
	Tok  *wire.Token
	At   time.Time
}

// EvTokenAcked reports that the transport confirmed delivery of the token
// this node passed (identified by epoch and seq).
type EvTokenAcked struct {
	To    wire.NodeID
	Epoch uint64
	Seq   uint64
}

// EvTokenSendFailed is the failure-on-delivery notification for a token
// pass: the basis of the aggressive failure detection (§2.2).
type EvTokenSendFailed struct {
	To    wire.NodeID
	Epoch uint64
	Seq   uint64
}

// Ev911Received delivers a 911 request (§2.3).
type Ev911Received struct{ M wire.Msg911 }

// Ev911ReplyReceived delivers a grant/denial of our 911 request.
type Ev911ReplyReceived struct{ M wire.Msg911Reply }

// Ev911SendFailed reports that a 911 request could not be delivered; the
// target is presumed dead for this 911 round.
type Ev911SendFailed struct {
	To    wire.NodeID
	ReqID uint64
}

// EvBodyodorReceived delivers a discovery beacon (§2.4).
type EvBodyodorReceived struct{ M wire.Bodyodor }

// EvForwardReceived delivers an open-group message to be multicast into
// the group by this member (§2.6).
type EvForwardReceived struct{ M wire.Forward }

// EvTimer reports that a previously armed timer fired.
type EvTimer struct{ Kind TimerKind }

// EvSubmit queues an application multicast (§2.6). Safe selects safe
// ordering; otherwise the message is delivered with agreed ordering.
type EvSubmit struct {
	Payload []byte
	Safe    bool
}

// EvHoldRequest asks for the master lock (§2.7): once the node is EATING
// it keeps the token until EvHoldRelease.
type EvHoldRequest struct{}

// EvHoldRelease releases the master lock; the token resumes circulating.
type EvHoldRelease struct{}

// EvLeave removes this node from the group voluntarily.
type EvLeave struct{}

// EvCriticalResourceFailed reports loss of a critical resource; per §2.4
// the node shuts itself down.
type EvCriticalResourceFailed struct{ Resource string }

// EvSetEligible replaces the eligible membership (§2.4); it can be updated
// online.
type EvSetEligible struct{ IDs []wire.NodeID }

func (EvStart) isEvent()                  {}
func (EvStartJoining) isEvent()           {}
func (EvTokenReceived) isEvent()          {}
func (EvTokenAcked) isEvent()             {}
func (EvTokenSendFailed) isEvent()        {}
func (Ev911Received) isEvent()            {}
func (Ev911ReplyReceived) isEvent()       {}
func (Ev911SendFailed) isEvent()          {}
func (EvBodyodorReceived) isEvent()       {}
func (EvForwardReceived) isEvent()        {}
func (EvTimer) isEvent()                  {}
func (EvSubmit) isEvent()                 {}
func (EvHoldRequest) isEvent()            {}
func (EvHoldRelease) isEvent()            {}
func (EvLeave) isEvent()                  {}
func (EvCriticalResourceFailed) isEvent() {}
func (EvSetEligible) isEvent()            {}

// Action is an output of the state machine, executed by the runtime.
type Action interface{ isAction() }

// ActSendToken asks the runtime to send the token via the reliable
// transport and to report EvTokenAcked or EvTokenSendFailed for the
// token's (epoch, seq). Spent marks a pass made because the possession
// attached everything its attach budget allows (Config.MaxBatch).
type ActSendToken struct {
	To    wire.NodeID
	Tok   *wire.Token
	Spent bool
}

// ActSend911 sends a 911 request; the runtime reports Ev911SendFailed on
// failure-on-delivery.
type ActSend911 struct {
	To wire.NodeID
	M  wire.Msg911
}

// ActSend911Reply answers a 911 (fire-and-forget reliability).
type ActSend911Reply struct {
	To wire.NodeID
	M  wire.Msg911Reply
}

// ActSendBodyodor emits a discovery beacon (fire-and-forget).
type ActSendBodyodor struct {
	To wire.NodeID
	M  wire.Bodyodor
}

// ActSetTimer (re-)arms a timer.
type ActSetTimer struct {
	Kind TimerKind
	D    time.Duration
}

// ActStopTimer cancels a timer.
type ActStopTimer struct{ Kind TimerKind }

// ActDeliver hands a multicast message (application or system) to the
// upper layer, in the agreed total order (§2.6).
type ActDeliver struct{ Msg wire.Message }

// ActMembershipChanged reports the node's current local membership view.
type ActMembershipChanged struct {
	Members []wire.NodeID
	Epoch   uint64
}

// ActStateChanged reports EATING/HUNGRY/STARVING transitions.
type ActStateChanged struct{ State NodeState }

// ActHoldGranted reports that the master lock is now held (§2.7).
type ActHoldGranted struct{}

// ActTokenRegenerated reports a successful 911 regeneration (§2.3).
type ActTokenRegenerated struct{ Epoch uint64 }

// ActMergeCompleted reports a completed group merge (§2.4).
type ActMergeCompleted struct {
	Members []wire.NodeID
	Epoch   uint64
}

// ActShutdown reports that the node stopped (voluntary leave, critical
// resource loss, or quorum loss).
type ActShutdown struct{ Reason string }

func (ActSendToken) isAction()         {}
func (ActSend911) isAction()           {}
func (ActSend911Reply) isAction()      {}
func (ActSendBodyodor) isAction()      {}
func (ActSetTimer) isAction()          {}
func (ActStopTimer) isAction()         {}
func (ActDeliver) isAction()           {}
func (ActMembershipChanged) isAction() {}
func (ActStateChanged) isAction()      {}
func (ActHoldGranted) isAction()       {}
func (ActTokenRegenerated) isAction()  {}
func (ActMergeCompleted) isAction()    {}
func (ActShutdown) isAction()          {}
