package dds

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// Ordered shard handoff.
//
// A routing-epoch change (grow or shrink) moves exactly the keyspace
// slices moved(oldRing, newRing) names. The coordinator — the lowest
// member of the combined membership, invoked through core.Resharder —
// drives a four-phase protocol in which every phase transition is a
// multicast on an affected ring's ordered stream:
//
//	FREEZE   on each source ring: from this ordered position, every
//	         replica rejects writes into the moving slices with
//	         ErrResharding. The coordinator's replica captures the
//	         slices' state at exactly this position.
//	INSTALL  on each target ring: the captured state is staged on every
//	         replica of the target shard (not yet visible).
//	FLIP     on each target ring: the staged state becomes live. When a
//	         node has applied the flip of every target, it atomically
//	         adopts the new epoch — subsequent writes it submits are
//	         ordered after the flip on the target ring — publishes it to
//	         its runtime, and silently purges the handed-off slices from
//	         the source replicas.
//	ABORT    (failure path, any ring) : sources unfreeze keeping their
//	         state, targets drop staged installs, every node stays on
//	         the old epoch. Triggered by the coordinator when a source
//	         or target ring dies mid-handoff or the deadline passes.
//
// Per-key ordering across the move: ops ordered before the freeze apply
// on the source; the capture equals the state at the freeze position
// (later writes are rejected deterministically); installs and the flip
// are ordered on the target before any post-flip write, because a node
// only submits to the target after locally applying the flip. A key's
// history is therefore a single linear sequence: source ops, then the
// handoff copy, then target ops.
//
// Reads never pause: until a node flips, its source replica serves the
// frozen slice; after, its target replica — which applied the installs
// before the flip — serves it. Keys outside the moving slices are
// routed identically in both epochs and never notice the handoff.

// capturedState is one source shard's moving slice, captured at the
// freeze position: the shard's keyspace image, of which only the keys in
// ranges move. Only held locks migrate; queued waiters were cancelled
// with ErrResharding at the freeze and retry against the target.
type capturedState struct {
	kv     viewImage
	ranges []keyRange
	locks  map[string]*lockState
}

// flipInfo is the payload of an ordered flip, everything a participant
// needs to adopt the new epoch with no prior handoff state.
type flipInfo struct {
	id      uint64
	epoch   uint64
	rings   []int
	targets []int
}

// sourceCapture carries one shard's capture to the coordinator.
type sourceCapture struct {
	shard int
	state capturedState
}

// leadReshard is the coordinator's in-flight handoff state.
type leadReshard struct {
	id       uint64
	epoch    uint64
	captured map[int]bool
	capCh    chan sourceCapture
	done     chan struct{}
}

// installChunk bounds keys per install op so a large slice travels as
// several ordered messages instead of one oversized frame.
const installChunk = 64

// Reshard implements core.Resharder: it migrates the keyspace diff
// between the two routing views and returns once this node (and, through
// their own ordered flips, every node) has published the new epoch.
// On error the handoff has been aborted and the old epoch stands.
func (s *Sharded) Reshard(ctx context.Context, old, new core.RoutingView) error {
	oldIDs, newIDs := ringIDsToInts(old.Rings), ringIDsToInts(new.Rings)
	oldRing := newHashRingFor(oldIDs, defaultReplicas)
	newRing := newHashRingFor(newIDs, defaultReplicas)
	ranges := moved(oldRing, newRing)
	bySource := make(map[int][]keyRange)
	targetSet := make(map[int]bool)
	for _, r := range ranges {
		bySource[r.from] = append(bySource[r.from], r)
		targetSet[r.to] = true
	}
	targets := sortedInts(targetSet)
	if len(targets) == 0 {
		// Nothing moves (degenerate diff). Still flip through one ring of
		// the new view so every node observes an ordered epoch change.
		targets = []int{newIDs[0]}
	}
	sources := make([]int, 0, len(bySource))
	for sid := range bySource {
		sources = append(sources, sid)
	}
	sort.Ints(sources)

	s.reshardMu.Lock()
	s.nextRID++
	rid := uint64(s.id)<<32 | s.nextRID
	lead := &leadReshard{
		id:       rid,
		epoch:    new.Epoch,
		captured: make(map[int]bool, len(sources)),
		capCh:    make(chan sourceCapture, len(sources)+1),
		done:     make(chan struct{}, 1),
	}
	s.lead = lead
	s.reshardMu.Unlock()
	defer func() {
		s.reshardMu.Lock()
		if s.lead == lead {
			s.lead = nil
		}
		s.reshardMu.Unlock()
	}()

	start := time.Now()
	abort := func(cause error) error {
		return s.abortReshard(rid, new.Epoch, sources, targets, cause)
	}

	// Phase 1: freeze every source's moving slices.
	for _, sid := range sources {
		svc := s.Shard(sid)
		if svc == nil {
			return abort(fmt.Errorf("dds: source shard %d is gone", sid))
		}
		rs := bySource[sid]
		if err := svc.doOp(ctx, func(reqID uint64) []byte { return encodeFreeze(rid, new.Epoch, rs, reqID) }); err != nil {
			return abort(fmt.Errorf("dds: freeze shard %d: %w", sid, err))
		}
	}

	// Phase 2: collect the captures taken at each freeze position.
	captured := make(map[int]capturedState, len(sources))
	for len(captured) < len(sources) {
		select {
		case c := <-lead.capCh:
			captured[c.shard] = c.state
		case <-ctx.Done():
			return abort(fmt.Errorf("dds: waiting for captures: %w", ctx.Err()))
		}
	}

	// Phase 3: install the moved state on its new owners, chunked.
	installs := make(map[int]*stagedInstall)
	staged := func(t int) *stagedInstall {
		in := installs[t]
		if in == nil {
			in = &stagedInstall{kv: make(map[string][]byte), locks: make(map[string]*lockState)}
			installs[t] = in
		}
		return in
	}
	keysMoved := 0
	for _, st := range captured {
		for k, v := range st.kv.all() {
			if h := fnv64a(k); rangesContain(st.ranges, h) {
				staged(newRing.owner(h)).kv[k] = v
				keysMoved++
			}
		}
		for name, ls := range st.locks {
			staged(newRing.owner(fnv64a(name))).locks[name] = ls
		}
	}
	for _, t := range targets {
		in := installs[t]
		if in == nil {
			continue
		}
		svc := s.Shard(t)
		if svc == nil {
			return abort(fmt.Errorf("dds: target shard %d is gone", t))
		}
		for _, chunk := range chunkInstall(in, installChunk) {
			chunk := chunk
			err := svc.doOp(ctx, func(reqID uint64) []byte {
				return encodeInstall(rid, new.Epoch, chunk.kv, chunk.locks, reqID)
			})
			if err != nil {
				return abort(fmt.Errorf("dds: install into shard %d: %w", t, err))
			}
		}
	}

	// Keep source handles across the flip: a shrink drops the removed
	// ring from the router's shard map, but its ordered purge must still
	// be sent so its replicas do not look frozen-by-a-dead-coordinator
	// when the ring later retires.
	srcSvcs := make(map[int]*Service, len(sources))
	for _, sid := range sources {
		srcSvcs[sid] = s.Shard(sid)
	}

	// Phase 4: flip every target; the router completes when the last
	// target's flip has applied locally.
	for _, t := range targets {
		svc := s.Shard(t)
		if svc == nil {
			return abort(fmt.Errorf("dds: target shard %d is gone", t))
		}
		err := svc.doOp(ctx, func(reqID uint64) []byte {
			return encodeFlip(rid, new.Epoch, newIDs, targets, reqID)
		})
		if err != nil {
			return abort(fmt.Errorf("dds: flip shard %d: %w", t, err))
		}
	}
	select {
	case <-lead.done:
	case <-ctx.Done():
		return abort(fmt.Errorf("dds: waiting for epoch flip: %w", ctx.Err()))
	}
	if s.reg != nil {
		s.reg.Histogram(stats.HistReshardPause).Observe(time.Since(start))
		s.reg.Counter(stats.MetricReshardKeysMoved).Add(int64(keysMoved))
	}
	// Epilogue: ordered purge of the handed-off slices on each source's
	// own stream. The handoff is committed — a purge that cannot be
	// delivered (for example the removed ring tearing down) only leaves
	// unreachable garbage behind, so errors are not aborts.
	for _, sid := range sources {
		if svc := srcSvcs[sid]; svc != nil {
			pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			_ = svc.doOp(pctx, func(reqID uint64) []byte { return encodePurge(rid, new.Epoch, reqID) })
			cancel()
		}
	}
	return nil
}

// abortReshard multicasts the ordered abort on every involved ring (best
// effort — a dead ring is one reason to be here) and reports the cause.
func (s *Sharded) abortReshard(rid, epoch uint64, sources, targets []int, cause error) error {
	payload := encodeAbortReshard(rid, epoch)
	seen := make(map[int]bool)
	for _, id := range append(append([]int(nil), sources...), targets...) {
		if seen[id] {
			continue
		}
		seen[id] = true
		if svc := s.Shard(id); svc != nil {
			_ = svc.node.Multicast(payload)
		}
	}
	return fmt.Errorf("%w: %v", core.ErrReshardAborted, cause)
}

// wantsCapture reports whether this node is coordinating the handoff and
// still needs captures for it — replicas elsewhere skip building the
// capture entirely. reshardMu is a leaf lock, safe under Service.mu.
func (s *Sharded) wantsCapture(rid uint64) bool {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	return s.lead != nil && s.lead.id == rid
}

// freezeApplied delivers a source shard's capture to the coordinator
// (no-op on every other node).
func (s *Sharded) freezeApplied(shard int, rid uint64, _ core.NodeID, st capturedState) {
	s.reshardMu.Lock()
	lead := s.lead
	want := lead != nil && lead.id == rid && !lead.captured[shard]
	if want {
		lead.captured[shard] = true
	}
	s.reshardMu.Unlock()
	if want {
		lead.capCh <- sourceCapture{shard: shard, state: st}
	}
}

// targetFlipped records one target's ordered flip; once every target of
// the handoff has flipped on this node, the node adopts the new epoch.
func (s *Sharded) targetFlipped(shard int, info flipInfo) {
	s.reshardMu.Lock()
	if s.obsID != info.id {
		s.obsID = info.id
		s.obsFlips = make(map[int]bool)
	}
	s.obsFlips[shard] = true
	complete := true
	for _, t := range info.targets {
		if !s.obsFlips[t] {
			complete = false
			break
		}
	}
	s.reshardMu.Unlock()
	if complete {
		s.completeFlip(info)
	}
}

// completeFlip swaps the router to the new epoch, purges the handed-off
// slices from the source replicas (now unreachable), publishes the view
// to the runtime, and releases a waiting coordinator.
func (s *Sharded) completeFlip(info flipInfo) {
	newRing := newHashRingFor(info.rings, defaultReplicas)
	s.mu.Lock()
	if info.epoch <= s.epoch {
		s.mu.Unlock()
		return // stale replay of an already-adopted flip
	}
	oldShards := s.shards
	next := make(map[int]*Service, len(info.rings))
	for _, id := range info.rings {
		if svc := oldShards[id]; svc != nil {
			next[id] = svc
		}
	}
	s.epoch = info.epoch
	s.ring = newRing
	s.shards = next
	s.mu.Unlock()
	// Finish any source purge whose ordered op arrived before this
	// node's flip (cross-ring skew): the sources are unreachable now.
	for _, svc := range oldShards {
		svc.purgeIfPending(info.id)
	}
	if s.reg != nil {
		s.reg.Counter(stats.MetricReshards).Inc()
	}
	if s.rt != nil {
		rings := make([]core.RingID, 0, len(info.rings))
		for _, id := range info.rings {
			rings = append(rings, core.RingID(id))
		}
		s.rt.PublishRouting(core.RoutingView{Epoch: info.epoch, Rings: rings})
	}
	s.reshardMu.Lock()
	lead := s.lead
	s.reshardMu.Unlock()
	if lead != nil && lead.id == info.id {
		select {
		case lead.done <- struct{}{}:
		default:
		}
	}
}

// reshardAborted is the participant-side abort observation: tell the
// runtime so a blocked AddRing/RemoveRing caller fails fast instead of
// timing out.
func (s *Sharded) reshardAborted(rid, epoch uint64) {
	if s.Epoch() >= epoch {
		return // the handoff committed here; this abort observation is stale
	}
	if s.reg != nil {
		s.reg.Counter(stats.MetricReshardAborts).Inc()
	}
	if s.rt != nil {
		s.rt.FailRouting(epoch, fmt.Errorf("dds: handoff %d aborted", rid))
	}
}

// chunkInstall splits an install into ops of at most n keys (locks ride
// the first chunk; there are few).
func chunkInstall(in *stagedInstall, n int) []*stagedInstall {
	var out []*stagedInstall
	cur := &stagedInstall{kv: make(map[string][]byte), locks: in.locks}
	if cur.locks == nil {
		cur.locks = make(map[string]*lockState)
	}
	for k, v := range in.kv {
		if len(cur.kv) >= n {
			out = append(out, cur)
			cur = &stagedInstall{kv: make(map[string][]byte), locks: make(map[string]*lockState)}
		}
		cur.kv[k] = v
	}
	out = append(out, cur)
	return out
}

func ringIDsToInts(rings []core.RingID) []int {
	out := make([]int, 0, len(rings))
	for _, r := range rings {
		out = append(out, int(r))
	}
	return out
}

func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
