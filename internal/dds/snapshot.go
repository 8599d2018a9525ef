package dds

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/stats"
)

// Cross-shard consistent snapshot.
//
// The same ordered-barrier machinery the resharding handoff uses gives a
// consistent cut across all shards: the coordinator raises a FREEZE
// barrier on every ring (an ordered position per ring past which new map
// writes and transaction prepares are rejected retryably), then CAPTUREs
// each shard at an ordered position where no staged transaction remains,
// and finally RELEASEs the barriers. Because prepares are blocked from
// each ring's freeze position on and every capture waits for the staged
// transactions in front of it to commit or abort, a cross-shard
// transaction is either in every shard's capture or in none — the cut
// cannot split a commit. Plain single-key writes are paused for the whole
// window, so the union of captures is also a causally consistent
// stop-the-world snapshot.
//
// A dead snapshot coordinator cannot wedge the cluster: each ring's
// replicas release the barrier at the coordinator's ordered membership
// removal, the same path that aborts a dead reshard coordinator's
// handoff.

// shardCapture carries one shard's captured keyspace to the coordinator.
type shardCapture struct {
	shard int
	kv    *viewImage
}

// leadSnap is the snapshot coordinator's in-flight state.
type leadSnap struct {
	id    uint64
	capCh chan shardCapture
	seen  map[int]bool
}

// snapCaptureRetry paces capture retries while staged transactions drain.
const snapCaptureRetry = 2 * time.Millisecond

// Snapshot captures a consistent cut of the whole sharded keyspace: every
// key of every shard, as of one barrier window during which cross-shard
// transactions are either fully included or fully excluded. It conflicts
// with an in-flight reshard (either side fails retryably; the shard's
// ordered stream decides who was first) and with a concurrent snapshot.
// The barrier window is bounded by ctx; on error the barrier is released
// best-effort and the keyspace is unchanged.
func (s *Sharded) Snapshot(ctx context.Context) (map[string][]byte, error) {
	s.mu.RLock()
	epoch := s.epoch
	ring := s.ring
	s.mu.RUnlock()
	shards := ring.shardIDs()

	snapID := s.NewTxnID()
	lead := &leadSnap{id: snapID, capCh: make(chan shardCapture, len(shards)), seen: make(map[int]bool)}
	s.reshardMu.Lock()
	if s.snapLead != nil {
		s.reshardMu.Unlock()
		return nil, fmt.Errorf("%w: a snapshot is already in progress on this node", ErrSnapshotting)
	}
	s.snapLead = lead
	s.reshardMu.Unlock()
	defer func() {
		s.reshardMu.Lock()
		if s.snapLead == lead {
			s.snapLead = nil
		}
		s.reshardMu.Unlock()
	}()

	// Release is idempotent on the participant side; run it on every exit
	// path once any barrier may be up. A barrier a release cannot reach
	// (ring torn down) is lifted by this node's eventual ordered removal.
	var frozen []int
	release := func() {
		for _, sid := range frozen {
			svc := s.Shard(sid)
			if svc == nil {
				continue
			}
			rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = svc.doOp(rctx, func(reqID uint64) []byte { return encodeSnapRelease(snapID, reqID) })
			cancel()
		}
	}

	// Phase 1: raise the barrier on every ring, in shard order.
	for _, sid := range shards {
		svc := s.Shard(sid)
		if svc == nil {
			release()
			return nil, fmt.Errorf("dds: snapshot: shard %d is gone", sid)
		}
		if err := svc.doOp(ctx, func(reqID uint64) []byte { return encodeSnapFreeze(snapID, reqID) }); err != nil {
			release()
			return nil, fmt.Errorf("dds: snapshot freeze shard %d: %w", sid, err)
		}
		frozen = append(frozen, sid)
	}

	// Phase 2: capture each shard once its staged transactions drained.
	out := make(map[string][]byte)
	for _, sid := range shards {
		svc := s.Shard(sid)
		if svc == nil {
			release()
			return nil, fmt.Errorf("dds: snapshot: shard %d is gone", sid)
		}
		for {
			err := svc.doOp(ctx, func(reqID uint64) []byte { return encodeSnapCapture(snapID, reqID) })
			if err == nil {
				break
			}
			if errors.Is(err, errSnapBusy) {
				select {
				case <-ctx.Done():
					release()
					return nil, fmt.Errorf("dds: snapshot capture shard %d: %w", sid, ctx.Err())
				case <-time.After(snapCaptureRetry):
				}
				continue
			}
			release()
			return nil, fmt.Errorf("dds: snapshot capture shard %d: %w", sid, err)
		}
		select {
		case c := <-lead.capCh:
			// Keys are filtered by current ownership, like Keys(): a
			// source replica between a past handoff's flip and purge may
			// still hold moved keys it no longer owns.
			for k, v := range c.kv.all() {
				if ring.lookup(k) == c.shard {
					out[k] = append([]byte(nil), v...)
				}
			}
		case <-ctx.Done():
			release()
			return nil, fmt.Errorf("dds: snapshot: waiting for shard %d capture: %w", sid, ctx.Err())
		}
	}

	// Phase 3: lift the barriers.
	release()
	if got := s.Epoch(); got != epoch {
		// Cannot happen while the barrier held (freezes reject reshards),
		// so this only trips if the barrier was lost — treat as a failed
		// snapshot rather than returning a cut of two epochs.
		return nil, fmt.Errorf("%w: routing epoch moved %d -> %d during snapshot", ErrSnapshotting, epoch, got)
	}
	if s.reg != nil {
		s.reg.Counter(stats.MetricSnapshots).Inc()
	}
	return out, nil
}

// wantsSnapCapture reports whether this node coordinates the snapshot and
// still needs the shard's capture; replicas elsewhere skip building it.
func (s *Sharded) wantsSnapCapture(id uint64) bool {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	return s.snapLead != nil && s.snapLead.id == id
}

// snapCaptured delivers one shard's capture to the waiting coordinator.
func (s *Sharded) snapCaptured(shard int, id uint64, kv *viewImage) {
	s.reshardMu.Lock()
	lead := s.snapLead
	want := lead != nil && lead.id == id && !lead.seen[shard]
	if want {
		lead.seen[shard] = true
	}
	s.reshardMu.Unlock()
	if want {
		lead.capCh <- shardCapture{shard: shard, kv: kv}
	}
}
