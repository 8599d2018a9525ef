package dds

import (
	"encoding/binary"
	"errors"
	"iter"
	"maps"
	"sort"

	"repro/internal/core"
	"repro/internal/wire"
)

// Data-service operations ride inside ordinary Raincore multicasts. The
// first two bytes distinguish them from application payloads.

const (
	ddsMagic   = 0xD5
	ddsVersion = 1
)

type opKind byte

const (
	opAcquire opKind = iota + 1
	opRelease
	opCancel
	opSet
	opDel
	opSnapshot
	opSnapReq
	// Elastic-resharding control ops. They ride the affected rings'
	// ordered streams so every replica observes the handoff state machine
	// at the same position relative to the data ops it affects:
	// opFreeze on each source ring (stop writes to the moving slice),
	// opInstall then opFlip on each target ring (stage the snapshot,
	// then atomically adopt it and the new routing epoch), opAbortReshard
	// anywhere to roll back to the old epoch.
	opFreeze
	opInstall
	opFlip
	opAbortReshard
	// opPurge garbage-collects a handed-off slice from the source shard
	// after the flip committed, at an ordered position of the source's
	// own stream (so every replica purges the same state).
	opPurge
	// Cross-shard transaction ops (2PC over the per-ring ordered
	// streams). opTxnPrepare stages a transaction's writes for this
	// shard on every replica at one ordered position; opTxnCommit makes
	// the staged writes live (atomically, at its own ordered position);
	// opTxnAbort drops them. The ordered removal of a dead coordinator
	// aborts its staged transactions deterministically, mirroring the
	// resharding abort path.
	opTxnPrepare
	opTxnCommit
	opTxnAbort
	// Cross-shard snapshot barrier ops. opSnapFreeze starts the barrier
	// on a ring: from its ordered position new writes and prepares are
	// rejected (retryably) while staged transactions drain. opSnapCapture
	// captures the shard's map at its ordered position once no staged
	// transactions remain. opSnapRelease lifts the barrier.
	opSnapFreeze
	opSnapCapture
	opSnapRelease
	// opFence is the read-path fence: a no-op that merely occupies an
	// ordered position. A linearizable (or staleness-fenced) read submits
	// one and waits for its local apply — every write ordered before the
	// read's invocation is then applied on this replica, so the local
	// lookup that follows is as fresh as a token-carried read would be.
	// Fences apply unconditionally: freezes, snapshot barriers and
	// retired ranges never reject them, so reads stay available through
	// handoffs.
	opFence
	// opTxnDecide is the replicated commit record: the coordinator orders
	// it on the designated decide ring after every prepare acknowledged
	// and before any phase-2 commit fan-out. Its presence on the decide
	// ring means the transaction is committed; its absence at the ordered
	// position of the coordinator's removal means no participant can have
	// committed, so survivors abort. Either way in-doubt stages terminate
	// deterministically.
	opTxnDecide
	// opSnapReqFrom is a rejoining node's state-transfer request carrying
	// its recovered applied-sequence vector (and removal count). The
	// deterministic responder answers with either an opSnapDelta holding
	// just the ops the joiner missed, or a full targeted opSnapshot when
	// the gap is not coverable from its recent-op log.
	opSnapReqFrom
	// opSnapDelta fast-forwards a WAL-recovered joiner: the ops (and
	// membership removals) it missed, in ring order, instead of the full
	// keyspace.
	opSnapDelta
	// opBatch is the write coalescer's multi-op frame: K Set/Delete
	// entries from one origin riding a single ordered position, applied
	// atomically (all entries published before any waiter wakes) and
	// logged as one WAL record — the group-commit unit. Builds predating
	// the kind treat the frame as an application payload, so the
	// coalescer must only be enabled once the whole group speaks it;
	// single-op frames from older builds decode unchanged either way.
	opBatch
)

type op struct {
	kind   opKind
	key    string
	val    []byte
	reqID  uint64
	target core.NodeID

	// Resharding fields (opFreeze/opInstall/opFlip/opAbortReshard).
	rid     uint64 // reshard attempt / transaction / snapshot identifier
	epoch   uint64 // new routing epoch (flip/abort) or pinned epoch (prepare)
	ranges  []keyRange
	rings   []int // flip: the new table's ring ids
	targets []int // flip: the handoff's target ring ids
	kv      map[string][]byte
	locks   map[string]*lockState
	dels    []string // txn prepare: keys the transaction deletes

	// Durability / recovery fields.
	decideRing int                    // txn prepare: decide ring id, -1 = presumed-abort (legacy)
	applied    map[core.NodeID]uint64 // snap-req-from: the joiner's recovered vector
	removals   uint64                 // snap-req-from: removals the joiner has applied
	wantFull   bool                   // snap-req-from: joiner needs a full snapshot
	delta      []deltaEntry           // snap-delta: the ops the joiner missed, in order

	// Write-batching field (opBatch): the coalesced entries, in the
	// order the callers enqueued them (applied in that order).
	batch []batchEntry
}

// batchEntry is one caller's write inside an opBatch frame.
type batchEntry struct {
	del   bool
	key   string
	val   []byte // nil for deletes
	reqID uint64
}

// deltaEntry is one element of a fast-forward delta: either a missed op
// (raw payload, replayed through the filtered-apply path) or a missed
// membership removal (replayed through the dead-node cleanup path).
type deltaEntry struct {
	origin  core.NodeID // op entry: originating node
	seq     uint64      // op entry: per-origin sequence
	raw     []byte      // op entry: encoded op as delivered
	removal core.NodeID // removal entry: the removed node (wire.NoNode for op entries)
	remIdx  uint64      // removal entry: position in the removal sequence
}

func header(kind opKind) []byte { return []byte{ddsMagic, ddsVersion, byte(kind)} }

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func encodeAcquire(name string, reqID uint64) []byte {
	b := header(opAcquire)
	b = appendStr(b, name)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

func encodeRelease(name string, reqID uint64) []byte {
	b := header(opRelease)
	b = appendStr(b, name)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

func encodeCancel(name string, reqID uint64) []byte {
	b := header(opCancel)
	b = appendStr(b, name)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

func encodeSnapReq() []byte { return header(opSnapReq) }

// --- write-batch frame codec ---
//
// Layout: header(opBatch) | u32 count | count × entry, where an entry is
// u8 del | str key | bytes val (sets only) | u64 reqID. The coalescer
// builds the frame incrementally in a reused buffer — batchFrameStart
// writes the header with a zero count, appendBatchSet/appendBatchDel add
// entries as callers arrive, and batchFramePatch fixes the count at
// flush — so the amortized encode cost stays at the entry append itself.

// batchFrameOverhead is the fixed frame cost: 3-byte header + u32 count.
const batchFrameOverhead = 7

// batchFrameStart begins an opBatch frame in buf (reusing its capacity).
func batchFrameStart(buf []byte) []byte {
	b := append(buf[:0], ddsMagic, ddsVersion, byte(opBatch))
	return append(b, 0, 0, 0, 0) // count, patched at flush
}

func appendBatchSet(b []byte, key string, val []byte, reqID uint64) []byte {
	b = append(b, 0)
	b = appendStr(b, key)
	b = appendBytes(b, val)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

func appendBatchDel(b []byte, key string, reqID uint64) []byte {
	b = append(b, 1)
	b = appendStr(b, key)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// batchFramePatch writes the final entry count into a started frame.
func batchFramePatch(b []byte, count int) {
	binary.LittleEndian.PutUint32(b[3:7], uint32(count))
}

// encodeBatch builds a complete opBatch frame in one call (tests and
// single-shot paths; the coalescer uses the incremental form above).
func encodeBatch(entries []batchEntry) []byte {
	b := batchFrameStart(nil)
	for _, e := range entries {
		if e.del {
			b = appendBatchDel(b, e.key, e.reqID)
		} else {
			b = appendBatchSet(b, e.key, e.val, e.reqID)
		}
	}
	batchFramePatch(b, len(entries))
	return b
}

// --- resharding control op codecs ---

func appendRanges(b []byte, rs []keyRange) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rs)))
	for _, r := range rs {
		b = binary.LittleEndian.AppendUint64(b, r.lo)
		b = binary.LittleEndian.AppendUint64(b, r.hi)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.from))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.to))
	}
	return b
}

func (r *opReader) readRanges() ([]keyRange, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := make([]keyRange, 0, r.capCount(n, 24)) // lo, hi, from, to
	for i := uint32(0); i < n; i++ {
		var kr keyRange
		if kr.lo, err = r.u64(); err != nil {
			return nil, err
		}
		if kr.hi, err = r.u64(); err != nil {
			return nil, err
		}
		from, err := r.u32()
		if err != nil {
			return nil, err
		}
		to, err := r.u32()
		if err != nil {
			return nil, err
		}
		kr.from, kr.to = int(int32(from)), int(int32(to))
		out = append(out, kr)
	}
	return out, nil
}

// appendKV encodes n key/value pairs: the count, then each pair.
func appendKV(b []byte, n int, pairs iter.Seq2[string, []byte]) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for k, v := range pairs {
		b = appendStr(b, k)
		b = appendBytes(b, v)
	}
	return b
}

// readKV reads an appendKV run, handing each pair to put.
func (r *opReader) readKV(put func(string, []byte)) error {
	n, err := r.u32()
	for i := uint32(0); i < n && err == nil; i++ {
		var k string
		var v []byte
		if k, err = r.str(); err == nil {
			if v, err = r.bytes(); err == nil {
				put(k, v)
			}
		}
	}
	return err
}

// readMap reads an appendKV run into a map.
func (r *opReader) readMap() (map[string][]byte, error) {
	kv := make(map[string][]byte)
	return kv, r.readKV(func(k string, v []byte) { kv[k] = v })
}

func appendLocks(b []byte, locks map[string]*lockState) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(locks)))
	for name, ls := range locks {
		b = appendStr(b, name)
		b = binary.LittleEndian.AppendUint32(b, uint32(ls.owner))
		b = binary.LittleEndian.AppendUint64(b, ls.ownerReq)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ls.queue)))
		for _, q := range ls.queue {
			b = binary.LittleEndian.AppendUint32(b, uint32(q.node))
			b = binary.LittleEndian.AppendUint64(b, q.reqID)
		}
	}
	return b
}

func (r *opReader) readLocks() (map[string]*lockState, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	locks := make(map[string]*lockState, r.capCount(n, 20)) // name, owner, req, queue len
	for i := uint32(0); i < n; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		owner, err := r.u32()
		if err != nil {
			return nil, err
		}
		ownerReq, err := r.u64()
		if err != nil {
			return nil, err
		}
		qlen, err := r.u32()
		if err != nil {
			return nil, err
		}
		ls := &lockState{owner: wire.NodeID(owner), ownerReq: ownerReq}
		for j := uint32(0); j < qlen; j++ {
			node, err := r.u32()
			if err != nil {
				return nil, err
			}
			reqID, err := r.u64()
			if err != nil {
				return nil, err
			}
			ls.queue = append(ls.queue, lockReq{node: wire.NodeID(node), reqID: reqID})
		}
		locks[name] = ls
	}
	return locks, nil
}

// encodeFreeze freezes the given hash ranges of the carrying ring's
// shard; epoch is the routing epoch the handoff targets.
func encodeFreeze(rid, epoch uint64, ranges []keyRange, reqID uint64) []byte {
	b := header(opFreeze)
	b = binary.LittleEndian.AppendUint64(b, rid)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = appendRanges(b, ranges)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeInstall stages moved keys and locks on the carrying ring's shard.
func encodeInstall(rid, epoch uint64, kv map[string][]byte, locks map[string]*lockState, reqID uint64) []byte {
	b := header(opInstall)
	b = binary.LittleEndian.AppendUint64(b, rid)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = appendKV(b, len(kv), maps.All(kv))
	b = appendLocks(b, locks)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeFlip commits the handoff on the carrying (target) ring: adopt the
// staged state and, once every target flipped, the new routing epoch.
func encodeFlip(rid, epoch uint64, rings, targets []int, reqID uint64) []byte {
	b := header(opFlip)
	b = binary.LittleEndian.AppendUint64(b, rid)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rings)))
	for _, id := range rings {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(targets)))
	for _, id := range targets {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeAbortReshard rolls the handoff back on the carrying ring.
func encodeAbortReshard(rid, epoch uint64) []byte {
	b := header(opAbortReshard)
	b = binary.LittleEndian.AppendUint64(b, rid)
	return binary.LittleEndian.AppendUint64(b, epoch)
}

// encodePurge garbage-collects the flipped handoff's slice on the source.
func encodePurge(rid, epoch uint64, reqID uint64) []byte {
	b := header(opPurge)
	b = binary.LittleEndian.AppendUint64(b, rid)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// --- transaction and snapshot op codecs ---

func appendStrList(b []byte, ss []string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func (r *opReader) readStrList() ([]string, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, r.capCount(n, 4)) // empty strings
	for i := uint32(0); i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// encodeTxnPrepare stages a transaction's writes on the carrying ring's
// shard; epoch is the routing epoch the coordinator pinned for the
// transaction's lifetime. decideRing is the ring carrying the replicated
// commit record (-1: legacy presumed-abort, the stage dies with its
// coordinator).
func encodeTxnPrepare(id, epoch uint64, decideRing int, kv map[string][]byte, dels []string, reqID uint64) []byte {
	b := header(opTxnPrepare)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(decideRing)))
	b = appendKV(b, len(kv), maps.All(kv))
	b = appendStrList(b, dels)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeTxnDecide orders the replicated commit record for transaction id
// (coordinated by coord) on the carrying decide ring.
func encodeTxnDecide(id uint64, coord core.NodeID, reqID uint64) []byte {
	b := header(opTxnDecide)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = binary.LittleEndian.AppendUint32(b, uint32(coord))
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeSnapReqFrom is a recovered joiner's targeted state request: its
// applied vector and removal count let the responder compute a delta.
func encodeSnapReqFrom(applied map[core.NodeID]uint64, removals, epoch uint64, wantFull bool) []byte {
	b := header(opSnapReqFrom)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, removals)
	if wantFull {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(applied)))
	for _, node := range sortedNodeIDs(applied) {
		b = binary.LittleEndian.AppendUint32(b, uint32(node))
		b = binary.LittleEndian.AppendUint64(b, applied[node])
	}
	return b
}

func sortedNodeIDs(m map[core.NodeID]uint64) []core.NodeID {
	out := make([]core.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// encodeSnapDelta carries the ops and removals the joiner missed.
func encodeSnapDelta(target core.NodeID, entries []deltaEntry) []byte {
	b := header(opSnapDelta)
	b = binary.LittleEndian.AppendUint32(b, uint32(target))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		if e.removal != wire.NoNode {
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint32(b, uint32(e.removal))
			b = binary.LittleEndian.AppendUint64(b, e.remIdx)
			continue
		}
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint32(b, uint32(e.origin))
		b = binary.LittleEndian.AppendUint64(b, e.seq)
		b = appendBytes(b, e.raw)
	}
	return b
}

// encodeTxnCommit applies the staged transaction on the carrying ring.
func encodeTxnCommit(id uint64, reqID uint64) []byte {
	b := header(opTxnCommit)
	b = binary.LittleEndian.AppendUint64(b, id)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeTxnAbort drops the staged transaction on the carrying ring.
func encodeTxnAbort(id uint64, reqID uint64) []byte {
	b := header(opTxnAbort)
	b = binary.LittleEndian.AppendUint64(b, id)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeSnapFreeze starts the snapshot barrier on the carrying ring.
func encodeSnapFreeze(id uint64, reqID uint64) []byte {
	b := header(opSnapFreeze)
	b = binary.LittleEndian.AppendUint64(b, id)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeSnapCapture captures the shard's map at its ordered position.
func encodeSnapCapture(id uint64, reqID uint64) []byte {
	b := header(opSnapCapture)
	b = binary.LittleEndian.AppendUint64(b, id)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeSnapRelease lifts the snapshot barrier on the carrying ring.
func encodeSnapRelease(id uint64, reqID uint64) []byte {
	b := header(opSnapRelease)
	b = binary.LittleEndian.AppendUint64(b, id)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// encodeFence orders a read fence on the carrying ring.
func encodeFence(reqID uint64) []byte {
	return binary.LittleEndian.AppendUint64(header(opFence), reqID)
}

// decodeOp parses a data-service op; ok=false means the payload belongs to
// the application.
func decodeOp(p []byte) (op, bool) {
	if len(p) < 3 || p[0] != ddsMagic || p[1] != ddsVersion {
		return op{}, false
	}
	r := opReader{buf: p[3:]}
	o := op{kind: opKind(p[2])}
	var err error
	switch o.kind {
	case opAcquire, opRelease, opCancel, opDel:
		if o.key, err = r.str(); err == nil {
			o.reqID, err = r.u64()
		}
	case opSet:
		if o.key, err = r.str(); err == nil {
			if o.val, err = r.bytes(); err == nil {
				o.reqID, err = r.u64()
			}
		}
	case opSnapshot:
		var t uint32
		if t, err = r.u32(); err == nil {
			o.target = core.NodeID(t)
			o.val, err = r.bytes()
		}
	case opSnapReq:
	case opFreeze:
		if o.rid, err = r.u64(); err == nil {
			if o.epoch, err = r.u64(); err == nil {
				if o.ranges, err = r.readRanges(); err == nil {
					o.reqID, err = r.u64()
				}
			}
		}
	case opInstall:
		if o.rid, err = r.u64(); err == nil {
			if o.epoch, err = r.u64(); err == nil {
				if o.kv, err = r.readMap(); err == nil {
					if o.locks, err = r.readLocks(); err == nil {
						o.reqID, err = r.u64()
					}
				}
			}
		}
	case opFlip:
		if o.rid, err = r.u64(); err == nil {
			if o.epoch, err = r.u64(); err == nil {
				if o.rings, err = r.readIntList(); err == nil {
					if o.targets, err = r.readIntList(); err == nil {
						o.reqID, err = r.u64()
					}
				}
			}
		}
	case opAbortReshard:
		if o.rid, err = r.u64(); err == nil {
			o.epoch, err = r.u64()
		}
	case opPurge:
		if o.rid, err = r.u64(); err == nil {
			if o.epoch, err = r.u64(); err == nil {
				o.reqID, err = r.u64()
			}
		}
	case opTxnPrepare:
		if o.rid, err = r.u64(); err == nil {
			if o.epoch, err = r.u64(); err == nil {
				var dr uint32
				if dr, err = r.u32(); err == nil {
					o.decideRing = int(int32(dr))
					if o.kv, err = r.readMap(); err == nil {
						if o.dels, err = r.readStrList(); err == nil {
							o.reqID, err = r.u64()
						}
					}
				}
			}
		}
	case opTxnDecide:
		if o.rid, err = r.u64(); err == nil {
			var coord uint32
			if coord, err = r.u32(); err == nil {
				o.target = core.NodeID(coord)
				o.reqID, err = r.u64()
			}
		}
	case opSnapReqFrom:
		if o.epoch, err = r.u64(); err == nil {
			if o.removals, err = r.u64(); err == nil {
				var wf byte
				if wf, err = r.u8(); err == nil {
					o.wantFull = wf == 1
					var n uint32
					if n, err = r.u32(); err == nil {
						o.applied = make(map[core.NodeID]uint64, r.capCount(n, 12)) // node, seq
						for i := uint32(0); i < n && err == nil; i++ {
							var node uint32
							var seq uint64
							if node, err = r.u32(); err == nil {
								if seq, err = r.u64(); err == nil {
									o.applied[core.NodeID(node)] = seq
								}
							}
						}
					}
				}
			}
		}
	case opSnapDelta:
		var t, n uint32
		if t, err = r.u32(); err == nil {
			o.target = core.NodeID(t)
			if n, err = r.u32(); err == nil {
				o.delta = make([]deltaEntry, 0, r.capCount(n, 13)) // a removal entry
				for i := uint32(0); i < n && err == nil; i++ {
					var typ byte
					if typ, err = r.u8(); err != nil {
						break
					}
					var e deltaEntry
					if typ == 1 {
						var node uint32
						if node, err = r.u32(); err == nil {
							e.removal = core.NodeID(node)
							e.remIdx, err = r.u64()
						}
					} else {
						var node uint32
						if node, err = r.u32(); err == nil {
							e.origin = core.NodeID(node)
							if e.seq, err = r.u64(); err == nil {
								e.raw, err = r.bytes()
							}
						}
					}
					if err == nil {
						o.delta = append(o.delta, e)
					}
				}
			}
		}
	case opTxnCommit, opTxnAbort, opSnapFreeze, opSnapCapture, opSnapRelease:
		if o.rid, err = r.u64(); err == nil {
			o.reqID, err = r.u64()
		}
	case opFence:
		o.reqID, err = r.u64()
	case opBatch:
		var n uint32
		if n, err = r.u32(); err == nil {
			// Each entry costs at least 13 bytes (del + empty key + reqID);
			// cap the prealloc so a corrupt count cannot balloon memory.
			cap32 := n
			if max := uint32(len(r.buf) / 13); cap32 > max {
				cap32 = max
			}
			o.batch = make([]batchEntry, 0, cap32)
			for i := uint32(0); i < n && err == nil; i++ {
				var del byte
				if del, err = r.u8(); err != nil {
					break
				}
				var e batchEntry
				e.del = del == 1
				if e.key, err = r.str(); err == nil {
					if !e.del {
						e.val, err = r.bytes()
					}
					if err == nil {
						e.reqID, err = r.u64()
					}
				}
				if err == nil {
					o.batch = append(o.batch, e)
				}
			}
		}
	default:
		return op{}, false
	}
	if err != nil {
		return op{}, false
	}
	return o, true
}

// --- snapshot state codec ---

type snapshotState struct {
	kv      viewImage
	locks   map[string]*lockState
	applied map[core.NodeID]uint64
	// Resharding state rides in snapshots so a replica syncing mid-handoff
	// makes the same frozen-write decisions as everyone else. The fields
	// are appended to the encoding; snapshots from builds predating them
	// decode with the zero values.
	frozenID    uint64
	frozenBy    core.NodeID
	frozenEpoch uint64
	frozen      []keyRange
	retired     []keyRange
	staged      *stagedInstall
	// Cross-shard transaction state (second trailer): staged prepares and
	// the snapshot barrier, so a replica syncing mid-transaction resolves
	// the same commits/aborts as everyone else.
	txns   map[uint64]*txnStage
	snapID uint64
	snapBy core.NodeID
	// Durability extension (third trailer): the count of membership
	// removals this replica has applied, the replicated commit records
	// held by a decide-ring replica (in arrival order), and the nodes
	// whose ordered removal this decide-ring replica has witnessed. They
	// ride snapshots and the WAL so a recovered or freshly synced replica
	// reaches the same in-doubt transaction verdicts as everyone else.
	removals  uint64
	decisions []uint64
	removed   []core.NodeID
}

// txnStage is one staged (prepared but unresolved) cross-shard
// transaction on a shard replica: the writes it will apply at commit.
// by/epoch identify the coordinating node and the routing epoch it
// pinned, so the ordered removal of a dead coordinator aborts the stage.
type txnStage struct {
	id    uint64
	by    core.NodeID
	epoch uint64
	kv    map[string][]byte
	dels  []string
	// decideRing is the ring carrying this transaction's replicated
	// commit record; -1 means the prepare predates commit records (or
	// they are disabled) and the stage dies with its coordinator.
	decideRing int
}

// stagedInstall is a target replica's handoff state: installs are staged
// aside and only merged into the live map when the ordered flip applies,
// so an aborted handoff leaves the replica untouched. by/epoch identify
// the coordinating node and the target routing epoch, so the ordered
// removal of a dead coordinator can roll the stage back.
type stagedInstall struct {
	id    uint64
	by    core.NodeID
	epoch uint64
	kv    map[string][]byte
	locks map[string]*lockState
}

func encodeSnapshot(target core.NodeID, st snapshotState) []byte {
	b := header(opSnapshot)
	b = binary.LittleEndian.AppendUint32(b, uint32(target))
	body := encodeSnapshotState(st)
	return appendBytes(b, body)
}

func encodeSnapshotState(st snapshotState) []byte {
	var b []byte
	b = appendKV(b, st.kv.len(), st.kv.all())
	b = appendLocks(b, st.locks)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.applied)))
	for node, seq := range st.applied {
		b = binary.LittleEndian.AppendUint32(b, uint32(node))
		b = binary.LittleEndian.AppendUint64(b, seq)
	}
	// Resharding extension (optional trailer).
	b = binary.LittleEndian.AppendUint64(b, st.frozenID)
	b = binary.LittleEndian.AppendUint32(b, uint32(st.frozenBy))
	b = binary.LittleEndian.AppendUint64(b, st.frozenEpoch)
	b = appendRanges(b, st.frozen)
	b = appendRanges(b, st.retired)
	if st.staged == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, st.staged.id)
		b = binary.LittleEndian.AppendUint32(b, uint32(st.staged.by))
		b = binary.LittleEndian.AppendUint64(b, st.staged.epoch)
		b = appendKV(b, len(st.staged.kv), maps.All(st.staged.kv))
		b = appendLocks(b, st.staged.locks)
	}
	// Transaction extension (second optional trailer).
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.txns)))
	for _, tx := range sortedTxnStages(st.txns) {
		b = binary.LittleEndian.AppendUint64(b, tx.id)
		b = binary.LittleEndian.AppendUint32(b, uint32(tx.by))
		b = binary.LittleEndian.AppendUint64(b, tx.epoch)
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(tx.decideRing)))
		b = appendKV(b, len(tx.kv), maps.All(tx.kv))
		b = appendStrList(b, tx.dels)
	}
	b = binary.LittleEndian.AppendUint64(b, st.snapID)
	b = binary.LittleEndian.AppendUint32(b, uint32(st.snapBy))
	// Durability extension (third optional trailer).
	b = binary.LittleEndian.AppendUint64(b, st.removals)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.decisions)))
	for _, id := range st.decisions {
		b = binary.LittleEndian.AppendUint64(b, id)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.removed)))
	for _, n := range st.removed {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	return b
}

// sortedTxnStages orders staged transactions by id for a deterministic
// snapshot encoding.
func sortedTxnStages(txns map[uint64]*txnStage) []*txnStage {
	out := make([]*txnStage, 0, len(txns))
	for _, tx := range txns {
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func decodeSnapshotState(p []byte) (snapshotState, error) {
	r := opReader{buf: p}
	st := snapshotState{}
	var err error
	if err = r.readKV(st.kv.put); err != nil {
		return st, err
	}
	if st.locks, err = r.readLocks(); err != nil {
		return st, err
	}
	st.applied = make(map[core.NodeID]uint64)
	napp, err := r.u32()
	if err != nil {
		return st, err
	}
	for i := uint32(0); i < napp; i++ {
		node, err := r.u32()
		if err != nil {
			return st, err
		}
		seq, err := r.u64()
		if err != nil {
			return st, err
		}
		st.applied[wire.NodeID(node)] = seq
	}
	// Resharding extension: absent in snapshots from older builds.
	if len(r.buf) == 0 {
		return st, nil
	}
	if st.frozenID, err = r.u64(); err != nil {
		return st, err
	}
	frozenBy, err := r.u32()
	if err != nil {
		return st, err
	}
	st.frozenBy = core.NodeID(frozenBy)
	if st.frozenEpoch, err = r.u64(); err != nil {
		return st, err
	}
	if st.frozen, err = r.readRanges(); err != nil {
		return st, err
	}
	if st.retired, err = r.readRanges(); err != nil {
		return st, err
	}
	hasStaged, err := r.u8()
	if err != nil {
		return st, err
	}
	if hasStaged == 1 {
		sg := &stagedInstall{}
		if sg.id, err = r.u64(); err != nil {
			return st, err
		}
		by, err := r.u32()
		if err != nil {
			return st, err
		}
		sg.by = core.NodeID(by)
		if sg.epoch, err = r.u64(); err != nil {
			return st, err
		}
		if sg.kv, err = r.readMap(); err != nil {
			return st, err
		}
		if sg.locks, err = r.readLocks(); err != nil {
			return st, err
		}
		st.staged = sg
	}
	// Transaction extension: absent in snapshots from older builds.
	if len(r.buf) == 0 {
		return st, nil
	}
	ntx, err := r.u32()
	if err != nil {
		return st, err
	}
	st.txns = make(map[uint64]*txnStage, r.capCount(ntx, 32)) // fixed fields, empty kv and dels
	for i := uint32(0); i < ntx; i++ {
		tx := &txnStage{}
		if tx.id, err = r.u64(); err != nil {
			return st, err
		}
		by, err := r.u32()
		if err != nil {
			return st, err
		}
		tx.by = core.NodeID(by)
		if tx.epoch, err = r.u64(); err != nil {
			return st, err
		}
		dr, err := r.u32()
		if err != nil {
			return st, err
		}
		tx.decideRing = int(int32(dr))
		if tx.kv, err = r.readMap(); err != nil {
			return st, err
		}
		if tx.dels, err = r.readStrList(); err != nil {
			return st, err
		}
		st.txns[tx.id] = tx
	}
	if st.snapID, err = r.u64(); err != nil {
		return st, err
	}
	snapBy, err := r.u32()
	if err != nil {
		return st, err
	}
	st.snapBy = core.NodeID(snapBy)
	// Durability extension: absent in snapshots from older builds.
	if len(r.buf) == 0 {
		return st, nil
	}
	if st.removals, err = r.u64(); err != nil {
		return st, err
	}
	ndec, err := r.u32()
	if err != nil {
		return st, err
	}
	for i := uint32(0); i < ndec; i++ {
		id, err := r.u64()
		if err != nil {
			return st, err
		}
		st.decisions = append(st.decisions, id)
	}
	nrem, err := r.u32()
	if err != nil {
		return st, err
	}
	for i := uint32(0); i < nrem; i++ {
		n, err := r.u32()
		if err != nil {
			return st, err
		}
		st.removed = append(st.removed, core.NodeID(n))
	}
	return st, nil
}

type opReader struct{ buf []byte }

// capCount bounds a preallocation for n decoded elements of at least
// minSize encoded bytes each by what the rest of the frame can hold, so a
// corrupt count cannot balloon memory before the short read fails.
func (r *opReader) capCount(n uint32, minSize int) int {
	if max := len(r.buf) / minSize; uint64(n) > uint64(max) {
		return max
	}
	return int(n)
}

var errShort = errors.New("dds: truncated op")

func (r *opReader) u8() (byte, error) {
	if len(r.buf) < 1 {
		return 0, errShort
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v, nil
}

func (r *opReader) readIntList() ([]int, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, r.capCount(n, 4)) // one u32 each
	for i := uint32(0); i < n; i++ {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		out = append(out, int(v))
	}
	return out, nil
}

func (r *opReader) u32() (uint32, error) {
	if len(r.buf) < 4 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v, nil
}

func (r *opReader) u64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

func (r *opReader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint32(len(r.buf)) < n {
		return nil, errShort
	}
	v := append([]byte(nil), r.buf[:n]...)
	r.buf = r.buf[n:]
	return v, nil
}

func (r *opReader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}
