package dds

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// encodeSet and encodeDel build the single-op Set/Delete frames that
// builds before write batching put on the wire and in their WALs. Set
// and Delete now always ride opBatch frames, but replay and the decoder
// must keep accepting these shapes.
func encodeSet(key string, val []byte, reqID uint64) []byte {
	b := header(opSet)
	b = appendStr(b, key)
	b = appendBytes(b, val)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

func encodeDel(key string, reqID uint64) []byte {
	b := header(opDel)
	b = appendStr(b, key)
	return binary.LittleEndian.AppendUint64(b, reqID)
}

// FuzzOpBatch feeds arbitrary bytes through the op decoder and checks the
// write-batch codec end to end: multi-op opBatch frames must round-trip
// semantically (decode → re-encode → decode yields the same entries), the
// decoder must never panic or balloon memory on corrupt counts, and the
// pre-batching single-op Set/Delete frames — what older builds put on the
// wire — must keep decoding unchanged alongside the new frame kind.
func FuzzOpBatch(f *testing.F) {
	f.Add(encodeBatch(nil))
	f.Add(encodeBatch([]batchEntry{{key: "k", val: []byte("v"), reqID: 7}}))
	f.Add(encodeBatch([]batchEntry{
		{key: "a", val: []byte("1"), reqID: 1},
		{del: true, key: "b", reqID: 2},
		{key: "", val: nil, reqID: 3},
	}))
	// Old single-op wire shapes ride the same decoder.
	f.Add(encodeSet("legacy-key", []byte("legacy-val"), 42))
	f.Add(encodeDel("legacy-key", 43))
	// A frame whose count lies about the payload.
	huge := encodeBatch([]batchEntry{{key: "x", val: []byte("y"), reqID: 9}})
	batchFramePatch(huge, 1<<30)
	f.Add(huge)
	// A frame torn mid-entry.
	torn := encodeBatch([]batchEntry{{key: "kk", val: bytes.Repeat([]byte{0xAB}, 64), reqID: 5}})
	f.Add(torn[:len(torn)-9])
	// Frames whose element counts claim far more than they carry.
	for _, c := range hugeCountFrames() {
		f.Add(c.frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		o, ok := decodeOp(data)
		if !ok {
			return
		}
		switch o.kind {
		case opBatch:
			enc := encodeBatch(o.batch)
			o2, ok2 := decodeOp(enc)
			if !ok2 || o2.kind != opBatch || len(o2.batch) != len(o.batch) {
				t.Fatalf("re-encoded batch did not round-trip: ok=%v entries %d want %d",
					ok2, len(o2.batch), len(o.batch))
			}
			for i := range o.batch {
				a, b := o.batch[i], o2.batch[i]
				if a.del != b.del || a.key != b.key || a.reqID != b.reqID || !bytes.Equal(a.val, b.val) {
					t.Fatalf("entry %d diverged: %+v vs %+v", i, a, b)
				}
			}
		case opSet:
			enc := encodeSet(o.key, o.val, o.reqID)
			o2, ok2 := decodeOp(enc)
			if !ok2 || o2.kind != opSet || o2.key != o.key || !bytes.Equal(o2.val, o.val) || o2.reqID != o.reqID {
				t.Fatalf("single-op set round-trip diverged: %+v vs %+v", o, o2)
			}
		case opDel:
			enc := encodeDel(o.key, o.reqID)
			o2, ok2 := decodeOp(enc)
			if !ok2 || o2.kind != opDel || o2.key != o.key || o2.reqID != o.reqID {
				t.Fatalf("single-op del round-trip diverged: %+v vs %+v", o, o2)
			}
		case opSnapshot:
			// The carried state must decode or fail, never panic.
			_, _ = decodeSnapshotState(o.val)
		}
	})
}

// hugeCount is the element count every hugeCountFrames frame claims.
const hugeCount = 1 << 20

type hugeCountFrame struct {
	name  string
	frame []byte
}

// hugeCountFrames builds, for each counted run the op decoder reads, a
// frame whose count claims hugeCount elements but carries none of them.
func hugeCountFrames() []hugeCountFrame {
	u32 := binary.LittleEndian.AppendUint32
	u64 := binary.LittleEndian.AppendUint64
	ids := func(kind opKind) []byte { return u64(u64(header(kind), 1), 2) } // rid, epoch
	// A snapshot whose state has empty maps, no staged install, and a
	// staged-transaction count that lies.
	state := u32(u32(u32(nil, 0), 0), 0)     // kv, locks, applied
	state = u64(u32(u64(state, 0), 0), 0)    // frozenID, frozenBy, frozenEpoch
	state = append(u32(u32(state, 0), 0), 0) // frozen, retired, no staged
	snapTxns := appendBytes(u32(header(opSnapshot), 0), u32(state, hugeCount))
	return []hugeCountFrame{
		{"freeze ranges", u32(ids(opFreeze), hugeCount)},
		{"install kv", u32(ids(opInstall), hugeCount)},
		{"install locks", u32(u32(ids(opInstall), 0), hugeCount)},
		{"prepare dels", u32(u32(u32(ids(opTxnPrepare), 0), 0), hugeCount)},
		{"flip rings", u32(ids(opFlip), hugeCount)},
		{"snap-req-from applied", u32(append(u64(u64(header(opSnapReqFrom), 1), 0), 0), hugeCount)},
		{"snap delta", u32(u32(header(opSnapDelta), 7), hugeCount)},
		{"batch", u32(header(opBatch), hugeCount)},
		{"snapshot kv", appendBytes(u32(header(opSnapshot), 0), u32(nil, hugeCount))},
		{"snapshot txns", snapTxns},
	}
}

// TestDecodeBoundsHugeCounts feeds every counted run a frame whose count
// claims 1<<20 elements: decoding must fail, and must not preallocate for
// the claimed count — the frame itself bounds what a decoder may reserve.
func TestDecodeBoundsHugeCounts(t *testing.T) {
	for _, c := range hugeCountFrames() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o, ok := decodeOp(c.frame)
		if ok && o.kind == opSnapshot {
			_, err := decodeSnapshotState(o.val)
			ok = err == nil
		}
		runtime.ReadMemStats(&after)
		if ok {
			t.Errorf("%s: a %d-byte frame claiming %d elements decoded", c.name, len(c.frame), hugeCount)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes", c.name, len(c.frame), grew)
		}
	}
}

// TestBatchEncodeZeroAlloc pins the coalescer's amortized encode cost:
// building a full frame in a warm (capacity-recycled) buffer — exactly
// what flushFrame's spare-buffer recycling gives the steady state — must
// stay at or under 1 alloc per op, and in practice at zero.
func TestBatchEncodeZeroAlloc(t *testing.T) {
	key := "alloc-key-0123456789"
	val := bytes.Repeat([]byte{0x5A}, 64)
	buf := make([]byte, 0, 64<<10)
	const ops = 128
	allocs := testing.AllocsPerRun(200, func() {
		b := batchFrameStart(buf)
		for i := 0; i < ops; i++ {
			if i%8 == 7 {
				b = appendBatchDel(b, key, uint64(i))
			} else {
				b = appendBatchSet(b, key, val, uint64(i))
			}
		}
		batchFramePatch(b, ops)
		buf = b[:0] // recycle, as flushFrame does
	})
	if perOp := allocs / float64(ops); perOp > 1 {
		t.Fatalf("batched encode = %.3f allocs/op (%.1f per %d-op frame), budget is <= 1 amortized",
			perOp, allocs, ops)
	}
}
