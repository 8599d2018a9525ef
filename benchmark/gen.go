package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Everything the system under test sees is generated here from the
// workload seed: key choice, op mix, value sizes, victim order. The
// generators are pure functions of (seed, stream index), so the same seed
// replays a byte-identical op stream (TestOpStreamDeterministic hashes it).

type opKind uint8

const (
	opSet opKind = iota
	opDelete
	opGetLin
	opGetEv
	opTxn
)

func (k opKind) String() string {
	return [...]string{"set", "delete", "get_lin", "get_ev", "txn"}[k]
}

// op is one generated operation. Key indexes the workload's key table
// (for opTxn: its pair table); Size is the value length of an opSet.
type op struct {
	Kind opKind
	Key  int32
	Size int32
}

// streamSeed derives an independent generator seed per stream, so adding
// a caller never shifts the ops of the others.
func streamSeed(seed int64, stream int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(stream))
	h.Write(b[:])
	return int64(h.Sum64() >> 1)
}

// ownedKey maps a drawn index onto the nearest index owned by `stream` out
// of `streams` (key i belongs to stream i % streams). Every key has one
// writer, so per-key versions are issued and acked in one order — the
// property the linearizable and convergence checks rest on.
func ownedKey(drawn, stream, streams, keys int) int32 {
	k := drawn - drawn%streams + stream
	if k >= keys {
		k -= streams
	}
	return int32(k)
}

// gwMix generates the schedule of one key-value connection of gw-paced:
// PUT, linearizable GET and eventual GET in the proportion 4:2:3 (the 40 /
// 20 / 30 of the workload's mix; the txn tenth has connections of its own),
// keys Zipf(s=1.1). PUT targets are owned by the connection; reads go to any
// key.
func gwMix(seed int64, conn, conns, keys, n, valueSize int) []op {
	r := rand.New(rand.NewSource(streamSeed(seed, conn)))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(keys-1))
	ops := make([]op, n)
	for i := range ops {
		k := int(zipf.Uint64())
		switch p := r.Intn(9); {
		case p < 4:
			ops[i] = op{Kind: opSet, Key: ownedKey(k, conn, conns, keys), Size: int32(valueSize)}
		case p < 6:
			ops[i] = op{Kind: opGetLin, Key: int32(k)}
		default:
			ops[i] = op{Kind: opGetEv, Key: int32(k)}
		}
	}
	return ops
}

// txnMix generates the schedule of one txn connection of gw-paced: every op
// a transaction on a pair the connection owns.
func txnMix(seed int64, conn, conns, pairs, n, valueSize int) []op {
	r := rand.New(rand.NewSource(streamSeed(seed, 500+conn)))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: opTxn, Key: ownedKey(r.Intn(pairs), conn, conns, pairs), Size: int32(valueSize)}
	}
	return ops
}

// burstGen generates one closed-loop write-burst caller's stream: 90 %
// Set / 10 % Delete, uniform over the caller's share of the keys, 90 %
// 64 B / 10 % 1 KiB values. A Delete is only drawn for a key the model
// says exists (every op assumed to succeed), so each op changes state and
// produces exactly one apply event.
type burstGen struct {
	r       *rand.Rand
	caller  int
	callers int
	keys    int
	exists  map[int32]bool
}

func newBurstGen(seed int64, caller, callers, keys int) *burstGen {
	return &burstGen{
		r:      rand.New(rand.NewSource(streamSeed(seed, caller))),
		caller: caller, callers: callers, keys: keys,
		exists: make(map[int32]bool),
	}
}

func (g *burstGen) next() op {
	k := ownedKey(g.r.Intn(g.keys), g.caller, g.callers, g.keys)
	del := g.r.Intn(10) == 0
	big := g.r.Intn(10) == 0
	if del && g.exists[k] {
		g.exists[k] = false
		return op{Kind: opDelete, Key: k}
	}
	g.exists[k] = true
	size := int32(64)
	if big {
		size = 1024
	}
	return op{Kind: opSet, Key: k, Size: size}
}

// permutation is the seeded visiting order of a paced single writer: every
// key once per lap, so a key is never rewritten while its previous write
// can still be in flight.
func permutation(seed int64, stream, keys int) []int32 {
	r := rand.New(rand.NewSource(streamSeed(seed, stream)))
	p := make([]int32, keys)
	for i, v := range r.Perm(keys) {
		p[i] = int32(v)
	}
	return p
}

// victims is the seeded kill order of the failover workload: members 3 and
// 2 alternate, the seed picks who goes first. Member 1 hosts the load
// generator's facade and is never killed.
func victims(seed int64, cycles int) []int {
	first := 3
	if rand.New(rand.NewSource(streamSeed(seed, 1000))).Intn(2) == 1 {
		first = 2
	}
	v := make([]int, cycles)
	for i := range v {
		v[i] = first
		first = 5 - first
	}
	return v
}

// --- self-verifying values ---

// valueHeader is key-hash(8) + writer(4) + version(8) + txn id(8).
const valueHeader = 28

func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// encodeValue builds a value that names its key, writer, per-key version
// and (for txn writes) transaction id; the padding is a function of the
// version so a torn or misrouted value cannot verify.
func encodeValue(key string, writer uint32, version, txn uint64, size int) []byte {
	if size < valueHeader {
		size = valueHeader
	}
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v[0:], keyHash(key))
	binary.LittleEndian.PutUint32(v[8:], writer)
	binary.LittleEndian.PutUint64(v[12:], version)
	binary.LittleEndian.PutUint64(v[20:], txn)
	for i := valueHeader; i < size; i++ {
		v[i] = byte(version) + byte(i)
	}
	return v
}

type decoded struct {
	writer  uint32
	version uint64
	txn     uint64
}

// decodeValue verifies a value read back for key.
func decodeValue(key string, v []byte) (decoded, error) {
	if len(v) < valueHeader {
		return decoded{}, fmt.Errorf("value of %q is %d bytes, shorter than its header", key, len(v))
	}
	if binary.LittleEndian.Uint64(v[0:]) != keyHash(key) {
		return decoded{}, fmt.Errorf("value of %q carries another key's hash", key)
	}
	d := decoded{
		writer:  binary.LittleEndian.Uint32(v[8:]),
		version: binary.LittleEndian.Uint64(v[12:]),
		txn:     binary.LittleEndian.Uint64(v[20:]),
	}
	for i := valueHeader; i < len(v); i++ {
		if v[i] != byte(d.version)+byte(i) {
			return decoded{}, fmt.Errorf("value of %q (version %d) has corrupt padding at byte %d", key, d.version, i)
		}
	}
	return d, nil
}

// --- key tables ---

// keyTable is one key family with its single-writer bookkeeping. issued
// and last are touched only by the key's owner; acked is read by
// linearizable readers on other goroutines.
type keyTable struct {
	mu     sync.Mutex // guards last: an open-loop stream settles from many goroutines
	names  []string
	hashes []uint64 // keyHash of each name, for the per-read header check
	issued []uint64
	acked  []atomic.Uint64
	last   []lastWrite
}

// lastWrite is the owner's most recent op on a key, for the end-of-run
// convergence check. known is false when that op failed or timed out: the
// write may or may not have been ordered, so either outcome is legal.
type lastWrite struct {
	version uint64
	deleted bool
	known   bool
}

func newKeyTable(prefix string, n int) *keyTable {
	t := &keyTable{
		names:  make([]string, n),
		hashes: make([]uint64, n),
		issued: make([]uint64, n),
		acked:  make([]atomic.Uint64, n),
		last:   make([]lastWrite, n),
	}
	for i := range t.names {
		t.names[i] = fmt.Sprintf("%s/%05d", prefix, i)
		t.hashes[i] = keyHash(t.names[i])
	}
	return t
}

// nextVersion issues the owner's next version for key i.
func (t *keyTable) nextVersion(i int32) uint64 {
	t.issued[i]++
	return t.issued[i]
}

// settle records the outcome of the owner's op on key i.
// The owner's ops on one key are ordered by version, but when the ring
// stalls an open-loop stream can have two of them in flight and see their
// outcomes out of order; the later op is the one that decides the key.
func (t *keyTable) settle(i int32, version uint64, deleted, ok bool) {
	t.mu.Lock()
	if version >= t.last[i].version {
		t.last[i] = lastWrite{version: version, deleted: deleted, known: ok}
	}
	if ok && version > t.acked[i].Load() {
		t.acked[i].Store(version)
	}
	t.mu.Unlock()
}
