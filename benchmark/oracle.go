package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// oracle checks the program's outputs in both passes. A violated check
// invalidates the run (correct=false); it is not a failed op.
//
//   - every value read names its key, writer and version and verifies;
//   - a linearizable read returns a version >= the last one acked for the
//     key before the read was issued;
//   - a session read sees the session's own write;
//   - the two keys of one txn read back with the same txn id in a later txn;
//   - after quiesce every member holds the same key -> value map, and it is
//     the map the acks promised (on failover: no acked write lost).
type oracle struct {
	mu         sync.Mutex
	violations []string
	count      int
}

const keptViolations = 20

func (o *oracle) violate(format string, args ...any) {
	o.mu.Lock()
	o.count++
	if len(o.violations) < keptViolations {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

func (o *oracle) ok() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.count == 0
}

// checkRead verifies a value read for key i of t. floor is the version
// acked for the key before the read was issued (0 = no freshness claim,
// i.e. an eventual read).
func (o *oracle) checkRead(t *keyTable, i int32, val []byte, found bool, floor uint64, how string) {
	if !found {
		if floor > 0 {
			o.violate("%s read of %s found nothing, but version %d was acked before it was issued", how, t.names[i], floor)
		}
		return
	}
	d, err := decodeValue(t.names[i], val)
	if err != nil {
		o.violate("%s read: %v", how, err)
		return
	}
	if d.version < floor {
		o.violate("%s read of %s returned version %d, older than version %d acked before it was issued", how, t.names[i], d.version, floor)
	}
}

// settleWait bounds how long the end-of-run check waits for replication to
// drain before it calls a difference a violation.
const settleWait = 5 * time.Second

// converged waits for quiesce and then checks every member against the
// owners' bookkeeping. It returns the number of acked writes that are
// missing on some member.
func (o *oracle) converged(ctx context.Context, members []*member, pairs *pairTable, tables ...*keyTable) (lost int) {
	deadline := time.Now().Add(settleWait)
	for {
		problems, lostNow := compareMembers(ctx, members, tables)
		if pairs != nil {
			problems = append(problems, pairs.compare(ctx, members)...)
		}
		if len(problems) == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			for _, p := range problems {
				o.violate("%s", p)
			}
			return lostNow
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func compareMembers(ctx context.Context, members []*member, tables []*keyTable) (problems []string, lost int) {
	report := func(format string, args ...any) {
		if len(problems) < keptViolations {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	var keysets []uint64
	for _, m := range members {
		h := fnv.New64a()
		for _, k := range m.cl.Keys() {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		keysets = append(keysets, h.Sum64())
	}
	for i := 1; i < len(keysets); i++ {
		if keysets[i] != keysets[0] {
			report("members hold different key sets after quiesce")
			break
		}
	}
	for _, t := range tables {
		for i, name := range t.names {
			want := t.last[i]
			acked := t.acked[i].Load()
			var first decoded
			var firstFound bool
			for mi, m := range members {
				val, found, err := m.cl.Get(ctx, name)
				if err != nil {
					report("final read of %s: %v", name, err)
					continue
				}
				var d decoded
				if found {
					if d, err = decodeValue(name, val); err != nil {
						report("final read: %v", err)
						continue
					}
				}
				switch {
				case want.known && want.deleted && found:
					report("%s was deleted (version %d acked) but member %d still holds version %d", name, want.version, mi+1, d.version)
				case want.known && !want.deleted && (!found || d.version != want.version):
					report("%s: version %d was acked last but member %d holds found=%v version %d", name, want.version, mi+1, found, d.version)
					if !found || d.version < want.version {
						lost++
					}
				case !want.known && found && d.version < acked:
					report("%s: version %d was acked but member %d holds version %d", name, acked, mi+1, d.version)
					lost++
				}
				if mi == 0 {
					first, firstFound = d, found
				} else if found != firstFound || d != first {
					report("%s differs between member 1 and member %d", name, mi+1)
				}
			}
		}
	}
	return problems, lost
}

// --- txn pairs ---

// pairTable is the txn key family: pair i is two keys on different shards
// that only transactions write, always both in one txn. Pair i belongs to
// connection i % conns, which issues its txns on it in order.
type pairTable struct {
	a, b    []string
	lastTxn []uint64 // owner-only: id of the last txn acked on the pair
	known   []bool   // owner-only: false when the last txn failed or timed out
}

// newPairTable names the pairs; shardOf places the second key of each pair
// on another shard than the first.
func newPairTable(n int, shardOf func(string) int) *pairTable {
	p := &pairTable{a: make([]string, n), b: make([]string, n), lastTxn: make([]uint64, n), known: make([]bool, n)}
	for i := range p.a {
		p.a[i] = fmt.Sprintf("t/%05d/a", i)
		for j := 0; ; j++ {
			p.b[i] = fmt.Sprintf("t/%05d/b%d", i, j)
			if shardOf(p.b[i]) != shardOf(p.a[i]) {
				break
			}
		}
		p.known[i] = true
	}
	return p
}

// checkTxnReads verifies what a txn read of pair i returned: both keys
// carry one txn id, and it is the last one the owner saw acked.
func (o *oracle) checkTxnReads(p *pairTable, i int32, reads map[string][]byte) {
	va, oka := reads[p.a[i]]
	vb, okb := reads[p.b[i]]
	oka, okb = oka && len(va) > 0, okb && len(vb) > 0
	if oka != okb {
		o.violate("txn read of pair %d saw one key of the pair and not the other", i)
		return
	}
	if !oka {
		if p.known[i] && p.lastTxn[i] != 0 {
			o.violate("txn read of pair %d found nothing after txn %d was acked", i, p.lastTxn[i])
		}
		return
	}
	da, erra := decodeValue(p.a[i], va)
	db, errb := decodeValue(p.b[i], vb)
	if erra != nil || errb != nil {
		o.violate("txn read of pair %d: %v %v", i, erra, errb)
		return
	}
	if da.txn != db.txn {
		o.violate("txn read of pair %d saw txn %d on one key and txn %d on the other", i, da.txn, db.txn)
	}
	if p.known[i] && da.txn != p.lastTxn[i] {
		o.violate("txn read of pair %d saw txn %d, but txn %d was the last acked", i, da.txn, p.lastTxn[i])
	}
}

// compare checks after quiesce that both keys of every pair carry the same
// txn id on every member, and that it is the last one acked.
func (p *pairTable) compare(ctx context.Context, members []*member) (problems []string) {
	report := func(format string, args ...any) {
		if len(problems) < keptViolations {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for i := range p.a {
		for mi, m := range members {
			va, oka, _ := m.cl.Get(ctx, p.a[i])
			vb, okb, _ := m.cl.Get(ctx, p.b[i])
			if oka != okb {
				report("member %d holds half of txn pair %d after quiesce", mi+1, i)
				continue
			}
			if !oka {
				if p.known[i] && p.lastTxn[i] != 0 {
					report("member %d holds nothing of txn pair %d, but txn %d was acked", mi+1, i, p.lastTxn[i])
				}
				continue
			}
			da, erra := decodeValue(p.a[i], va)
			db, errb := decodeValue(p.b[i], vb)
			if erra != nil || errb != nil || da.txn != db.txn {
				report("member %d holds txn pair %d torn after quiesce (%v %v txn %d vs %d)", mi+1, i, erra, errb, da.txn, db.txn)
			} else if p.known[i] && da.txn != p.lastTxn[i] {
				report("member %d holds txn %d on pair %d, but txn %d was the last acked", mi+1, da.txn, i, p.lastTxn[i])
			}
		}
	}
	return problems
}
